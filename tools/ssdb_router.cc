// ssdb_router: serves a shard catalog over a unix socket — the untrusted
// routing tier of a multi-document corpus (DESIGN.md §10). It holds ONLY
// routing metadata (document ids, server groups, slice endpoints): no seed,
// no tag map, no shares ever pass through it. Clients fetch the catalog
// (or resolve a single document id), then open their own trusted
// shard::Router and talk to the share-slice servers directly.
//
//   ssdb_router --catalog catalog.json --socket /tmp/router.sock
//               [--threads n] [--max-connections n]
//               [--idle-timeout s] [--io-timeout s] [--admin-port p]
//               [--probe-interval-ms 1000] [--probe-timeout 1]
//               [--rise 2] [--fall 3]
//
// catalog.json: {"version":1,"documents":[{"id":"doc","group":0,
//               "slices":["/tmp/doc.s0.sock","/tmp/doc.s1.sock"]}]}
//
// The transport is the same concurrent server ssdb_server runs (worker
// pool, incremental poller, idle sweep) with no filter behind it: any
// share/structure op answers FailedPrecondition.
//
// --admin-port additionally starts the control plane (DESIGN.md §11): a
// health Monitor kPing-probing every distinct slice endpoint in the
// catalog plus the router's own socket ("catalog"), and the JSON admin
// API on 127.0.0.1:<p> (0 = ephemeral; the bound port is printed) serving
// GET /v1/servers (monitor states), /v1/stats (transport snapshot), and
// /v1/catalog (topology summary). Metadata only — the admin surface never
// exposes shares, seeds, or document content.

#include <csignal>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "control/admin_http.h"
#include "control/monitor.h"
#include "gf/field.h"
#include "rpc/concurrent_server.h"
#include "rpc/socket_channel.h"
#include "shard/catalog.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace ssdb;
  tools::FlagSet flags("ssdb_router",
                       "--catalog CATALOG.json --socket SOCK [flags]");
  const std::string* catalog_path =
      flags.String("catalog", "catalog.json", "shard catalog to serve");
  const std::string* socket_path = flags.String(
      "socket", "/tmp/ssdb-router.sock", "unix socket to serve on");
  const uint32_t* threads =
      flags.Uint("threads", 0, "worker threads (0 = hardware concurrency)");
  const uint32_t* max_connections =
      flags.Uint("max-connections", 0, "pause accepting at this many fds (0 = unlimited)");
  const uint32_t* idle_timeout =
      flags.Uint("idle-timeout", 0, "sweep connections idle this many seconds (0 = never)");
  const uint32_t* io_timeout =
      flags.Uint("io-timeout", 30, "per-connection read/write bound, seconds");
  const uint32_t* admin_port =
      flags.Uint("admin-port", 0,
                 "serve the JSON admin API + health monitor on 127.0.0.1:P "
                 "(0 = ephemeral; off unless given)");
  const uint32_t* probe_interval_ms =
      flags.Uint("probe-interval-ms", 1000, "health probe sweep cadence");
  const uint32_t* probe_timeout =
      flags.Uint("probe-timeout", 1, "per-probe dial/IO bound, seconds");
  const uint32_t* rise = flags.Uint(
      "rise", 2, "consecutive probe successes before recovering -> up");
  const uint32_t* fall =
      flags.Uint("fall", 3, "consecutive probe failures before suspect -> down");

  Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::fputs(flags.Help().c_str(), stdout);
    return tools::kExitOk;
  }
  if (!parsed.ok()) return tools::UsageError(flags, parsed);
  if (*rise == 0 || *fall == 0) {
    return tools::UsageError(flags, "--rise and --fall must be >= 1");
  }

  auto catalog = shard::ShardCatalog::Load(*catalog_path);
  if (!catalog.ok()) return tools::Fail(catalog.status());

  // Pre-encode every reply once: the server then answers catalog ops with
  // a memcpy, and rpc/ stays independent of shard/.
  std::map<std::string, std::string> entries;
  for (const shard::ShardEntry& entry : catalog->entries()) {
    entries.emplace(entry.doc_id, shard::EncodeEntry(entry));
  }

  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  auto listener = rpc::UnixServerSocket::Listen(*socket_path);
  if (!listener.ok()) return tools::Fail(listener.status());

  // The ring parameter only serializes share payloads, which a catalog
  // server never produces; any valid field works.
  auto field = gf::Field::Make(83, 1);
  if (!field.ok()) return tools::Fail(field.status());

  rpc::ConcurrentServerOptions options;
  options.threads = *threads;
  options.log_connections = true;
  options.max_connections = *max_connections;
  options.idle_timeout_seconds = static_cast<int>(*idle_timeout);
  options.io_timeout_seconds = static_cast<int>(*io_timeout);
  rpc::ConcurrentServer server(gf::Ring(*field), /*filter=*/nullptr,
                               std::move(*listener), options);
  server.SetCatalog(shard::EncodeCatalog(*catalog), std::move(entries));
  Status started = server.Start();
  if (!started.ok()) return tools::Fail(started);

  // Control plane (DESIGN.md §11): monitor every distinct slice endpoint
  // named by the catalog, plus this router's own socket as "catalog" —
  // the kPing probe is answered before the filter null-check, so the
  // metadata-only tier pings itself like any share server.
  std::vector<control::MonitorTarget> targets;
  std::set<std::string> seen;
  for (const shard::ShardEntry& entry : catalog->entries()) {
    for (size_t i = 0; i < entry.slices.size(); ++i) {
      if (!seen.insert(entry.slices[i]).second) continue;
      targets.push_back(control::MonitorTarget{
          entry.doc_id + "[" + std::to_string(i) + "]", entry.slices[i]});
    }
  }
  targets.push_back(control::MonitorTarget{"catalog", *socket_path});
  control::MonitorOptions mopts;
  mopts.probe_interval_ms = static_cast<int>(*probe_interval_ms);
  mopts.probe_timeout_seconds = static_cast<int>(*probe_timeout);
  mopts.rise = static_cast<int>(*rise);
  mopts.fall = static_cast<int>(*fall);
  control::Monitor monitor(std::move(targets), mopts);

  control::AdminHttpServer admin({/*bind_address=*/"127.0.0.1",
                                  /*port=*/static_cast<uint16_t>(*admin_port),
                                  /*max_request_bytes=*/4096,
                                  /*io_timeout_seconds=*/5});
  if (flags.Provided("admin-port")) {
    admin.Route("/v1/servers", [&monitor] { return monitor.ServersJson(); });
    admin.Route("/v1/stats", [&server] { return server.Snapshot().ToJson(); });
    std::string catalog_summary = catalog->SummaryJson();
    admin.Route("/v1/catalog", [catalog_summary] { return catalog_summary; });
    Status admin_up = admin.Start();
    if (!admin_up.ok()) return tools::Fail(admin_up);
    monitor.Start();
    std::printf("admin API on 127.0.0.1:%u (monitoring %zu server(s), "
                "probe every %ums, rise %u / fall %u)\n",
                admin.port(), monitor.Snapshot().size(), *probe_interval_ms,
                *rise, *fall);
  }

  std::printf("routing %zu document(s) across %zu group(s) on %s, "
              "%zu threads, %s poller\n",
              catalog->size(), catalog->Groups().size(), socket_path->c_str(),
              server.threads(), server.poller_name());
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::printf("signal %d: draining\n", signal_number);
  monitor.Stop();
  admin.Shutdown();
  server.Shutdown();
  std::fputs(server.Snapshot().ToText().c_str(), stdout);
  return tools::kExitOk;
}
