// ssdb_server: serves an encrypted database file over a unix socket — one
// untrusted server process of fig. 3. It loads no key material; it can only
// evaluate stored shares and hand out structure.
//
//   ssdb_server --db db.ssdb --socket /tmp/ssdb.sock [--p 83] [--e 1]
//               [--servers m --share-index i] [--threads n]
//               [--max-connections n]
//               [--idle-timeout s] [--io-timeout s]
//               [--max-write-buffer bytes] [--admin-port p]
//
// In an m-server deployment (DESIGN.md §5) each host runs one ssdb_server
// over its own share slice; --servers/--share-index resolve the slice file
// from the base --db path (db.ssdb.s<i>of<m>), or point --db at the slice
// file directly. Serves any number of clients concurrently on a worker
// pool of --threads threads (default: hardware concurrency; DESIGN.md §7),
// keeps serving after clients disconnect, and drains gracefully on
// SIGINT/SIGTERM. The accept loop dispatches through an incremental
// epoll interest set (DESIGN.md §7); --max-connections
// pauses accepting at an fd budget instead of dying, and --idle-timeout
// sweeps connections idle past that many seconds. A client that stops
// reading never blocks a worker: its response tail is buffered and
// flushed as the socket drains, and --max-write-buffer bounds how much
// one such reader may pin before being closed (0 = unlimited).
//
// --admin-port starts the JSON admin API (DESIGN.md §11) on
// 127.0.0.1:<p> (0 = ephemeral; the bound port is printed) serving
// GET /v1/stats — the same ServerStats snapshot the shutdown log prints.
// Metadata only; shares never cross this surface.

#include <csignal>
#include <cstdio>
#include <string>

#include "control/admin_http.h"
#include "core/options.h"
#include "filter/server_filter.h"
#include "rpc/concurrent_server.h"
#include "rpc/socket_channel.h"
#include "storage/table.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace ssdb;
  tools::FlagSet flags("ssdb_server", "--db DB.ssdb --socket SOCK [flags]");
  const std::string* db_path =
      flags.String("db", "db.ssdb", "encrypted database (or slice base) file");
  const std::string* socket_path =
      flags.String("socket", "/tmp/ssdb.sock", "unix socket to serve on");
  const uint32_t* p = flags.Uint("p", 83, "field characteristic");
  const uint32_t* e = flags.Uint("e", 1, "field extension degree");
  const uint32_t* servers =
      flags.Uint("servers", 1, "share-split width m (resolves the slice file)");
  const uint32_t* share_index =
      flags.Uint("share-index", 0, "which slice this server holds (< m)");
  const uint32_t* threads =
      flags.Uint("threads", 0, "worker threads (0 = hardware concurrency)");
  const uint32_t* max_connections =
      flags.Uint("max-connections", 0, "pause accepting at this many fds (0 = unlimited)");
  const uint32_t* idle_timeout =
      flags.Uint("idle-timeout", 0, "sweep connections idle this many seconds (0 = never)");
  const uint32_t* io_timeout =
      flags.Uint("io-timeout", 30, "per-connection read/write bound, seconds");
  const uint32_t* max_write_buffer =
      flags.Uint("max-write-buffer", 16u << 20,
                 "bytes a slow reader may pin before close (0 = unlimited)");
  const uint32_t* admin_port =
      flags.Uint("admin-port", 0,
                 "serve the JSON admin API on 127.0.0.1:P (0 = ephemeral; "
                 "off unless given)");

  Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::fputs(flags.Help().c_str(), stdout);
    return tools::kExitOk;
  }
  if (!parsed.ok()) return tools::UsageError(flags, parsed);
  if (*servers == 0 || *share_index >= *servers) {
    return tools::UsageError(flags, "--share-index must be < --servers");
  }
  std::string slice_path =
      core::ShareSlicePath(*db_path, *share_index, *servers);

  auto field = gf::Field::Make(*p, *e);
  if (!field.ok()) return tools::Fail(field.status());
  gf::Ring ring(*field);

  auto store = storage::DiskNodeStore::Open(slice_path);
  if (!store.ok()) return tools::Fail(store.status());
  auto count = (*store)->NodeCount();
  if (!count.ok()) return tools::Fail(count.status());

  // Block the termination signals before spawning server threads so they
  // are delivered to sigwait below, not to a worker.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  auto listener = rpc::UnixServerSocket::Listen(*socket_path);
  if (!listener.ok()) return tools::Fail(listener.status());

  filter::LocalServerFilter filter(ring, store->get());
  rpc::ConcurrentServerOptions options;
  options.threads = *threads;
  options.log_connections = true;
  options.max_connections = *max_connections;
  options.idle_timeout_seconds = static_cast<int>(*idle_timeout);
  options.io_timeout_seconds = static_cast<int>(*io_timeout);
  options.max_write_buffer = *max_write_buffer;
  rpc::ConcurrentServer server(ring, &filter, std::move(*listener), options);
  Status started = server.Start();
  if (!started.ok()) return tools::Fail(started);

  // Admin API (DESIGN.md §11): stats snapshots only — never shares.
  control::AdminHttpServer admin({/*bind_address=*/"127.0.0.1",
                                  /*port=*/static_cast<uint16_t>(*admin_port),
                                  /*max_request_bytes=*/4096,
                                  /*io_timeout_seconds=*/5});
  if (flags.Provided("admin-port")) {
    admin.Route("/v1/stats", [&server] { return server.Snapshot().ToJson(); });
    Status admin_up = admin.Start();
    if (!admin_up.ok()) return tools::Fail(admin_up);
    std::printf("admin API on 127.0.0.1:%u\n", admin.port());
  }

  if (*servers > 1) {
    std::printf("serving %s (slice %u/%u, %llu nodes) on %s, %zu threads, "
                "%s poller\n",
                slice_path.c_str(), *share_index, *servers,
                (unsigned long long)*count, socket_path->c_str(),
                server.threads(), server.poller_name());
  } else {
    std::printf("serving %s (%llu nodes) on %s, %zu threads, %s poller\n",
                slice_path.c_str(), (unsigned long long)*count,
                socket_path->c_str(), server.threads(), server.poller_name());
  }
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::printf("signal %d: draining\n", signal_number);
  admin.Shutdown();
  server.Shutdown();
  // The shutdown log IS the admin /v1/stats snapshot, in text form.
  std::fputs(server.Snapshot().ToText().c_str(), stdout);
  return tools::kExitOk;
}
