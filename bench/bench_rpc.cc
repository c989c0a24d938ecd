// Ablation A3: communication-layer overhead — the same query executed
// against (a) the local in-process filter, (b) the RPC stack over an
// in-process channel, (c) the RPC stack over a unix-domain socket (the
// stand-in for the paper's RMI deployment), and (d) m-server share fan-out
// over m sockets for m = 1, 2, 4 (DESIGN.md §5). Reports wall time, round
// trips (straggler-counted under fan-out) and bytes moved, then one
// machine-readable JSON line for trajectory tracking.
//
// Second section: multi-client throughput against the concurrent server
// (DESIGN.md §7) — 1/4/16 concurrent clients x m in {1, 2} servers, each
// client running the query in a loop over its own connection; reports
// aggregate queries/sec and p50/p99 per-query latency, plus a second
// BENCH_JSON line. The scaling win of the worker pool is measured here,
// not asserted.
//
// Third section: high-connection dispatch cost of the epoll backend
// (rpc/event_poller.h) — 64/256/1024 mostly-idle connections parked on
// one server while a hot subset of 8 clients runs queries; reports qps,
// p50/p99, and the dispatcher's wake cost (ready events scanned per wake,
// which should stay flat as idle connections grow), plus a third
// BENCH_JSON line.
//
// Fourth section: slow-reader resilience (DESIGN.md §7) — K in {0, 4, 16}
// stalled readers hold unread batched responses (tiny SO_SNDBUF forces
// the buffered write path) while 4 hot clients run queries; hot qps with
// K >= 4 should stay within noise of the K = 0 row because no worker ever
// blocks on a non-reading peer. Reports the server's write-stall /
// buffered-bytes telemetry alongside.
//
// Fifth section: sharded-dispatch contention — tiny EvalAt ops (dispatch
// cost dominates) from 8/32 hot clients with an idle herd filling the
// connection count to 64/1024; reports ops/sec, p50/p99 per op, and the
// deepest per-worker ready-queue.
//
// Sixth section: health-probe overhead (DESIGN.md §11) — the same hot
// query workload with the control-plane monitor off vs. probing the
// server's socket at an aggressive interval; qps with the monitor on
// should sit within noise of the monitor-off row (kPing never touches
// the filter, so probes never compete with query work).
//
//   bench_rpc [--servers m]   # restrict the fan-out/multi-client rows

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "control/monitor.h"
#include "rpc/client.h"
#include "rpc/concurrent_server.h"
#include "rpc/event_poller.h"
#include "rpc/multi_session.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "rpc/socket_channel.h"
#include "tools/tool_util.h"
#include "util/varint.h"

namespace ssdb::bench {
namespace {

struct Measurement {
  std::string transport;
  uint32_t servers = 1;
  double ms = 0;
  uint64_t round_trips = 0;
  uint64_t bytes = 0;
  size_t results = 0;
  uint64_t batched_evals = 0;
  uint64_t candidates = 0;
  double straggler_ms = 0;
  bool has_bytes = false;
};

Measurement RunWith(BenchDb* db, filter::ServerFilter* server,
                    const std::string& text) {
  filter::ClientFilter client(db->db->ring(),
                              prg::Prg(prg::Seed::FromUint64(42)), server);
  query::AdvancedEngine engine(&client, &db->map);
  auto parsed = *query::ParseQuery(text);
  Stopwatch watch;
  query::QueryStats stats;
  auto result = engine.Execute(parsed, query::MatchMode::kContainment,
                               &stats);
  Measurement m;
  m.ms = watch.ElapsedMillis();
  SSDB_CHECK(result.ok());
  m.results = result->size();
  m.batched_evals = stats.eval.batched_evaluations;
  m.candidates = stats.candidates_examined;
  m.round_trips = stats.eval.round_trips;
  m.straggler_ms = stats.eval.straggler_seconds * 1e3;
  return m;
}

void PrintRow(const Measurement& m) {
  char bytes[32];
  if (m.has_bytes) {
    std::snprintf(bytes, sizeof(bytes), "%llu",
                  static_cast<unsigned long long>(m.bytes));
  } else {
    std::snprintf(bytes, sizeof(bytes), "-");
  }
  std::printf("%-22s %-12.1f %-14llu %-14llu %-14llu %-12s %-10zu\n",
              m.transport.c_str(), m.ms,
              static_cast<unsigned long long>(m.round_trips),
              static_cast<unsigned long long>(m.batched_evals),
              static_cast<unsigned long long>(m.candidates), bytes,
              m.results);
}

void PrintJson(const std::string& query, const std::vector<Measurement>& rows) {
  // `scale` identifies the workload size so the regression guard
  // (tools/check_bench.py) never compares qps across database scales.
  std::printf(
      "BENCH_JSON {\"bench\":\"rpc\",\"query\":\"%s\",\"scale\":%.3f,"
      "\"rows\":[",
      query.c_str(), BenchScale());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    char bytes[32];
    if (m.has_bytes) {
      std::snprintf(bytes, sizeof(bytes), "%llu",
                    static_cast<unsigned long long>(m.bytes));
    } else {
      std::snprintf(bytes, sizeof(bytes), "null");  // not measured locally
    }
    std::printf(
        "%s{\"transport\":\"%s\",\"servers\":%u,\"ms\":%.3f,"
        "\"round_trips\":%llu,\"batched_evals\":%llu,\"candidates\":%llu,"
        "\"bytes\":%s,\"results\":%zu,\"straggler_ms\":%.3f}",
        i == 0 ? "" : ",", m.transport.c_str(), m.servers, m.ms,
        static_cast<unsigned long long>(m.round_trips),
        static_cast<unsigned long long>(m.batched_evals),
        static_cast<unsigned long long>(m.candidates), bytes, m.results,
        m.straggler_ms);
  }
  std::printf("]}\n");
}

// One ssdb_server stand-in per share slice: accepts a single connection on
// its own socket and serves that slice until shutdown.
struct SliceServers {
  std::vector<std::string> paths;
  std::vector<std::thread> threads;

  SliceServers(BenchDb* db, uint32_t servers) {
    for (uint32_t i = 0; i < servers; ++i) {
      paths.push_back("/tmp/ssdb_bench_rpc_" + std::to_string(::getpid()) +
                      "_s" + std::to_string(i) + ".sock");
      auto listener = *rpc::UnixServerSocket::Listen(paths.back());
      threads.emplace_back(
          [db, i, listener = std::move(listener)]() mutable {
            auto channel = listener->Accept();
            if (!channel.ok()) return;
            db->db->ServeSlice(i, channel->get());
          });
    }
  }

  void Join() {
    for (std::thread& thread : threads) thread.join();
  }
};

// --- multi-client throughput against the concurrent server -----------------

struct ClientScalingRow {
  uint32_t servers = 1;
  uint32_t clients = 1;
  uint64_t queries = 0;
  double wall_s = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

// One ConcurrentServer per share slice, all slices of one database.
struct ConcurrentSliceServers {
  std::vector<std::unique_ptr<rpc::ConcurrentServer>> servers;
  std::vector<std::string> paths;

  ConcurrentSliceServers(BenchDb* db, uint32_t m) {
    for (uint32_t i = 0; i < m; ++i) {
      paths.push_back("/tmp/ssdb_bench_mc_" + std::to_string(::getpid()) +
                      "_m" + std::to_string(m) + "_s" + std::to_string(i) +
                      ".sock");
      auto listener = *rpc::UnixServerSocket::Listen(paths.back());
      servers.push_back(std::make_unique<rpc::ConcurrentServer>(
          db->db->ring(), db->db->slice_filter(i), std::move(listener),
          rpc::ConcurrentServerOptions{}));
      SSDB_CHECK_OK(servers.back()->Start());
    }
  }

  void Shutdown() {
    for (auto& server : servers) server->Shutdown();
  }
};

ClientScalingRow RunMultiClientCell(BenchDb* db,
                                    const std::vector<std::string>& paths,
                                    uint32_t clients, uint32_t per_client,
                                    const std::string& query) {
  std::vector<std::vector<double>> latencies(clients);
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([db, &paths, &latencies, &query, per_client, c] {
      auto session =
          *rpc::MultiServerSession::ConnectUnix(db->db->ring(), paths);
      filter::ClientFilter client(db->db->ring(),
                                  prg::Prg(prg::Seed::FromUint64(42)),
                                  session->filter());
      query::AdvancedEngine engine(&client, &db->map);
      auto parsed = *query::ParseQuery(query);
      latencies[c].reserve(per_client);
      for (uint32_t i = 0; i < per_client; ++i) {
        Stopwatch one;
        auto result =
            engine.Execute(parsed, query::MatchMode::kContainment, nullptr);
        SSDB_CHECK(result.ok());
        latencies[c].push_back(one.ElapsedSeconds());
      }
      SSDB_CHECK_OK(session->Shutdown());
    });
  }
  for (std::thread& thread : threads) thread.join();

  ClientScalingRow row;
  row.servers = static_cast<uint32_t>(paths.size());
  row.clients = clients;
  row.wall_s = wall.ElapsedSeconds();
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  row.queries = all.size();
  row.qps = row.wall_s > 0 ? static_cast<double>(all.size()) / row.wall_s : 0;
  row.p50_ms = all[all.size() / 2] * 1e3;
  row.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)] * 1e3;
  return row;
}

void PrintClientScalingJson(const std::string& query,
                            const std::vector<ClientScalingRow>& rows) {
  std::printf(
      "BENCH_JSON {\"bench\":\"rpc_multi_client\",\"query\":\"%s\","
      "\"scale\":%.3f,\"worker_threads\":%u,\"rows\":[",
      query.c_str(), BenchScale(), std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ClientScalingRow& r = rows[i];
    std::printf(
        "%s{\"servers\":%u,\"clients\":%u,\"queries\":%llu,"
        "\"wall_s\":%.4f,\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
        i == 0 ? "" : ",", r.servers, r.clients,
        static_cast<unsigned long long>(r.queries), r.wall_s, r.qps,
        r.p50_ms, r.p99_ms);
  }
  std::printf("]}\n");
}

// --- high-connection dispatch cost ------------------------------------------

struct PollerScalingRow {
  std::string poller;
  uint32_t idle_conns = 0;
  uint32_t hot_clients = 0;
  uint64_t queries = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t wakes = 0;
  double scanned_per_wake = 0;
};

// Raises the fd soft limit to the hard limit; returns the resulting cap.
uint64_t RaiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 1024;
  if (limit.rlim_cur < limit.rlim_max) {
    rlimit raised = limit;
    raised.rlim_cur = limit.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) return raised.rlim_cur;
  }
  return limit.rlim_cur;
}

void RunPollerScaling(BenchDb* db, const std::string& query,
                      std::vector<PollerScalingRow>* rows) {
  const uint64_t fd_cap = RaiseFdLimit();
  const uint32_t hot_clients = 8;
  const uint32_t per_client = 4;
  for (uint32_t idle : {64u, 256u, 1024u}) {
    // Both endpoints of every connection live in this process, plus
    // headroom for the database, listener, and hot clients.
    if (2 * (idle + hot_clients) + 128 > fd_cap) {
      std::printf("(skipping %u idle connections: fd limit %llu)\n", idle,
                  static_cast<unsigned long long>(fd_cap));
      continue;
    }
    std::string path = "/tmp/ssdb_bench_hc_" + std::to_string(::getpid()) +
                       ".sock";
    auto listener = *rpc::UnixServerSocket::Listen(path);
    rpc::ConcurrentServerOptions options;
    rpc::ConcurrentServer server(db->db->ring(), db->db->server_filter(),
                                 std::move(listener), options);
    SSDB_CHECK_OK(server.Start());

    // Park the idle herd first; each connection is registered once and
    // then never becomes readable again.
    std::vector<std::unique_ptr<rpc::Channel>> idle_conns;
    idle_conns.reserve(idle);
    while (idle_conns.size() < idle) {
      auto channel = rpc::ConnectUnix(path);
      if (!channel.ok()) {  // listen backlog full; let the accept
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;           // loop drain it and retry
      }
      idle_conns.push_back(std::move(*channel));
    }
    while (server.Snapshot().open_connections < idle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const uint64_t wakes_before = server.Snapshot().poller_wakeups;
    const uint64_t scanned_before = server.Snapshot().poller_items_scanned;
    ClientScalingRow hot = RunMultiClientCell(db, {path}, hot_clients,
                                              per_client, query);
    const uint64_t wakes = server.Snapshot().poller_wakeups - wakes_before;
    const uint64_t scanned =
        server.Snapshot().poller_items_scanned - scanned_before;

    PollerScalingRow row;
    row.poller = server.poller_name();
    row.idle_conns = idle;
    row.hot_clients = hot_clients;
    row.queries = hot.queries;
    row.qps = hot.qps;
    row.p50_ms = hot.p50_ms;
    row.p99_ms = hot.p99_ms;
    row.wakes = wakes;
    row.scanned_per_wake =
        wakes > 0 ? static_cast<double>(scanned) / wakes : 0;
    std::printf("%-8s %-12u %-10u %-12.1f %-12.3f %-12.3f %-10llu %-14.1f\n",
                row.poller.c_str(), row.idle_conns, row.hot_clients,
                row.qps, row.p50_ms, row.p99_ms,
                static_cast<unsigned long long>(row.wakes),
                row.scanned_per_wake);
    rows->push_back(row);

    idle_conns.clear();
    server.Shutdown();
  }
}

void PrintPollerScalingJson(const std::string& query,
                            const std::vector<PollerScalingRow>& rows) {
  std::printf(
      "BENCH_JSON {\"bench\":\"rpc_poller_scaling\",\"query\":\"%s\","
      "\"scale\":%.3f,\"rows\":[",
      query.c_str(), BenchScale());
  for (size_t i = 0; i < rows.size(); ++i) {
    const PollerScalingRow& r = rows[i];
    std::printf(
        "%s{\"poller\":\"%s\",\"idle_conns\":%u,\"hot_clients\":%u,"
        "\"queries\":%llu,\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"wakes\":%llu,\"scanned_per_wake\":%.1f}",
        i == 0 ? "" : ",", r.poller.c_str(), r.idle_conns, r.hot_clients,
        static_cast<unsigned long long>(r.queries), r.qps, r.p50_ms,
        r.p99_ms, static_cast<unsigned long long>(r.wakes),
        r.scanned_per_wake);
  }
  std::printf("]}\n");
}

// --- slow-reader resilience (buffered write path, DESIGN.md §7) -------------

struct SlowReaderRow {
  uint32_t stalled = 0;
  uint32_t hot_clients = 0;
  uint64_t queries = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t write_stalls = 0;
  uint64_t buffered_peak = 0;
  uint64_t frames_reused = 0;
};

void RunSlowReader(BenchDb* db, const std::string& query,
                   std::vector<SlowReaderRow>* rows) {
  const uint32_t hot_clients = 4;
  const uint32_t per_client = 8;
  // A share batch sized to overflow the deliberately tiny socket buffer:
  // every stalled reader parks a response tail on the server for the
  // whole measurement.
  std::string entry;
  PutLengthPrefixed(&entry, db->db->ring().Serialize(
                                *db->db->server_filter()->FetchShare(2)));
  rpc::Request fetch;
  fetch.op = rpc::Op::kFetchShareBatch;
  fetch.pres.assign((128 << 10) / entry.size() + 1, 2);
  const std::string fetch_bytes = rpc::EncodeRequest(fetch);

  for (uint32_t stalled_count : {0u, 4u, 16u}) {
    std::string path =
        "/tmp/ssdb_bench_sr_" + std::to_string(::getpid()) + ".sock";
    auto listener = *rpc::UnixServerSocket::Listen(path);
    rpc::ConcurrentServerOptions options;
    options.so_sndbuf = 4096;  // force short writes: buffering engages
    rpc::ConcurrentServer server(db->db->ring(), db->db->server_filter(),
                                 std::move(listener), options);
    SSDB_CHECK_OK(server.Start());

    std::vector<std::unique_ptr<rpc::Channel>> stalled;
    for (uint32_t i = 0; i < stalled_count; ++i) {
      auto channel = *rpc::ConnectUnix(path);
      SSDB_CHECK_OK(channel->Send(fetch_bytes));
      stalled.push_back(std::move(channel));
    }
    // Buffering must be engaged before the hot clients are measured.
    for (int spin = 0; server.Snapshot().write_stalls < stalled_count; ++spin) {
      SSDB_CHECK(spin < 10000);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    ClientScalingRow hot =
        RunMultiClientCell(db, {path}, hot_clients, per_client, query);

    SlowReaderRow row;
    row.stalled = stalled_count;
    row.hot_clients = hot_clients;
    row.queries = hot.queries;
    row.qps = hot.qps;
    row.p50_ms = hot.p50_ms;
    row.p99_ms = hot.p99_ms;
    row.write_stalls = server.Snapshot().write_stalls;
    row.buffered_peak = server.Snapshot().bytes_buffered_peak;
    row.frames_reused = server.Snapshot().frames_reused;
    std::printf("%-10u %-10u %-12.1f %-12.3f %-12.3f %-14llu %-14llu\n",
                row.stalled, row.hot_clients, row.qps, row.p50_ms,
                row.p99_ms, static_cast<unsigned long long>(row.write_stalls),
                static_cast<unsigned long long>(row.buffered_peak));
    rows->push_back(row);

    // Drain the parked tails so shutdown closes everything cleanly.
    for (auto& channel : stalled) {
      channel->Receive().status();  // value unused
      channel->Close();
    }
    server.Shutdown();
  }
}

void PrintSlowReaderJson(const std::string& query,
                         const std::vector<SlowReaderRow>& rows) {
  std::printf(
      "BENCH_JSON {\"bench\":\"rpc_slow_reader\",\"query\":\"%s\","
      "\"scale\":%.3f,\"rows\":[",
      query.c_str(), BenchScale());
  for (size_t i = 0; i < rows.size(); ++i) {
    const SlowReaderRow& r = rows[i];
    std::printf(
        "%s{\"stalled\":%u,\"hot_clients\":%u,\"queries\":%llu,"
        "\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"write_stalls\":%llu,\"buffered_peak\":%llu,"
        "\"frames_reused\":%llu}",
        i == 0 ? "" : ",", r.stalled, r.hot_clients,
        static_cast<unsigned long long>(r.queries), r.qps, r.p50_ms,
        r.p99_ms, static_cast<unsigned long long>(r.write_stalls),
        static_cast<unsigned long long>(r.buffered_peak),
        static_cast<unsigned long long>(r.frames_reused));
  }
  std::printf("]}\n");
}

// --- sharded-dispatch contention (tiny ops) ---------------------------------

struct DispatchRow {
  std::string poller;
  uint32_t conns = 0;  // idle herd + hot clients
  uint32_t hot_clients = 0;
  uint64_t ops = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t queue_depth_peak = 0;
};

void RunDispatchContention(BenchDb* db, std::vector<DispatchRow>* rows) {
  const uint64_t fd_cap = RaiseFdLimit();
  const uint32_t per_client = 64;  // tiny ops: dispatch cost dominates
  struct Cell {
    uint32_t conns;
    uint32_t hot;
  };
  for (Cell cell : {Cell{64, 8}, Cell{1024, 32}}) {
    if (2 * cell.conns + 128 > fd_cap) {
      std::printf("(skipping %u connections: fd limit %llu)\n", cell.conns,
                  static_cast<unsigned long long>(fd_cap));
      continue;
    }
    std::string path =
        "/tmp/ssdb_bench_dc_" + std::to_string(::getpid()) + ".sock";
    auto listener = *rpc::UnixServerSocket::Listen(path);
    rpc::ConcurrentServerOptions options;
    rpc::ConcurrentServer server(db->db->ring(), db->db->server_filter(),
                                 std::move(listener), options);
    SSDB_CHECK_OK(server.Start());

    const uint32_t idle = cell.conns - cell.hot;
    std::vector<std::unique_ptr<rpc::Channel>> idle_conns;
    idle_conns.reserve(idle);
    while (idle_conns.size() < idle) {
      auto channel = rpc::ConnectUnix(path);
      if (!channel.ok()) {  // listen backlog full; let accept drain it
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      idle_conns.push_back(std::move(*channel));
    }
    while (server.Snapshot().open_connections < idle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::vector<std::vector<double>> latencies(cell.hot);
    Stopwatch wall;
    std::vector<std::thread> threads;
    threads.reserve(cell.hot);
    for (uint32_t c = 0; c < cell.hot; ++c) {
      threads.emplace_back([db, &path, &latencies, per_client, c] {
        rpc::RemoteServerFilter remote(db->db->ring(),
                                       *rpc::ConnectUnix(path));
        latencies[c].reserve(per_client);
        for (uint32_t i = 0; i < per_client; ++i) {
          Stopwatch one;
          SSDB_CHECK(remote.EvalAt(2, 5).ok());
          latencies[c].push_back(one.ElapsedSeconds());
        }
        SSDB_CHECK_OK(remote.Shutdown());
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double wall_s = wall.ElapsedSeconds();

    std::vector<double> all;
    for (const auto& per_thread : latencies) {
      all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
    std::sort(all.begin(), all.end());
    DispatchRow row;
    row.poller = server.poller_name();
    row.conns = cell.conns;
    row.hot_clients = cell.hot;
    row.ops = all.size();
    row.qps = wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0;
    row.p50_ms = all[all.size() / 2] * 1e3;
    row.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)] * 1e3;
    row.queue_depth_peak = server.Snapshot().queue_depth_peak;
    std::printf("%-8s %-10u %-10u %-12.1f %-12.3f %-12.3f %-12llu\n",
                row.poller.c_str(), row.conns, row.hot_clients, row.qps,
                row.p50_ms, row.p99_ms,
                static_cast<unsigned long long>(row.queue_depth_peak));
    rows->push_back(row);

    idle_conns.clear();
    server.Shutdown();
  }
}

void PrintDispatchJson(const std::vector<DispatchRow>& rows) {
  std::printf(
      "BENCH_JSON {\"bench\":\"rpc_dispatch\",\"op\":\"eval_at\","
      "\"scale\":%.3f,\"rows\":[",
      BenchScale());
  for (size_t i = 0; i < rows.size(); ++i) {
    const DispatchRow& r = rows[i];
    std::printf(
        "%s{\"poller\":\"%s\",\"conns\":%u,\"hot_clients\":%u,"
        "\"ops\":%llu,\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"queue_depth_peak\":%llu}",
        i == 0 ? "" : ",", r.poller.c_str(), r.conns, r.hot_clients,
        static_cast<unsigned long long>(r.ops), r.qps, r.p50_ms, r.p99_ms,
        static_cast<unsigned long long>(r.queue_depth_peak));
  }
  std::printf("]}\n");
}

// --- health-probe overhead (DESIGN.md §11) ----------------------------------

struct ProbeOverheadRow {
  std::string monitor;  // "off" or "on"
  uint32_t hot_clients = 0;
  uint64_t queries = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t probes = 0;  // kPing round trips sent during the measurement
};

void RunProbeOverhead(BenchDb* db, const std::string& query,
                      std::vector<ProbeOverheadRow>* rows) {
  const uint32_t hot_clients = 4;
  const uint32_t per_client = 8;
  // Probe far more often than any deployment would (the tools default to
  // 1000ms) so a per-probe cost would actually show up in the hot qps.
  const int probe_interval_ms = 5;

  for (bool monitored : {false, true}) {
    std::string path =
        "/tmp/ssdb_bench_po_" + std::to_string(::getpid()) + ".sock";
    auto listener = *rpc::UnixServerSocket::Listen(path);
    rpc::ConcurrentServer server(db->db->ring(), db->db->server_filter(),
                                 std::move(listener),
                                 rpc::ConcurrentServerOptions{});
    SSDB_CHECK_OK(server.Start());

    control::MonitorOptions options;
    options.probe_interval_ms = probe_interval_ms;
    control::Monitor monitor({{"bench", path}}, std::move(options));
    if (monitored) monitor.Start();

    ClientScalingRow hot =
        RunMultiClientCell(db, {path}, hot_clients, per_client, query);
    if (monitored) monitor.Stop();

    ProbeOverheadRow row;
    row.monitor = monitored ? "on" : "off";
    row.hot_clients = hot_clients;
    row.queries = hot.queries;
    row.qps = hot.qps;
    row.p50_ms = hot.p50_ms;
    row.p99_ms = hot.p99_ms;
    row.probes = monitored ? monitor.Snapshot()[0].probes : 0;
    std::printf("%-8s %-10u %-12.1f %-12.3f %-12.3f %-10llu\n",
                row.monitor.c_str(), row.hot_clients, row.qps, row.p50_ms,
                row.p99_ms, static_cast<unsigned long long>(row.probes));
    rows->push_back(row);

    server.Shutdown();
  }
}

void PrintProbeOverheadJson(const std::string& query,
                            const std::vector<ProbeOverheadRow>& rows) {
  std::printf(
      "BENCH_JSON {\"bench\":\"rpc_probe_overhead\",\"query\":\"%s\","
      "\"scale\":%.3f,\"rows\":[",
      query.c_str(), BenchScale());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ProbeOverheadRow& r = rows[i];
    std::printf(
        "%s{\"monitor\":\"%s\",\"hot_clients\":%u,\"queries\":%llu,"
        "\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"probes\":%llu}",
        i == 0 ? "" : ",", r.monitor.c_str(), r.hot_clients,
        static_cast<unsigned long long>(r.queries), r.qps, r.p50_ms,
        r.p99_ms, static_cast<unsigned long long>(r.probes));
  }
  std::printf("]}\n");
}

Measurement RunMultiServer(uint64_t target_bytes, uint32_t servers,
                           const std::string& query) {
  auto db = BuildXmarkDb(target_bytes, 42, servers);
  SliceServers slice_servers(db.get(), servers);
  auto session =
      *rpc::MultiServerSession::ConnectUnix(db->db->ring(),
                                            slice_servers.paths);
  Measurement m = RunWith(db.get(), session->filter(), query);
  m.transport = "rpc/" + std::to_string(servers) + "-server";
  m.servers = servers;
  m.bytes = session->bytes_on_wire();
  m.has_bytes = true;
  SSDB_CHECK_OK(session->Shutdown());
  slice_servers.Join();
  return m;
}

void Run(int argc, char** argv) {
  tools::FlagSet flags("bench_rpc", "[--servers m]");
  const uint32_t* servers_flag =
      flags.Uint("servers", 0, "run only the m-server RPC row (0 = all)");
  SSDB_CHECK_OK(flags.Parse(argc, argv));
  uint32_t only_servers = *servers_flag;
  double scale = BenchScale();
  uint64_t target_bytes = static_cast<uint64_t>(scale * (512 << 10));
  auto db = BuildXmarkDb(target_bytes);
  const std::string query = "/site/*/person//city";
  std::vector<Measurement> rows;

  PrintHeader("Ablation A3: transport overhead for " + query);
  std::printf("%-22s %-12s %-14s %-14s %-14s %-12s %-10s\n", "transport",
              "time(ms)", "round-trips", "batched-evals", "candidates",
              "bytes", "results");

  // (a) Local, no RPC.
  Measurement local = RunWith(db.get(), db->db->server_filter(), query);
  local.transport = "local";
  PrintRow(local);
  rows.push_back(local);

  // (b) In-process channel.
  {
    rpc::ChannelPair pair = rpc::CreateInProcessChannelPair();
    rpc::ServerThread server_thread(db->db->ring(), db->db->server_filter(),
                                    std::move(pair.server));
    rpc::RemoteServerFilter remote(db->db->ring(), std::move(pair.client));
    Measurement m = RunWith(db.get(), &remote, query);
    m.transport = "rpc/in-process";
    m.bytes = remote.channel().bytes_sent() + remote.channel().bytes_received();
    m.has_bytes = true;
    PrintRow(m);
    rows.push_back(m);
  }

  // (c) Unix-domain socket, single server.
  {
    std::string path =
        "/tmp/ssdb_bench_rpc_" + std::to_string(::getpid()) + ".sock";
    auto listener = *rpc::UnixServerSocket::Listen(path);
    std::thread server_thread([&] {
      auto channel = listener->Accept();
      if (!channel.ok()) return;
      rpc::RpcServer server(db->db->ring(), db->db->server_filter());
      server.Serve(channel->get());
    });
    auto channel = *rpc::ConnectUnix(path);
    rpc::RemoteServerFilter remote(db->db->ring(), std::move(channel));
    Measurement m = RunWith(db.get(), &remote, query);
    m.transport = "rpc/unix-socket";
    m.bytes = remote.channel().bytes_sent() + remote.channel().bytes_received();
    m.has_bytes = true;
    PrintRow(m);
    rows.push_back(m);
    SSDB_CHECK_OK(remote.Shutdown());
    server_thread.join();
  }

  // (d) m-server share fan-out over m sockets (DESIGN.md §5). Round trips
  // must not grow with m: fan-out is concurrent, so each query step still
  // costs one step of latency and the counter reports the straggler.
  for (uint32_t servers : {1u, 2u, 4u}) {
    if (only_servers != 0 && servers != only_servers) continue;
    Measurement m = RunMultiServer(target_bytes, servers, query);
    PrintRow(m);
    rows.push_back(m);
  }

  std::printf(
      "\nAll transports must return identical result sets; the deltas are\n"
      "pure communication cost (the paper's RMI hop). With the batched\n"
      "pipeline, round trips track query steps x tree depth, not the number\n"
      "of candidates examined; with m-server fan-out they stay equal to the\n"
      "single-server case while total bytes scale with m.\n\n");
  PrintJson(query, rows);

  // --- multi-client scaling against the concurrent server (DESIGN.md §7).
  // Same database, same query; only the number of concurrent connections
  // changes. Every client runs `per_client` queries over its own socket.
  PrintHeader("Multi-client throughput for " + query);
  std::printf("%-10s %-10s %-10s %-12s %-12s %-12s %-12s\n", "servers",
              "clients", "queries", "wall(s)", "queries/s", "p50(ms)",
              "p99(ms)");
  const uint32_t per_client = 8;
  std::vector<ClientScalingRow> scaling_rows;
  std::unique_ptr<BenchDb> db2;
  for (uint32_t servers : {1u, 2u}) {
    if (only_servers != 0 && servers != only_servers) continue;
    BenchDb* cell_db = db.get();
    if (servers > 1) {
      if (db2 == nullptr) db2 = BuildXmarkDb(target_bytes, 42, servers);
      cell_db = db2.get();
    }
    ConcurrentSliceServers slice_servers(cell_db, servers);
    for (uint32_t clients : {1u, 4u, 16u}) {
      ClientScalingRow row = RunMultiClientCell(
          cell_db, slice_servers.paths, clients, per_client, query);
      std::printf("%-10u %-10u %-10llu %-12.3f %-12.1f %-12.3f %-12.3f\n",
                  row.servers, row.clients,
                  static_cast<unsigned long long>(row.queries), row.wall_s,
                  row.qps, row.p50_ms, row.p99_ms);
      scaling_rows.push_back(row);
    }
    slice_servers.Shutdown();
  }
  std::printf(
      "\nAll cells share one worker pool per server (hardware concurrency\n"
      "threads); throughput should grow with concurrent clients until the\n"
      "pool saturates, while p50 stays near the single-client latency.\n\n");
  PrintClientScalingJson(query, scaling_rows);

  // --- high-connection dispatch cost (DESIGN.md §7). The same
  // hot workload with a growing herd of idle connections parked on the
  // server; only the dispatcher's interest-set handling changes.
  PrintHeader("High-connection dispatch for " + query);
  std::printf("%-8s %-12s %-10s %-12s %-12s %-12s %-10s %-14s\n", "poller",
              "idle-conns", "hot", "queries/s", "p50(ms)", "p99(ms)",
              "wakes", "scanned/wake");
  std::vector<PollerScalingRow> poller_rows;
  RunPollerScaling(db.get(), query, &poller_rows);
  std::printf(
      "\nscanned/wake is the dispatcher's per-wake cost: O(ready events)\n"
      "under the incremental epoll interest set, so it should stay flat\n"
      "as idle connections grow.\n\n");
  PrintPollerScalingJson(query, poller_rows);

  // --- slow-reader resilience (DESIGN.md §7). K stalled readers hold
  // unread response tails on the server while hot clients run the same
  // query workload; the buffered write path means hot throughput should
  // not care about K.
  PrintHeader("Slow-reader resilience for " + query);
  std::printf("%-10s %-10s %-12s %-12s %-12s %-14s %-14s\n", "stalled",
              "hot", "queries/s", "p50(ms)", "p99(ms)", "write-stalls",
              "buffered-peak");
  std::vector<SlowReaderRow> slow_reader_rows;
  RunSlowReader(db.get(), query, &slow_reader_rows);
  std::printf(
      "\nStalled readers park their response tails on the session (the\n"
      "EPOLLOUT buffered write path) instead of a worker, so hot qps at\n"
      "K >= 4 should sit within noise of the K = 0 row. write-stalls and\n"
      "buffered-peak confirm the buffering actually engaged.\n\n");
  PrintSlowReaderJson(query, slow_reader_rows);

  // --- sharded-dispatch contention. Tiny ops make the per-request
  // dispatch (poller wake -> shard lookup -> worker queue -> rearm) the
  // dominant cost; an idle herd grows the interest set around it.
  PrintHeader("Sharded-dispatch contention (EvalAt ops)");
  std::printf("%-8s %-10s %-10s %-12s %-12s %-12s %-12s\n", "poller",
              "conns", "hot", "ops/s", "p50(ms)", "p99(ms)", "queue-peak");
  std::vector<DispatchRow> dispatch_rows;
  RunDispatchContention(db.get(), &dispatch_rows);
  std::printf(
      "\nPer-worker ready-queues (notify_one) and the sharded session\n"
      "table keep dispatch contention flat as hot clients grow; queue-peak\n"
      "is the deepest any single worker's queue got.\n\n");
  PrintDispatchJson(dispatch_rows);

  // --- health-probe overhead (DESIGN.md §11). The monitor's kPing sweeps
  // ride the same transport as queries but skip the filter entirely; an
  // aggressive probe cadence must not tax the hot path.
  PrintHeader("Health-probe overhead for " + query);
  std::printf("%-8s %-10s %-12s %-12s %-12s %-10s\n", "monitor", "hot",
              "queries/s", "p50(ms)", "p99(ms)", "probes");
  std::vector<ProbeOverheadRow> probe_rows;
  RunProbeOverhead(db.get(), query, &probe_rows);
  std::printf(
      "\nkPing is answered before the dispatcher consults the filter, so\n"
      "the monitor-on row should sit within noise of monitor-off even at\n"
      "a probe cadence 200x the tools' default.\n\n");
  PrintProbeOverheadJson(query, probe_rows);
}

}  // namespace
}  // namespace ssdb::bench

int main(int argc, char** argv) {
  ssdb::bench::Run(argc, argv);
  return 0;
}
