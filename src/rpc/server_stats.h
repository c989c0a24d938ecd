/// ServerStats (DESIGN.md §11): one immutable snapshot of a
/// ConcurrentServer's telemetry. Every consumer — the shutdown log, the
/// admin API's /v1/stats endpoint, tests, and benches — reads the same
/// struct from ConcurrentServer::Snapshot(), so a counter added here is
/// automatically visible everywhere a counter can be seen. (Before this,
/// each counter had its own getter and the shutdown printf block was the
/// only serialization — new counters were routinely admin-invisible.)

#ifndef SSDB_RPC_SERVER_STATS_H_
#define SSDB_RPC_SERVER_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ssdb::rpc {

struct ServerStats {
  // Identity / environment.
  std::string build;          // kServerBuild
  std::string poller;         // readiness backend ("epoll")
  size_t threads = 0;         // worker pool size
  uint64_t uptime_seconds = 0;

  // Request plane.
  uint64_t requests_handled = 0;  // well-formed frames dispatched

  // Connection lifecycle.
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t open_connections = 0;
  uint64_t connections_idle_closed = 0;  // subset of closed: idle sweep
  uint64_t write_budget_closed = 0;      // subset of closed: max_write_buffer

  // Data plane (DESIGN.md §7).
  uint64_t write_stalls = 0;        // responses that took the buffered path
  uint64_t bytes_buffered = 0;      // parked on stalled connections now
  uint64_t bytes_buffered_peak = 0;
  uint64_t queue_depth_peak = 0;    // deepest per-worker ready queue
  uint64_t frames_allocated = 0;    // frame pool: fresh buffers
  uint64_t frames_reused = 0;       // frame pool: recycled buffers

  // Poller wake-cost telemetry (rpc/event_poller.h).
  uint64_t poller_wakeups = 0;
  uint64_t poller_items_scanned = 0;

  // Flat JSON object, key per field, parseable by util/json — the
  // /v1/stats response body.
  std::string ToJson() const;

  // The human-readable shutdown log block ("served N connections ...").
  std::string ToText() const;
};

}  // namespace ssdb::rpc

#endif  // SSDB_RPC_SERVER_STATS_H_
