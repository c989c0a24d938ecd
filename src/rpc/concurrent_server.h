/// ConcurrentServer (DESIGN.md §7): the multi-client transport. A
/// dispatcher thread owns the accept loop and an EventPoller interest set
/// of idle connections; a fixed worker pool (--threads, default =
/// hardware concurrency) services one *request* at a time, so many
/// mostly-idle connections share a handful of workers and a slow client
/// never parks a worker on an idle socket (a stalled mid-frame client is
/// bounded by io_timeout_seconds).
///
/// The interest set is *incremental* (rpc/event_poller.h): a connection
/// is registered once at accept, disabled while a worker owns its
/// request (EPOLLONESHOT), re-armed by the worker when the response is
/// out, and deregistered on close — per-wake dispatch cost is O(ready
/// events).
///
/// The data plane never blocks on a peer (DESIGN.md §7):
///
///  - Writes are non-blocking. A worker sends a response inline while the
///    socket has room; on a short write it parks the unsent tail on the
///    session, arms EPOLLOUT interest, and moves on — the dispatcher
///    finishes the flush when the socket drains. A reader that stalls
///    with more than max_write_buffer bytes outstanding is closed, never
///    waited on.
///  - Dispatch is sharded. Each worker owns a private ready-queue fed by
///    the dispatcher round-robin and woken with notify_one, and the
///    session table is split across fd-hashed shards — no global mutex
///    or herd-waking condition variable on the hot path.
///  - Frame buffers are pooled (rpc/frame_pool.h): request and response
///    bytes land in reusable buffers, and header+payload leave in one
///    scatter-gather syscall (rpc/wire.h).
///
/// Overload is survived, not died from: max_connections pauses the accept
/// loop at an fd budget (pending clients wait in the listen backlog),
/// idle_timeout_seconds sweeps connections that have been silent past the
/// per-socket IO timeout — including stalled flushes making no drain
/// progress — and max_write_buffer bounds what a non-reading client can
/// pin in memory.
///
/// Each connection gets a session id that scopes its cursor state in the
/// shared ServerFilter; when a connection dies — cleanly, mid batch, or
/// by sweep/budget — EndSession reclaims everything it left behind.
/// Shutdown() stops accepting, drains in-flight requests, then closes
/// what remains.

#ifndef SSDB_RPC_CONCURRENT_SERVER_H_
#define SSDB_RPC_CONCURRENT_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "filter/server_filter.h"
#include "gf/ring.h"
#include "rpc/event_poller.h"
#include "rpc/frame_pool.h"
#include "rpc/server.h"
#include "rpc/server_stats.h"
#include "rpc/socket_channel.h"
#include "util/statusor.h"

namespace ssdb::rpc {

// Dispatcher wait granularity for the idle sweep: a quarter of the idle
// timeout (sessions are reclaimed within ~1.25x idle_timeout_seconds),
// floored at 50ms and capped at one hour. Computed in 64-bit:
// `seconds * 1000 / 4` in int overflows for timeouts past ~24.8 days and
// the negative result would be handed to the poller as "wait forever",
// silently disabling the sweep. Returns -1 (no timeout) when the sweep is
// off. Exposed for tests.
int IdleSweepWaitMs(int idle_timeout_seconds);

struct ConcurrentServerOptions {
  // Worker pool size; 0 means std::thread::hardware_concurrency().
  size_t threads = 0;
  // Print a line per accepted/closed connection (ssdb_server does).
  bool log_connections = false;
  // Per-socket read timeout (SO_RCVTIMEO) on accepted connections; 0
  // disables. Bounds how long a client that sent a partial frame can park
  // a worker: the blocked Receive errors out and the session is dropped.
  // Idle connections are unaffected (they wait in the poller, not in a
  // worker) unless idle_timeout_seconds also kicks in; a client that
  // stops *reading* never parks a worker at all (buffered write path).
  int io_timeout_seconds = 30;
  // Fd budget: at this many open connections the accept loop pauses
  // (backpressure — pending clients queue in the listen backlog) and
  // resumes as connections close. 0 = unlimited.
  size_t max_connections = 0;
  // Sweep connections that have been idle (armed, no request — or
  // flushing with no drain progress) longer than this, reclaiming their
  // sessions. 0 = never.
  int idle_timeout_seconds = 0;
  // Per-connection cap on response bytes buffered for a peer that is not
  // reading. A send that would leave more than this outstanding closes
  // the connection instead of buffering without bound (--max-write-buffer
  // in ssdb_server). 0 = unlimited.
  size_t max_write_buffer = 16u << 20;
  // Kernel send-buffer size (SO_SNDBUF) for accepted connections; 0
  // keeps the system default. Tests and benches shrink it to force short
  // writes — and thus the buffered write path — with small responses.
  int so_sndbuf = 0;
};

class ConcurrentServer {
 public:
  // `filter` must outlive the server and be safe for concurrent callers
  // (LocalServerFilter is; see filter/server_filter.h).
  ConcurrentServer(gf::Ring ring, filter::ServerFilter* filter,
                   std::unique_ptr<UnixServerSocket> listener,
                   ConcurrentServerOptions options = {});
  ~ConcurrentServer();

  ConcurrentServer(const ConcurrentServer&) = delete;
  ConcurrentServer& operator=(const ConcurrentServer&) = delete;

  // Spawns the dispatcher and the worker pool; returns once accepting.
  Status Start();

  // Installs the shard-catalog tier on the embedded RpcServer (see
  // RpcServer::SetCatalog). Call before Start(). With a null filter this
  // makes a catalog-only server (ssdb_router, DESIGN.md §10).
  void SetCatalog(std::string encoded_catalog,
                  std::map<std::string, std::string> encoded_entries) {
    server_.SetCatalog(std::move(encoded_catalog), std::move(encoded_entries));
  }

  // Graceful drain: stop accepting, finish requests already dispatched to
  // workers, close every remaining connection, join all threads. Safe to
  // call twice; the destructor calls it.
  void Shutdown();

  size_t threads() const { return threads_; }
  const std::string& socket_path() const { return listener_->path(); }

  // One coherent read of every counter the server tracks — connection
  // lifecycle, data-plane telemetry (DESIGN.md §7), frame pool, poller
  // wake costs, request count, uptime. The shutdown log
  // (ServerStats::ToText), the admin /v1/stats endpoint
  // (ServerStats::ToJson), tests, and benches all consume this one
  // struct; there are no per-counter getters.
  ServerStats Snapshot() const;

  // Readiness backend name ("epoll"). (Also in Snapshot(); kept as a
  // getter for startup banners printed before any stats exist.)
  const char* poller_name() const { return "epoll"; }

 private:
  // A connection's lifecycle: kArmed (fd armed for read in the poller) →
  // kReady (queued for its worker, poller registration disabled by
  // oneshot) → kBusy (one worker owns it) → back to kArmed when the
  // response fit the socket, or kFlushing (unsent tail parked on the
  // session, fd armed for write, the *dispatcher* owns it) → kArmed when
  // drained. Exactly one owner at every stage — workers own kBusy, the
  // dispatcher owns everything else — so channel reads and writes never
  // race.
  enum class SessionState { kArmed, kReady, kBusy, kFlushing };

  struct Session {
    uint64_t id = 0;
    std::unique_ptr<Channel> channel;
    int fd = -1;
    // Home worker queue (round-robin at accept).
    size_t worker = 0;
    SessionState state = SessionState::kArmed;
    // Buffered write path: the response whose tail did not fit the
    // socket, the transport offset reached so far, and the offset at
    // which the frame is fully out (SendCompleteOffset).
    std::string out;
    size_t out_offset = 0;
    size_t out_total = 0;
    // The response being flushed answered kShutdown: close once drained.
    bool close_after_flush = false;
    // Last transition into kArmed — or last flush progress — the idle
    // sweep's clock.
    std::chrono::steady_clock::time_point last_armed;
  };

  // Session table shard: fd-hashed map under its own mutex, so accept,
  // dispatch, re-arm, and close on different connections do not contend
  // on one global lock.
  struct SessionShard {
    std::mutex mu;
    std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions;
  };
  static constexpr size_t kSessionShards = 16;

  // Per-worker MPSC ready-queue: the dispatcher pushes, one worker pops;
  // notify_one wakes exactly that worker (no herd).
  struct WorkerQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<uint64_t> ready;
  };

  SessionShard& ShardFor(uint64_t id) {
    return shards_[id & (kSessionShards - 1)];
  }
  static void UpdatePeak(std::atomic<uint64_t>& peak, uint64_t value);

  void PollLoop();
  void WorkerLoop(size_t index);
  // Drains the accept backlog, registering each connection; pauses the
  // listener at the max_connections budget.
  void HandleAccept();
  // Re-plugs the listener after CloseSession frees budget room.
  void MaybeResumeAccept();
  // One non-blocking step of a parked response (dispatcher thread only;
  // the session is in kFlushing, which the dispatcher solely owns).
  void FlushSession(uint64_t id);
  // Closes every connection idle past idle_timeout_seconds.
  void SweepIdle();
  // Removes the session and reclaims its cursors; `why` feeds the log line.
  void CloseSession(uint64_t id, const char* why);

  RpcServer server_;
  filter::ServerFilter* filter_;
  std::unique_ptr<UnixServerSocket> listener_;
  ConcurrentServerOptions options_;
  size_t threads_ = 0;

  std::unique_ptr<EventPoller> poller_;
  FramePool pool_;

  // Lock order (DESIGN.md §7): listener_mu_ → shard mutex → worker-queue
  // mutex → filter cursor mutex → store lock → buffer-pool latch; never
  // held across a channel Receive/Send/flush.
  SessionShard shards_[kSessionShards];
  std::vector<std::unique_ptr<WorkerQueue>> queues_;

  // Guards started_, accept_paused_, and listener poller membership.
  mutable std::mutex listener_mu_;
  bool started_ = false;
  bool accept_paused_ = false;
  std::atomic<bool> stopping_{false};

  // Dispatcher-thread-only accept state (no lock needed).
  uint64_t next_session_id_ = 1;
  size_t next_worker_ = 0;

  std::atomic<size_t> open_count_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> write_stalls_{0};
  std::atomic<uint64_t> bytes_buffered_{0};
  std::atomic<uint64_t> bytes_buffered_peak_{0};
  std::atomic<uint64_t> queue_depth_peak_{0};
  std::atomic<uint64_t> budget_closed_{0};
  std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();

  std::thread poll_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace ssdb::rpc

#endif  // SSDB_RPC_CONCURRENT_SERVER_H_
