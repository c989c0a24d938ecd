/// EventPoller (DESIGN.md §7): the readiness backend under
/// ConcurrentServer's dispatcher, built on Linux epoll. The server
/// registers each connection once at accept time, disables it while a
/// worker owns the request (one-shot semantics), re-arms it when the
/// worker hands the connection back, and removes it on close — an
/// *incremental* interest set held by the kernel, so the per-wake cost is
/// O(ready events), not O(open connections).
///
/// A registration watches one direction at a time, matching the server's
/// connection state machine: Add/Rearm watch readability (a parked
/// connection waiting for its next request), ArmWrite flips the same
/// registration to writability (a connection whose response overflowed
/// the socket buffer and is draining through the buffered write path).
/// Both are one-shot for connections (EPOLLONESHOT), so exactly one owner
/// acts on each delivered event; re-arm and arm-write are EPOLL_CTL_MOD
/// calls, made straight from worker threads without waking the
/// dispatcher.
///
/// Thread contract: Add/Rearm/ArmWrite/Remove/Wake are safe from any
/// thread; Wait has a single caller (the dispatcher thread). wakeups()
/// and items_scanned() are monotone telemetry — scanned/wake is the
/// wake-cost metric bench_rpc reports.

#ifndef SSDB_RPC_EVENT_POLLER_H_
#define SSDB_RPC_EVENT_POLLER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/statusor.h"

namespace ssdb::rpc {

// One ready file descriptor, identified by the token it was registered
// with (ConcurrentServer uses session ids; 0 is its listener). Hangup and
// error conditions set both flags so the owner discovers them by
// reading or writing, whichever direction it was waiting on.
struct PollerEvent {
  uint64_t token = 0;
  bool readable = false;
  bool writable = false;
};

class EventPoller {
 public:
  static StatusOr<std::unique_ptr<EventPoller>> Make();
  ~EventPoller();

  EventPoller(const EventPoller&) = delete;
  EventPoller& operator=(const EventPoller&) = delete;

  // Registers `fd` for readability with `token` as its identity in
  // delivered events. A `oneshot` fd is disabled after each delivered
  // event and must be Rearm()ed to fire again (the EPOLLONESHOT
  // protocol); a persistent fd (listener) stays armed.
  Status Add(int fd, uint64_t token, bool oneshot);

  // Re-enables a oneshot fd for readability after its event was
  // consumed. If the fd became readable while disabled, the next Wait
  // reports it.
  Status Rearm(int fd, uint64_t token);

  // Flips a oneshot fd's registration to writability: the next Wait
  // reports it once the socket can accept bytes again (immediately, if
  // it already can). The buffered write path (DESIGN.md §7) uses this
  // while a response is draining; when the buffer empties, Rearm
  // switches the registration back to reads.
  Status ArmWrite(int fd, uint64_t token);

  // Deregisters `fd`. Must be called before the fd is closed (a closed
  // fd's slot can be reused by the kernel). Best-effort: unknown fds are
  // ignored.
  Status Remove(int fd);

  // Blocks up to `timeout_ms` (-1 = forever) for events; appends them to
  // `events` (cleared first). Returns the number delivered; 0 on timeout
  // or spurious Wake(). Single-threaded: only the dispatcher calls this.
  StatusOr<size_t> Wait(std::vector<PollerEvent>* events, int timeout_ms);

  // Makes a concurrent/subsequent Wait return early (possibly with zero
  // events). Used for shutdown.
  void Wake();

  const char* name() const { return "epoll"; }
  size_t interest_size() const {
    return interest_.load(std::memory_order_relaxed);
  }

  // Times Wait returned with at least one event or a timeout/wake.
  uint64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }
  // Ready events examined across all wakes; scanned/wake is the dispatch
  // cost bench_rpc tracks as idle connections grow.
  uint64_t items_scanned() const {
    return items_scanned_.load(std::memory_order_relaxed);
  }

 private:
  EventPoller() = default;

  Status Mod(int fd, uint64_t token, uint32_t direction, const char* what);

  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::atomic<size_t> interest_{0};  // excludes the wake pipe
  std::atomic<uint64_t> wakeups_{0};
  std::atomic<uint64_t> items_scanned_{0};
};

}  // namespace ssdb::rpc

#endif  // SSDB_RPC_EVENT_POLLER_H_
