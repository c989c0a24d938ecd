#include "rpc/event_poller.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace ssdb::rpc {
namespace {

// Reserved registration identity for the internal wake pipe; never
// surfaced in delivered events. ConcurrentServer tokens are session ids
// and its listener token 0, so the top of the range is safely ours.
constexpr uint64_t kWakeToken = ~uint64_t{0};

constexpr int kMaxEvents = 128;

Status EpollError(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<std::unique_ptr<EventPoller>> EventPoller::Make() {
  auto poller = std::unique_ptr<EventPoller>(new EventPoller());
  poller->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (poller->epoll_fd_ < 0) return EpollError("epoll_create1");
  if (::pipe2(poller->wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    return EpollError("pipe2");
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kWakeToken;
  if (::epoll_ctl(poller->epoll_fd_, EPOLL_CTL_ADD, poller->wake_fds_[0],
                  &event) != 0) {
    return EpollError("epoll_ctl wake pipe");
  }
  return poller;
}

EventPoller::~EventPoller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

Status EventPoller::Add(int fd, uint64_t token, bool oneshot) {
  epoll_event event{};
  event.events = EPOLLIN | (oneshot ? EPOLLONESHOT : 0u);
  event.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    return EpollError("epoll_ctl add");
  }
  interest_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status EventPoller::Rearm(int fd, uint64_t token) {
  // MOD on a consumed EPOLLONESHOT registration re-enables it; if the fd
  // already has data the dispatcher is woken by the kernel, so no
  // user-space wake is needed.
  return Mod(fd, token, EPOLLIN, "epoll_ctl rearm");
}

Status EventPoller::ArmWrite(int fd, uint64_t token) {
  // Same MOD, opposite direction: the kernel fires as soon as the socket
  // drains (or immediately if it already has space), again without a
  // user-space wake.
  return Mod(fd, token, EPOLLOUT, "epoll_ctl arm-write");
}

Status EventPoller::Remove(int fd) {
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    if (errno == ENOENT || errno == EBADF) return Status::OK();
    return EpollError("epoll_ctl del");
  }
  interest_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

StatusOr<size_t> EventPoller::Wait(std::vector<PollerEvent>* events,
                                   int timeout_ms) {
  events->clear();
  epoll_event ready[kMaxEvents];
  int n = ::epoll_wait(epoll_fd_, ready, kMaxEvents, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return static_cast<size_t>(0);
    return EpollError("epoll_wait");
  }
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  items_scanned_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (ready[i].data.u64 == kWakeToken) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
      continue;
    }
    PollerEvent event;
    event.token = ready[i].data.u64;
    // EPOLLERR/EPOLLHUP are delivered regardless of the registered
    // interest; surface them on both directions so the owner's next read
    // or write discovers the condition.
    const uint32_t flags = ready[i].events;
    const bool broken = (flags & (EPOLLERR | EPOLLHUP)) != 0;
    event.readable = (flags & EPOLLIN) != 0 || broken;
    event.writable = (flags & EPOLLOUT) != 0 || broken;
    events->push_back(event);
  }
  return events->size();
}

void EventPoller::Wake() {
  char byte = 'w';
  ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
  (void)ignored;  // a full pipe already guarantees a wakeup
}

Status EventPoller::Mod(int fd, uint64_t token, uint32_t direction,
                        const char* what) {
  epoll_event event{};
  event.events = direction | EPOLLONESHOT;
  event.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    return EpollError(what);
  }
  return Status::OK();
}

}  // namespace ssdb::rpc
