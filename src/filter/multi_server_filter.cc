#include "filter/multi_server_filter.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace ssdb::filter {

namespace {

// Counts outstanding fan-out jobs for one call (std::latch is C++20).
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_;
};

// Tags a failed backend's status with its slice index, so the caller sees
// which server a transport or shape fault came from.
Status Blame(size_t i, const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(),
                "server " + std::to_string(i) + ": " + status.message());
}

}  // namespace

MultiServerFilter::MultiServerFilter(gf::Ring ring,
                                     std::vector<ServerFilter*> backends)
    : ring_(std::move(ring)), backends_(std::move(backends)) {
  SSDB_CHECK(!backends_.empty());
  for (size_t i = 1; i < backends_.size(); ++i) {
    auto worker = std::make_unique<Worker>();
    Worker* raw = worker.get();
    worker->thread = std::thread([raw] {
      std::unique_lock<std::mutex> lock(raw->mu);
      for (;;) {
        raw->cv.wait(lock, [raw] { return raw->exit || raw->job; });
        if (raw->exit) return;
        std::function<void()> job = std::move(raw->job);
        raw->job = nullptr;
        lock.unlock();
        job();
        lock.lock();
      }
    });
    workers_.push_back(std::move(worker));
  }
}

MultiServerFilter::~MultiServerFilter() {
  for (const auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->exit = true;
    }
    worker->cv.notify_one();
  }
  for (const auto& worker : workers_) worker->thread.join();
}

void MultiServerFilter::SetEndpointHealth(const control::HealthView* health,
                                          std::vector<std::string> endpoints) {
  health_ = health;
  endpoints_ = std::move(endpoints);
}

Status MultiServerFilter::CheckHealth(size_t first, size_t limit) const {
  if (health_ == nullptr) return Status::OK();
  limit = std::min(limit, endpoints_.size());
  for (size_t i = first; i < limit; ++i) {
    if (health_->IsDown(endpoints_[i])) {
      return Status::Unavailable("server " + std::to_string(i) + " (" +
                                 endpoints_[i] +
                                 ") is down (health monitor, DESIGN.md §11)");
    }
  }
  return Status::OK();
}

Status MultiServerFilter::FanOut(const std::function<Status(size_t)>& fn) {
  if (backends_.size() == 1) return Primary([&] { return fn(0); });

  // Fail fast before queueing behind call_mu_: a query doomed by a kDown
  // backend must not also wait out whatever call is in flight.
  SSDB_RETURN_IF_ERROR(CheckHealth(0, backends_.size()));

  // One call at a time: the worker job slots are single-entry and the
  // before/after deltas below are call-scoped (header: thread safety).
  std::lock_guard<std::mutex> call_lock(call_mu_);
  std::vector<uint64_t> before(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    before[i] = backends_[i]->RoundTrips();
  }

  Stopwatch watch;
  std::vector<Status> statuses(backends_.size(), Status::OK());
  Latch latch(backends_.size() - 1);
  for (size_t i = 1; i < backends_.size(); ++i) {
    Worker* worker = workers_[i - 1].get();
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->job = [&, i] {
        statuses[i] = fn(i);
        latch.CountDown();
      };
    }
    worker->cv.notify_one();
  }
  statuses[0] = fn(0);
  latch.Wait();
  // Plain load+store is race-free here: every writer holds call_mu_, the
  // atomic only keeps concurrent StragglerSeconds() readers torn-free.
  straggler_seconds_.store(
      straggler_seconds_.load(std::memory_order_relaxed) +
          watch.ElapsedSeconds(),
      std::memory_order_relaxed);

  uint64_t straggler = 0;
  for (size_t i = 0; i < backends_.size(); ++i) {
    straggler = std::max(straggler, backends_[i]->RoundTrips() - before[i]);
  }
  round_trips_.fetch_add(straggler, std::memory_order_relaxed);

  for (const Status& status : statuses) {
    SSDB_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Status MultiServerFilter::Primary(const std::function<Status()>& fn) {
  SSDB_RETURN_IF_ERROR(CheckHealth(0, 1));
  std::lock_guard<std::mutex> call_lock(call_mu_);
  uint64_t before = backends_[0]->RoundTrips();
  Status status = fn();
  round_trips_.fetch_add(backends_[0]->RoundTrips() - before,
                         std::memory_order_relaxed);
  return status;
}

std::vector<uint64_t> MultiServerFilter::PerServerRoundTrips() const {
  std::vector<uint64_t> trips;
  trips.reserve(backends_.size());
  for (const ServerFilter* backend : backends_) {
    trips.push_back(backend->RoundTrips());
  }
  return trips;
}

StatusOr<NodeMeta> MultiServerFilter::Root() {
  StatusOr<NodeMeta> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->Root();
    return out.status();
  }));
  return out;
}

StatusOr<NodeMeta> MultiServerFilter::GetNode(uint32_t pre) {
  StatusOr<NodeMeta> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->GetNode(pre);
    return out.status();
  }));
  return out;
}

StatusOr<std::vector<NodeMeta>> MultiServerFilter::Children(uint32_t pre) {
  StatusOr<std::vector<NodeMeta>> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->Children(pre);
    return out.status();
  }));
  return out;
}

StatusOr<std::vector<std::vector<NodeMeta>>> MultiServerFilter::ChildrenBatch(
    const std::vector<uint32_t>& pres) {
  StatusOr<std::vector<std::vector<NodeMeta>>> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->ChildrenBatch(pres);
    return out.status();
  }));
  return out;
}

StatusOr<std::vector<NodeMeta>> MultiServerFilter::DescendantsBatch(
    const std::vector<NodeMeta>& roots, uint32_t resume_after) {
  StatusOr<std::vector<NodeMeta>> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->DescendantsBatch(roots, resume_after);
    return Blame(0, out.status());
  }));
  return out;
}

StatusOr<std::vector<NodeMeta>> MultiServerFilter::NodesBatch(
    const std::vector<uint32_t>& pres) {
  StatusOr<std::vector<NodeMeta>> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->NodesBatch(pres);
    return Blame(0, out.status());
  }));
  return out;
}

StatusOr<SkeletonPage> MultiServerFilter::Skeleton(uint32_t after_pre) {
  StatusOr<SkeletonPage> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->Skeleton(after_pre);
    return Blame(0, out.status());
  }));
  return out;
}

StatusOr<uint64_t> MultiServerFilter::CommittedVersion() {
  StatusOr<uint64_t> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->CommittedVersion();
    return Blame(0, out.status());
  }));
  return out;
}

void MultiServerFilter::StampVersion(uint64_t version) {
  for (ServerFilter* backend : backends_) backend->StampVersion(version);
}

bool MultiServerFilter::StampsRequests() const {
  return std::all_of(
      backends_.begin(), backends_.end(),
      [](const ServerFilter* backend) { return backend->StampsRequests(); });
}

StatusOr<uint64_t> MultiServerFilter::OpenDescendantCursor(uint32_t pre,
                                                           uint32_t post) {
  StatusOr<uint64_t> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->OpenDescendantCursor(pre, post);
    return out.status();
  }));
  return out;
}

StatusOr<std::vector<NodeMeta>> MultiServerFilter::NextNodes(
    uint64_t cursor, size_t max_batch) {
  StatusOr<std::vector<NodeMeta>> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->NextNodes(cursor, max_batch);
    return out.status();
  }));
  return out;
}

Status MultiServerFilter::CloseCursor(uint64_t cursor) {
  return Primary([&] { return backends_[0]->CloseCursor(cursor); });
}

StatusOr<std::string> MultiServerFilter::FetchSealed(uint32_t pre) {
  StatusOr<std::string> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->FetchSealed(pre);
    return out.status();
  }));
  return out;
}

StatusOr<std::vector<std::string>> MultiServerFilter::FetchSealedBatch(
    const std::vector<uint32_t>& pres) {
  StatusOr<std::vector<std::string>> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->FetchSealedBatch(pres);
    return out.status();
  }));
  return out;
}

StatusOr<uint64_t> MultiServerFilter::NodeCount() {
  StatusOr<uint64_t> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->NodeCount();
    return out.status();
  }));
  return out;
}

StatusOr<std::vector<storage::ColumnBlobs>>
MultiServerFilter::FetchColumnsBatch(const std::vector<uint32_t>& pres) {
  StatusOr<std::vector<storage::ColumnBlobs>> out = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(Primary([&] {
    out = backends_[0]->FetchColumnsBatch(pres);
    return out.status();
  }));
  return out;
}

StatusOr<std::vector<storage::MutationState>>
MultiServerFilter::MutationStates() {
  std::vector<std::vector<storage::MutationState>> partial(backends_.size());
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    StatusOr<std::vector<storage::MutationState>> reply =
        backends_[i]->MutationStates();
    SSDB_RETURN_IF_ERROR(Blame(i, reply.status()));
    if (reply->size() != 1) {
      return Status::Internal("server " + std::to_string(i) +
                              ": expected one mutation state, got " +
                              std::to_string(reply->size()));
    }
    partial[i] = std::move(*reply);
    return Status::OK();
  }));
  std::vector<storage::MutationState> out;
  out.reserve(backends_.size());
  for (std::vector<storage::MutationState>& states : partial) {
    out.push_back(states[0]);
  }
  return out;
}

Status MultiServerFilter::PrepareMutation(
    uint64_t txn, const std::vector<storage::MutationPlan>& plans) {
  if (plans.size() != backends_.size()) {
    return Status::InvalidArgument(
        "mutation has " + std::to_string(plans.size()) + " plans for " +
        std::to_string(backends_.size()) + " servers");
  }
  // Blame for the coordinator's abort/retry decision (DESIGN.md §12).
  return FanOut([&](size_t i) {
    return Blame(i, backends_[i]->PrepareMutation(txn, {plans[i]}));
  });
}

Status MultiServerFilter::CommitMutation(uint64_t txn) {
  return FanOut(
      [&](size_t i) { return Blame(i, backends_[i]->CommitMutation(txn)); });
}

Status MultiServerFilter::AbortMutation(uint64_t txn) {
  return FanOut(
      [&](size_t i) { return Blame(i, backends_[i]->AbortMutation(txn)); });
}

StatusOr<std::vector<agg::Word>> MultiServerFilter::PartialAggregate(
    const agg::Spec& spec) {
  std::vector<std::vector<agg::Word>> partial(backends_.size());
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    SSDB_ASSIGN_OR_RETURN(partial[i], backends_[i]->PartialAggregate(spec));
    if (partial[i].size() != spec.value_indexes.size()) {
      return Status::Internal("PartialAggregate slice size mismatch");
    }
    return Status::OK();
  }));
  std::vector<agg::Word> sum = std::move(partial[0]);
  for (size_t i = 1; i < partial.size(); ++i) {
    for (size_t j = 0; j < sum.size(); ++j) {
      sum[j] += partial[i][j];
    }
  }
  return sum;
}

StatusOr<std::vector<agg::VerifiedPartial>>
MultiServerFilter::PartialAggregateVerified(const agg::Spec& spec) {
  std::vector<std::vector<agg::VerifiedPartial>> partial(backends_.size());
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    StatusOr<std::vector<agg::VerifiedPartial>> reply =
        backends_[i]->PartialAggregateVerified(spec);
    // Attribution for transport/shape faults: the client sees which
    // server failed without a proof check (DESIGN.md §9).
    SSDB_RETURN_IF_ERROR(Blame(i, reply.status()));
    for (const agg::VerifiedPartial& entry : *reply) {
      if (entry.words.size() != spec.value_indexes.size() ||
          entry.wide.size() != entry.proof.size() ||
          (!entry.wide.empty() &&
           entry.wide.size() != spec.value_indexes.size())) {
        return Status::Corruption("server " + std::to_string(i) +
                                  ": verified partial group count mismatch");
      }
    }
    partial[i] = std::move(*reply);
    return Status::OK();
  }));
  std::vector<agg::VerifiedPartial> out;
  out.reserve(backends_.size());
  for (std::vector<agg::VerifiedPartial>& entries : partial) {
    for (agg::VerifiedPartial& entry : entries) {
      out.push_back(std::move(entry));
    }
  }
  return out;
}

StatusOr<gf::Elem> MultiServerFilter::EvalAt(uint32_t pre, gf::Elem t) {
  std::vector<gf::Elem> partial(backends_.size(), 0);
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    SSDB_ASSIGN_OR_RETURN(partial[i], backends_[i]->EvalAt(pre, t));
    return Status::OK();
  }));
  gf::Elem sum = 0;
  for (gf::Elem value : partial) sum = ring_.field().Add(sum, value);
  return sum;
}

StatusOr<std::vector<gf::Elem>> MultiServerFilter::EvalAtBatch(
    const std::vector<uint32_t>& pres, gf::Elem t) {
  std::vector<std::vector<gf::Elem>> partial(backends_.size());
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    SSDB_ASSIGN_OR_RETURN(partial[i], backends_[i]->EvalAtBatch(pres, t));
    if (partial[i].size() != pres.size()) {
      return Status::Internal("EvalAtBatch slice size mismatch");
    }
    return Status::OK();
  }));
  std::vector<gf::Elem> sum = std::move(partial[0]);
  for (size_t i = 1; i < partial.size(); ++i) {
    for (size_t j = 0; j < sum.size(); ++j) {
      sum[j] = ring_.field().Add(sum[j], partial[i][j]);
    }
  }
  return sum;
}

StatusOr<std::vector<gf::Elem>> MultiServerFilter::EvalPointsBatch(
    uint32_t pre, const std::vector<gf::Elem>& points) {
  std::vector<std::vector<gf::Elem>> partial(backends_.size());
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    SSDB_ASSIGN_OR_RETURN(partial[i],
                          backends_[i]->EvalPointsBatch(pre, points));
    if (partial[i].size() != points.size()) {
      return Status::Internal("EvalPointsBatch slice size mismatch");
    }
    return Status::OK();
  }));
  std::vector<gf::Elem> sum = std::move(partial[0]);
  for (size_t i = 1; i < partial.size(); ++i) {
    for (size_t j = 0; j < sum.size(); ++j) {
      sum[j] = ring_.field().Add(sum[j], partial[i][j]);
    }
  }
  return sum;
}

StatusOr<std::vector<gf::Elem>> MultiServerFilter::EvalGrid(
    const std::vector<uint32_t>& pres, const std::vector<gf::Elem>& points) {
  std::vector<std::vector<gf::Elem>> partial(backends_.size());
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    SSDB_ASSIGN_OR_RETURN(partial[i], backends_[i]->EvalGrid(pres, points));
    if (partial[i].size() != pres.size() * points.size()) {
      return Status::Internal("EvalGrid slice size mismatch");
    }
    return Status::OK();
  }));
  std::vector<gf::Elem> sum = std::move(partial[0]);
  for (size_t i = 1; i < partial.size(); ++i) {
    for (size_t j = 0; j < sum.size(); ++j) {
      sum[j] = ring_.field().Add(sum[j], partial[i][j]);
    }
  }
  return sum;
}

StatusOr<gf::RingElem> MultiServerFilter::FetchShare(uint32_t pre) {
  std::vector<gf::RingElem> partial(backends_.size());
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    SSDB_ASSIGN_OR_RETURN(partial[i], backends_[i]->FetchShare(pre));
    return Status::OK();
  }));
  gf::RingElem sum = std::move(partial[0]);
  for (size_t i = 1; i < partial.size(); ++i) {
    ring_.AddInto(&sum, partial[i]);
  }
  return sum;
}

StatusOr<std::vector<gf::RingElem>> MultiServerFilter::FetchShareBatch(
    const std::vector<uint32_t>& pres) {
  std::vector<std::vector<gf::RingElem>> partial(backends_.size());
  SSDB_RETURN_IF_ERROR(FanOut([&](size_t i) -> Status {
    SSDB_ASSIGN_OR_RETURN(partial[i], backends_[i]->FetchShareBatch(pres));
    if (partial[i].size() != pres.size()) {
      return Status::Internal("FetchShareBatch slice size mismatch");
    }
    return Status::OK();
  }));
  std::vector<gf::RingElem> sum = std::move(partial[0]);
  for (size_t i = 1; i < partial.size(); ++i) {
    for (size_t j = 0; j < sum.size(); ++j) {
      ring_.AddInto(&sum[j], partial[i][j]);
    }
  }
  return sum;
}

}  // namespace ssdb::filter
