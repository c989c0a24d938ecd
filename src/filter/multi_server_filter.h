/// MultiServerFilter (DESIGN.md §5): presents m share-slice servers as one
/// ServerFilter. Share operations (EvalAt*, EvalGrid, FetchShare*) fan out
/// to every backend **concurrently** — one persistent worker thread per
/// extra backend, the primary served on the calling thread — and the
/// replies are summed (field sum for evaluations, ring sum for shares), which
/// reconstructs the single-server answer because the additive split
/// commutes with evaluation. Structure operations (the skeleton,
/// navigation, cursors, sealed payloads) go to the primary (backend 0)
/// alone: pre/post/parent are replicated to every slice store, so any
/// backend could serve them, and asking one keeps them a single round trip.
///
/// Round-trip accounting uses straggler semantics: a concurrent fan-out
/// costs one step of latency, so RoundTrips() advances by the *maximum*
/// per-backend delta, making an m-server query step cost exactly as many
/// round trips as the m = 1 case. PerServerRoundTrips() exposes the raw
/// per-backend counters and StragglerSeconds() the wall time spent waiting
/// on the slowest backend.
///
/// With a single backend every call delegates directly (no threads), so the
/// m = 1 path is byte-identical to using the backend alone.
///
/// Thread safety: calls serialize on an internal mutex (the per-backend
/// worker slots and the accounting below are per-filter state), so the
/// filter may be shared by concurrent callers — a shard router fanning
/// corpus queries out across documents, stats readers — without corrupting
/// counters or job slots; within a call the backends still run in parallel.
/// The counters themselves are atomic, so RoundTrips()/StragglerSeconds()
/// can be read while a call is in flight.

#ifndef SSDB_FILTER_MULTI_SERVER_FILTER_H_
#define SSDB_FILTER_MULTI_SERVER_FILTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "control/health.h"
#include "filter/server_filter.h"
#include "gf/ring.h"
#include "util/statusor.h"

namespace ssdb::filter {

class MultiServerFilter : public ServerFilter {
 public:
  // `backends` must be non-empty and outlive the filter; backend i must
  // serve share slice i of the same encoded document. Backends are driven
  // from separate threads during fan-out, so each must be independently
  // usable (distinct channels / stores).
  MultiServerFilter(gf::Ring ring, std::vector<ServerFilter*> backends);
  ~MultiServerFilter() override;

  // --- Structure (primary only) ---
  StatusOr<NodeMeta> Root() override;
  StatusOr<NodeMeta> GetNode(uint32_t pre) override;
  StatusOr<std::vector<NodeMeta>> Children(uint32_t pre) override;
  StatusOr<std::vector<std::vector<NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) override;
  // The set-at-a-time structure reads tag a failure "server 0:".
  StatusOr<std::vector<NodeMeta>> DescendantsBatch(
      const std::vector<NodeMeta>& roots,
      uint32_t resume_after) override;
  StatusOr<std::vector<NodeMeta>> NodesBatch(
      const std::vector<uint32_t>& pres) override;
  // The skeleton (DESIGN.md §6) is replicated on every slice; the primary
  // serves it and a failure is tagged "server 0:".
  StatusOr<SkeletonPage> Skeleton(uint32_t after_pre) override;
  // The primary's version; the skeleton comes from the primary too.
  StatusOr<uint64_t> CommittedVersion() override;
  // Every backend stamps its value requests (DESIGN.md §12).
  void StampVersion(uint64_t version) override;
  // True when every backend stamps its requests.
  bool StampsRequests() const override;
  StatusOr<uint64_t> OpenDescendantCursor(uint32_t pre,
                                          uint32_t post) override;
  StatusOr<std::vector<NodeMeta>> NextNodes(uint64_t cursor,
                                            size_t max_batch) override;
  Status CloseCursor(uint64_t cursor) override;
  StatusOr<std::string> FetchSealed(uint32_t pre) override;
  StatusOr<std::vector<std::string>> FetchSealedBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> NodeCount() override;
  // Column blobs live on slice 0 alongside the sealed payloads; the mutation
  // planner unmasks them with the other slices' PRG streams (DESIGN.md §12).
  StatusOr<std::vector<storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) override;

  // --- Mutations (concurrent fan-out, DESIGN.md §12) ---
  // One MutationState per backend, in slice order; failures carry
  // "server i:" blame like verified aggregation.
  StatusOr<std::vector<storage::MutationState>> MutationStates() override;
  // plans[i] goes to backend i; plans.size() must equal ServerCount().
  Status PrepareMutation(
      uint64_t txn,
      const std::vector<storage::MutationPlan>& plans) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;

  // --- Shares (concurrent fan-out, replies summed) ---
  // Aggregate partials sum in Z_{2^32} across slices exactly like share
  // evaluations sum in F_q (DESIGN.md §8).
  StatusOr<std::vector<agg::Word>> PartialAggregate(
      const agg::Spec& spec) override;
  // Verified partials are NOT summed here: the client needs each server's
  // words separately to attribute a bad slice (DESIGN.md §9). Backend i's
  // entries land at position i of the result, and a failing backend's error
  // is tagged "server i:" so transport faults carry blame too.
  StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      const agg::Spec& spec) override;
  StatusOr<gf::Elem> EvalAt(uint32_t pre, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<gf::Elem>& points) override;
  StatusOr<std::vector<gf::Elem>> EvalGrid(
      const std::vector<uint32_t>& pres,
      const std::vector<gf::Elem>& points) override;
  StatusOr<gf::RingElem> FetchShare(uint32_t pre) override;
  StatusOr<std::vector<gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) override;

  uint64_t RoundTrips() const override {
    return round_trips_.load(std::memory_order_relaxed);
  }
  size_t ServerCount() const override { return backends_.size(); }
  std::vector<uint64_t> PerServerRoundTrips() const override;
  double StragglerSeconds() const override {
    return straggler_seconds_.load(std::memory_order_relaxed);
  }

  size_t server_count() const { return backends_.size(); }
  ServerFilter* backend(size_t i) { return backends_[i]; }

  // Degraded-mode failover (DESIGN.md §11): consult `health` before every
  // call and fail fast with Unavailable — naming the backend — when an
  // endpoint is kDown, instead of eating a connect/io timeout per query.
  // `endpoints[i]` is backend i's endpoint (the catalog slice string);
  // missing entries are never failed fast. `health` must outlive the
  // filter; call before sharing the filter across threads.
  void SetEndpointHealth(const control::HealthView* health,
                         std::vector<std::string> endpoints);

 private:
  // A persistent worker pinned to one extra backend: fan-out dispatches a
  // job per call instead of paying thread creation per round trip.
  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::function<void()> job;  // empty when idle
    bool exit = false;
  };

  // Runs fn(i) for every backend — concurrently when there is more than
  // one — then advances round_trips_ by the straggler's delta and
  // straggler_seconds_ by the fan-out's wall time. fn must only touch
  // backend i.
  Status FanOut(const std::function<Status(size_t)>& fn);
  // Primary-only call with the same round-trip accounting.
  Status Primary(const std::function<Status()>& fn);
  // Unavailable naming the first kDown backend among [first, limit), or OK.
  Status CheckHealth(size_t first, size_t limit) const;

  gf::Ring ring_;
  std::vector<ServerFilter*> backends_;
  const control::HealthView* health_ = nullptr;
  std::vector<std::string> endpoints_;
  std::vector<std::unique_ptr<Worker>> workers_;  // backends_[i + 1] each

  // Serializes FanOut/Primary: the worker job slots hold one job each, and
  // the before/after round-trip deltas only make sense call-at-a-time.
  std::mutex call_mu_;
  // Atomic so concurrent stats readers see torn-free values while a call
  // is in flight; read-modify-writes happen under call_mu_.
  std::atomic<uint64_t> round_trips_{0};
  std::atomic<double> straggler_seconds_{0};
};

}  // namespace ssdb::filter

#endif  // SSDB_FILTER_MULTI_SERVER_FILTER_H_
