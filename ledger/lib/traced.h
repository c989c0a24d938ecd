// Tracing decorators for the ledger's traced run. Each wraps one layer
// boundary from outside the program and forwards every virtual unchanged,
// recording a span (lib/spans.h) around the call:
//
//   TracedChannel       rpc::Channel on the client (sends, blocked receives)
//   TracedServerFilter  filter::ServerFilter under a slice server
//   TracedNodeStore     storage::NodeStore under that filter
//
// A slice server in the traced run serves
//   TracedServerFilter(LocalServerFilter(ring, TracedNodeStore(store)))
// so the filter's self time is its span minus the store spans inside it.
// Store callbacks (the filter's per-row work during a visit or scan) are
// timed and excluded from the store's self time.
//
// The primary slice of each document also keeps a ReplayLog: the pres,
// points and aggregate specs its share and aggregate requests carried —
// exactly the inputs the client regenerated PRG streams and evaluated ring
// elements for — so those client layers can be replayed and timed on their
// own after the window.

#ifndef SSDB_LEDGER_LIB_TRACED_H_
#define SSDB_LEDGER_LIB_TRACED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "filter/server_filter.h"
#include "lib/spans.h"
#include "rpc/channel.h"
#include "storage/node_store.h"

namespace ssdb::ledger {

class TracedChannel : public rpc::Channel {
 public:
  TracedChannel(std::unique_ptr<rpc::Channel> inner, uint16_t index)
      : inner_(std::move(inner)), index_(index) {}

  Status Send(std::string_view message) override;
  StatusOr<std::string> Receive() override;
  Status ReceiveInto(std::string* message) override;
  void Close() override { inner_->Close(); }
  StatusOr<size_t> SendNonBlocking(std::string_view message,
                                   size_t offset) override;
  size_t SendCompleteOffset(std::string_view message) const override {
    return inner_->SendCompleteOffset(message);
  }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t bytes_received() const override { return inner_->bytes_received(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }
  int PollFd() const override { return inner_->PollFd(); }
  Status SetIoTimeout(int seconds) override {
    return inner_->SetIoTimeout(seconds);
  }
  Status SetSendBufferBytes(int bytes) override {
    return inner_->SetSendBufferBytes(bytes);
  }

 private:
  std::unique_ptr<rpc::Channel> inner_;
  uint16_t index_;
};

class TracedNodeStore : public storage::NodeStore {
 public:
  // `inner` must outlive the decorator.
  TracedNodeStore(storage::NodeStore* inner, uint16_t slice)
      : inner_(inner), slice_(slice) {}

  Status Insert(const storage::NodeRow& row) override;
  StatusOr<storage::NodeRow> GetByPre(uint32_t pre) override;
  Status VisitByPre(
      uint32_t pre,
      const std::function<void(const storage::NodeRow&)>& fn) override;
  StatusOr<storage::NodeRow> GetRoot() override;
  StatusOr<std::vector<storage::NodeRow>> GetChildren(
      uint32_t parent_pre) override;
  Status VisitChildren(
      uint32_t parent_pre,
      const std::function<void(const storage::NodeRow&)>& fn) override;
  Status ScanDescendants(
      uint32_t pre, uint32_t post,
      const std::function<bool(const storage::NodeRow&)>& fn) override;
  StatusOr<uint64_t> NodeCount() override;
  StatusOr<storage::StorageStats> Stats() override;
  Status Flush() override;
  StatusOr<storage::ColumnBlobs> GetColumns(uint32_t pre) override;
  StatusOr<storage::MutationState> GetMutationState() override;
  Status PrepareMutation(uint64_t txn,
                         const storage::MutationPlan& plan) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;

 private:
  storage::NodeStore* inner_;
  uint16_t slice_;
};

// What one share or aggregate request told the primary slice about the
// client's own work for it.
struct ReplayItem {
  enum class Kind : uint8_t {
    kEval,       // EvalAtBatch / EvalAt: one point, many pres
    kPoints,     // EvalPointsBatch: one pre, many points
    kShares,     // FetchShareBatch / FetchShare: full client shares
    kAggregate,  // PartialAggregate*: mask streams per frontier node
  };
  Kind kind = Kind::kEval;
  uint32_t op = 0;
  std::vector<uint32_t> pres;
  std::vector<gf::Elem> points;
  uint8_t columns = 0;                  // kAggregate
  std::vector<uint32_t> value_indexes;  // kAggregate
  bool verified = false;                // kAggregate
};

class ReplayLog {
 public:
  void Add(ReplayItem item);
  std::vector<ReplayItem> Drain();

 private:
  std::mutex mu_;
  std::vector<ReplayItem> items_;
};

class TracedServerFilter : public filter::ServerFilter {
 public:
  // `inner` must be safe for concurrent callers. `replay` (may be null) is
  // filled only while the span log is enabled.
  TracedServerFilter(std::unique_ptr<filter::ServerFilter> inner,
                     uint16_t slice, ReplayLog* replay)
      : inner_(std::move(inner)), slice_(slice), replay_(replay) {}

  StatusOr<filter::NodeMeta> Root() override;
  StatusOr<filter::NodeMeta> GetNode(uint32_t pre) override;
  StatusOr<std::vector<filter::NodeMeta>> Children(uint32_t pre) override;
  StatusOr<std::vector<std::vector<filter::NodeMeta>>> ChildrenBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> OpenDescendantCursor(uint32_t pre,
                                          uint32_t post) override;
  StatusOr<std::vector<filter::NodeMeta>> NextNodes(uint64_t cursor,
                                                    size_t max_batch) override;
  Status CloseCursor(uint64_t cursor) override;
  StatusOr<uint64_t> OpenDescendantCursor(filter::SessionId session,
                                          uint32_t pre,
                                          uint32_t post) override;
  StatusOr<std::vector<filter::NodeMeta>> NextNodes(filter::SessionId session,
                                                    uint64_t cursor,
                                                    size_t max_batch) override;
  Status CloseCursor(filter::SessionId session, uint64_t cursor) override;
  void EndSession(filter::SessionId session) override {
    inner_->EndSession(session);
  }
  uint64_t OpenCursorCount() const override {
    return inner_->OpenCursorCount();
  }
  StatusOr<gf::Elem> EvalAt(uint32_t pre, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalAtBatch(
      const std::vector<uint32_t>& pres, gf::Elem t) override;
  StatusOr<std::vector<gf::Elem>> EvalPointsBatch(
      uint32_t pre, const std::vector<gf::Elem>& points) override;
  StatusOr<gf::RingElem> FetchShare(uint32_t pre) override;
  StatusOr<std::vector<gf::RingElem>> FetchShareBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<std::vector<agg::Word>> PartialAggregate(
      const agg::Spec& spec) override;
  StatusOr<std::vector<agg::Word>> PartialAggregate(
      filter::SessionId session, const agg::Spec& spec) override;
  StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      const agg::Spec& spec) override;
  StatusOr<std::vector<agg::VerifiedPartial>> PartialAggregateVerified(
      filter::SessionId session, const agg::Spec& spec) override;
  StatusOr<std::string> FetchSealed(uint32_t pre) override;
  StatusOr<std::vector<storage::MutationState>> MutationStates() override;
  Status PrepareMutation(
      uint64_t txn, const std::vector<storage::MutationPlan>& plans) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;
  StatusOr<std::vector<storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) override;
  StatusOr<uint64_t> NodeCount() override;
  uint64_t RoundTrips() const override { return inner_->RoundTrips(); }
  size_t ServerCount() const override { return inner_->ServerCount(); }
  std::vector<uint64_t> PerServerRoundTrips() const override {
    return inner_->PerServerRoundTrips();
  }
  double StragglerSeconds() const override {
    return inner_->StragglerSeconds();
  }

 private:
  void Replay(ReplayItem item);
  void ReplayAggregate(const agg::Spec& spec, bool verified);

  std::unique_ptr<filter::ServerFilter> inner_;
  uint16_t slice_;
  ReplayLog* replay_;
};

}  // namespace ssdb::ledger

#endif  // SSDB_LEDGER_LIB_TRACED_H_
