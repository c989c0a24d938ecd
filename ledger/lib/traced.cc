#include "lib/traced.h"

#include <utility>

namespace ssdb::ledger {
namespace {

// Runs fn inside a span of the given layer; `count` is what the call
// carried (pres, rows, messages).
template <typename Fn>
auto Traced(const char* name, Layer layer, uint16_t slice, uint64_t count,
            Fn&& fn) -> decltype(fn()) {
  SpanScope scope(name, layer, slice);
  scope.span().count = count;
  return fn();
}

// A store read that hands rows to a caller callback: the callback's time
// is the filter's work, so it is recorded as callback_ns and excluded from
// the store's self time.
template <typename Result, typename Fn, typename Call>
Result VisitTraced(const char* name, uint16_t slice, const Fn& fn,
                   Call&& call) {
  SpanScope scope(name, Layer::kStore, slice);
  if (!scope.active()) return call(fn);
  Span& span = scope.span();
  return call([&fn, &span](const storage::NodeRow& row) {
    struct Charge {
      Span& span;
      int64_t start;
      ~Charge() {
        span.callback_ns += NowNs() - start;
        ++span.count;
      }
    } charge{span, NowNs()};
    return fn(row);
  });
}

ReplayItem ShareItem(ReplayItem::Kind kind, std::vector<uint32_t> pres,
                     std::vector<gf::Elem> points) {
  ReplayItem item;
  item.kind = kind;
  item.pres = std::move(pres);
  item.points = std::move(points);
  return item;
}

}  // namespace

// --- TracedChannel ----------------------------------------------------------

Status TracedChannel::Send(std::string_view message) {
  SpanScope scope("Send", Layer::kSend, index_);
  uint64_t before = inner_->bytes_sent();
  Status status = inner_->Send(message);
  scope.span().count = 1;
  scope.span().bytes = inner_->bytes_sent() - before;
  return status;
}

StatusOr<std::string> TracedChannel::Receive() {
  SpanScope scope("Receive", Layer::kReceive, index_);
  uint64_t before = inner_->bytes_received();
  StatusOr<std::string> message = inner_->Receive();
  scope.span().count = 1;
  scope.span().bytes = inner_->bytes_received() - before;
  return message;
}

Status TracedChannel::ReceiveInto(std::string* message) {
  SpanScope scope("ReceiveInto", Layer::kReceive, index_);
  uint64_t before = inner_->bytes_received();
  Status status = inner_->ReceiveInto(message);
  scope.span().count = 1;
  scope.span().bytes = inner_->bytes_received() - before;
  return status;
}

StatusOr<size_t> TracedChannel::SendNonBlocking(std::string_view message,
                                                size_t offset) {
  SpanScope scope("SendNonBlocking", Layer::kSend, index_);
  uint64_t before = inner_->bytes_sent();
  StatusOr<size_t> sent = inner_->SendNonBlocking(message, offset);
  scope.span().count = 1;
  scope.span().bytes = inner_->bytes_sent() - before;
  return sent;
}

// --- TracedNodeStore --------------------------------------------------------

Status TracedNodeStore::Insert(const storage::NodeRow& row) {
  return Traced("Insert", Layer::kStore, slice_, 1,
                [&] { return inner_->Insert(row); });
}

StatusOr<storage::NodeRow> TracedNodeStore::GetByPre(uint32_t pre) {
  return Traced("GetByPre", Layer::kStore, slice_, 1,
                [&] { return inner_->GetByPre(pre); });
}

Status TracedNodeStore::VisitByPre(
    uint32_t pre, const std::function<void(const storage::NodeRow&)>& fn) {
  return VisitTraced<Status>("VisitByPre", slice_, fn, [&](auto&& wrapped) {
    return inner_->VisitByPre(pre, wrapped);
  });
}

StatusOr<storage::NodeRow> TracedNodeStore::GetRoot() {
  return Traced("GetRoot", Layer::kStore, slice_, 1,
                [&] { return inner_->GetRoot(); });
}

StatusOr<std::vector<storage::NodeRow>> TracedNodeStore::GetChildren(
    uint32_t parent_pre) {
  SpanScope scope("GetChildren", Layer::kStore, slice_);
  auto rows = inner_->GetChildren(parent_pre);
  if (rows.ok()) scope.span().count = rows->size();
  return rows;
}

Status TracedNodeStore::VisitChildren(
    uint32_t parent_pre,
    const std::function<void(const storage::NodeRow&)>& fn) {
  return VisitTraced<Status>("VisitChildren", slice_, fn, [&](auto&& wrapped) {
    return inner_->VisitChildren(parent_pre, wrapped);
  });
}

Status TracedNodeStore::ScanDescendants(
    uint32_t pre, uint32_t post,
    const std::function<bool(const storage::NodeRow&)>& fn) {
  return VisitTraced<Status>(
      "ScanDescendants", slice_, fn, [&](auto&& wrapped) {
        return inner_->ScanDescendants(pre, post, wrapped);
      });
}

StatusOr<uint64_t> TracedNodeStore::NodeCount() {
  return Traced("NodeCount", Layer::kStore, slice_, 0,
                [&] { return inner_->NodeCount(); });
}

StatusOr<storage::StorageStats> TracedNodeStore::Stats() {
  return inner_->Stats();  // the ledger's own probe, not workload traffic
}

Status TracedNodeStore::Flush() {
  return Traced("Flush", Layer::kStore, slice_, 0,
                [&] { return inner_->Flush(); });
}

StatusOr<storage::ColumnBlobs> TracedNodeStore::GetColumns(uint32_t pre) {
  SpanScope scope("GetColumns", Layer::kColumns, slice_);
  auto blobs = inner_->GetColumns(pre);
  scope.span().count = 1;
  if (blobs.ok()) scope.span().bytes = blobs->agg.size() + blobs->verify.size();
  return blobs;
}

StatusOr<storage::MutationState> TracedNodeStore::GetMutationState() {
  return Traced("GetMutationState", Layer::kStore, slice_, 0,
                [&] { return inner_->GetMutationState(); });
}

Status TracedNodeStore::PrepareMutation(uint64_t txn,
                                        const storage::MutationPlan& plan) {
  return Traced("PrepareMutation", Layer::kPrepare, slice_, 1,
                [&] { return inner_->PrepareMutation(txn, plan); });
}

Status TracedNodeStore::CommitMutation(uint64_t txn) {
  return Traced("CommitMutation", Layer::kCommit, slice_, 1,
                [&] { return inner_->CommitMutation(txn); });
}

Status TracedNodeStore::AbortMutation(uint64_t txn) {
  return Traced("AbortMutation", Layer::kCommit, slice_, 1,
                [&] { return inner_->AbortMutation(txn); });
}

// --- ReplayLog --------------------------------------------------------------

void ReplayLog::Add(ReplayItem item) {
  std::lock_guard<std::mutex> lock(mu_);
  items_.push_back(std::move(item));
}

std::vector<ReplayItem> ReplayLog::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReplayItem> out;
  out.swap(items_);
  return out;
}

// --- TracedServerFilter -----------------------------------------------------

void TracedServerFilter::Replay(ReplayItem item) {
  if (replay_ == nullptr || !SpanLog::Get().enabled()) return;
  item.op = SpanLog::Get().current_op();
  replay_->Add(std::move(item));
}

void TracedServerFilter::ReplayAggregate(const agg::Spec& spec,
                                         bool verified) {
  ReplayItem item;
  item.kind = ReplayItem::Kind::kAggregate;
  item.pres = spec.pres;
  item.columns = spec.columns;
  item.value_indexes = spec.value_indexes;
  item.verified = verified;
  Replay(std::move(item));
}

StatusOr<filter::NodeMeta> TracedServerFilter::Root() {
  return Traced("Root", Layer::kServer, slice_, 1,
                [&] { return inner_->Root(); });
}

StatusOr<filter::NodeMeta> TracedServerFilter::GetNode(uint32_t pre) {
  return Traced("GetNode", Layer::kServer, slice_, 1,
                [&] { return inner_->GetNode(pre); });
}

StatusOr<std::vector<filter::NodeMeta>> TracedServerFilter::Children(
    uint32_t pre) {
  return Traced("Children", Layer::kServer, slice_, 1,
                [&] { return inner_->Children(pre); });
}

StatusOr<std::vector<std::vector<filter::NodeMeta>>>
TracedServerFilter::ChildrenBatch(const std::vector<uint32_t>& pres) {
  return Traced("ChildrenBatch", Layer::kServer, slice_, pres.size(),
                [&] { return inner_->ChildrenBatch(pres); });
}

StatusOr<uint64_t> TracedServerFilter::OpenDescendantCursor(uint32_t pre,
                                                            uint32_t post) {
  return Traced("OpenDescendantCursor", Layer::kServer, slice_, 1,
                [&] { return inner_->OpenDescendantCursor(pre, post); });
}

StatusOr<std::vector<filter::NodeMeta>> TracedServerFilter::NextNodes(
    uint64_t cursor, size_t max_batch) {
  return Traced("NextNodes", Layer::kServer, slice_, 1,
                [&] { return inner_->NextNodes(cursor, max_batch); });
}

Status TracedServerFilter::CloseCursor(uint64_t cursor) {
  return Traced("CloseCursor", Layer::kServer, slice_, 1,
                [&] { return inner_->CloseCursor(cursor); });
}

StatusOr<uint64_t> TracedServerFilter::OpenDescendantCursor(
    filter::SessionId session, uint32_t pre, uint32_t post) {
  return Traced("OpenDescendantCursor", Layer::kServer, slice_, 1, [&] {
    return inner_->OpenDescendantCursor(session, pre, post);
  });
}

StatusOr<std::vector<filter::NodeMeta>> TracedServerFilter::NextNodes(
    filter::SessionId session, uint64_t cursor, size_t max_batch) {
  return Traced("NextNodes", Layer::kServer, slice_, 1, [&] {
    return inner_->NextNodes(session, cursor, max_batch);
  });
}

Status TracedServerFilter::CloseCursor(filter::SessionId session,
                                       uint64_t cursor) {
  return Traced("CloseCursor", Layer::kServer, slice_, 1,
                [&] { return inner_->CloseCursor(session, cursor); });
}

StatusOr<gf::Elem> TracedServerFilter::EvalAt(uint32_t pre, gf::Elem t) {
  Replay(ShareItem(ReplayItem::Kind::kEval, {pre}, {t}));
  return Traced("EvalAt", Layer::kServer, slice_, 1,
                [&] { return inner_->EvalAt(pre, t); });
}

StatusOr<std::vector<gf::Elem>> TracedServerFilter::EvalAtBatch(
    const std::vector<uint32_t>& pres, gf::Elem t) {
  Replay(ShareItem(ReplayItem::Kind::kEval, pres, {t}));
  return Traced("EvalAtBatch", Layer::kServer, slice_, pres.size(),
                [&] { return inner_->EvalAtBatch(pres, t); });
}

StatusOr<std::vector<gf::Elem>> TracedServerFilter::EvalPointsBatch(
    uint32_t pre, const std::vector<gf::Elem>& points) {
  Replay(ShareItem(ReplayItem::Kind::kPoints, {pre}, points));
  return Traced("EvalPointsBatch", Layer::kServer, slice_, points.size(),
                [&] { return inner_->EvalPointsBatch(pre, points); });
}

StatusOr<gf::RingElem> TracedServerFilter::FetchShare(uint32_t pre) {
  Replay(ShareItem(ReplayItem::Kind::kShares, {pre}, {}));
  return Traced("FetchShare", Layer::kServer, slice_, 1,
                [&] { return inner_->FetchShare(pre); });
}

StatusOr<std::vector<gf::RingElem>> TracedServerFilter::FetchShareBatch(
    const std::vector<uint32_t>& pres) {
  Replay(ShareItem(ReplayItem::Kind::kShares, pres, {}));
  return Traced("FetchShareBatch", Layer::kServer, slice_, pres.size(),
                [&] { return inner_->FetchShareBatch(pres); });
}

StatusOr<std::vector<agg::Word>> TracedServerFilter::PartialAggregate(
    const agg::Spec& spec) {
  ReplayAggregate(spec, false);
  SpanScope scope("PartialAggregate", Layer::kServer, slice_);
  scope.span().aggregate = true;
  scope.span().count = spec.pres.size();
  return inner_->PartialAggregate(spec);
}

StatusOr<std::vector<agg::Word>> TracedServerFilter::PartialAggregate(
    filter::SessionId session, const agg::Spec& spec) {
  ReplayAggregate(spec, false);
  SpanScope scope("PartialAggregate", Layer::kServer, slice_);
  scope.span().aggregate = true;
  scope.span().count = spec.pres.size();
  return inner_->PartialAggregate(session, spec);
}

StatusOr<std::vector<agg::VerifiedPartial>>
TracedServerFilter::PartialAggregateVerified(const agg::Spec& spec) {
  ReplayAggregate(spec, true);
  SpanScope scope("PartialAggregateVerified", Layer::kServer, slice_);
  scope.span().aggregate = true;
  scope.span().count = spec.pres.size();
  return inner_->PartialAggregateVerified(spec);
}

StatusOr<std::vector<agg::VerifiedPartial>>
TracedServerFilter::PartialAggregateVerified(filter::SessionId session,
                                             const agg::Spec& spec) {
  ReplayAggregate(spec, true);
  SpanScope scope("PartialAggregateVerified", Layer::kServer, slice_);
  scope.span().aggregate = true;
  scope.span().count = spec.pres.size();
  return inner_->PartialAggregateVerified(session, spec);
}

StatusOr<std::string> TracedServerFilter::FetchSealed(uint32_t pre) {
  return Traced("FetchSealed", Layer::kServer, slice_, 1,
                [&] { return inner_->FetchSealed(pre); });
}

StatusOr<std::vector<storage::MutationState>>
TracedServerFilter::MutationStates() {
  return Traced("MutationStates", Layer::kServer, slice_, 1,
                [&] { return inner_->MutationStates(); });
}

Status TracedServerFilter::PrepareMutation(
    uint64_t txn, const std::vector<storage::MutationPlan>& plans) {
  return Traced("PrepareMutation", Layer::kServer, slice_, plans.size(),
                [&] { return inner_->PrepareMutation(txn, plans); });
}

Status TracedServerFilter::CommitMutation(uint64_t txn) {
  return Traced("CommitMutation", Layer::kServer, slice_, 1,
                [&] { return inner_->CommitMutation(txn); });
}

Status TracedServerFilter::AbortMutation(uint64_t txn) {
  return Traced("AbortMutation", Layer::kServer, slice_, 1,
                [&] { return inner_->AbortMutation(txn); });
}

StatusOr<std::vector<storage::ColumnBlobs>>
TracedServerFilter::FetchColumnsBatch(const std::vector<uint32_t>& pres) {
  return Traced("FetchColumnsBatch", Layer::kServer, slice_, pres.size(),
                [&] { return inner_->FetchColumnsBatch(pres); });
}

StatusOr<uint64_t> TracedServerFilter::NodeCount() {
  return Traced("NodeCount", Layer::kServer, slice_, 1,
                [&] { return inner_->NodeCount(); });
}

}  // namespace ssdb::ledger
