#include "rpc/client.h"

#include <algorithm>

#include "rpc/wire.h"
#include "util/varint.h"

namespace ssdb::rpc {

StatusOr<PingInfo> Ping(Channel* channel) {
  Request request;
  request.op = Op::kPing;
  SSDB_RETURN_IF_ERROR(channel->Send(EncodeRequest(request)));
  SSDB_ASSIGN_OR_RETURN(std::string response, channel->Receive());
  SSDB_ASSIGN_OR_RETURN(std::string payload, DecodeResponse(response));
  return DecodePingInfo(payload);
}

StatusOr<std::string> RemoteServerFilter::Call(Request& request) {
  if (CarriesVersion(request.op)) request.version = stamp_;
  SSDB_RETURN_IF_ERROR(channel_->Send(EncodeRequest(request)));
  ++round_trips_;
  SSDB_ASSIGN_OR_RETURN(std::string response, channel_->Receive());
  return DecodeResponse(response);
}

StatusOr<filter::NodeMeta> RemoteServerFilter::Root() {
  Request request;
  request.op = Op::kRoot;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  filter::NodeMeta meta;
  SSDB_RETURN_IF_ERROR(ConsumeNodeMeta(&view, &meta));
  return meta;
}

StatusOr<filter::NodeMeta> RemoteServerFilter::GetNode(uint32_t pre) {
  Request request;
  request.op = Op::kGetNode;
  request.pre = pre;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  filter::NodeMeta meta;
  SSDB_RETURN_IF_ERROR(ConsumeNodeMeta(&view, &meta));
  return meta;
}

StatusOr<std::vector<filter::NodeMeta>> RemoteServerFilter::Children(
    uint32_t pre) {
  Request request;
  request.op = Op::kChildren;
  request.pre = pre;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  return ConsumeNodeMetas(&view);
}

StatusOr<std::vector<filter::NodeMeta>> RemoteServerFilter::DescendantsBatch(
    const std::vector<filter::NodeMeta>& roots, uint32_t resume_after) {
  Request request;
  request.op = Op::kDescendantsBatch;
  request.pre = resume_after;
  request.pres.reserve(roots.size());
  request.posts.reserve(roots.size());
  for (const filter::NodeMeta& root : roots) {
    request.pres.push_back(root.pre);
    request.posts.push_back(root.post);
  }
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  return ConsumeNodeMetas(&view);
}

StatusOr<std::vector<filter::NodeMeta>> RemoteServerFilter::NodesBatch(
    const std::vector<uint32_t>& pres) {
  std::vector<filter::NodeMeta> all;
  all.reserve(pres.size());
  for (size_t begin = 0; begin < pres.size(); begin += kChildrenChunk) {
    size_t end = std::min(begin + kChildrenChunk, pres.size());
    Request request;
    request.op = Op::kNodesBatch;
    request.pres.assign(pres.begin() + begin, pres.begin() + end);
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    SSDB_ASSIGN_OR_RETURN(std::vector<filter::NodeMeta> chunk,
                          ConsumeNodeMetas(&view));
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

StatusOr<filter::SkeletonPage> RemoteServerFilter::Skeleton(
    uint32_t after_pre) {
  Request request;
  request.op = Op::kSkeleton;
  request.pre = after_pre;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  filter::SkeletonPage page;
  SSDB_RETURN_IF_ERROR(GetVarint64(&view, &page.version));
  SSDB_ASSIGN_OR_RETURN(page.nodes, ConsumeNodeMetas(&view));
  if (!view.empty()) return Status::Corruption("trailing bytes in skeleton");
  return page;
}

StatusOr<uint64_t> RemoteServerFilter::OpenDescendantCursor(uint32_t pre,
                                                            uint32_t post) {
  Request request;
  request.op = Op::kOpenCursor;
  request.pre = pre;
  request.post = post;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  uint64_t cursor = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(&view, &cursor));
  return cursor;
}

StatusOr<std::vector<filter::NodeMeta>> RemoteServerFilter::NextNodes(
    uint64_t cursor, size_t max_batch) {
  Request request;
  request.op = Op::kNextNodes;
  request.cursor = cursor;
  request.batch = max_batch;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  return ConsumeNodeMetas(&view);
}

Status RemoteServerFilter::CloseCursor(uint64_t cursor) {
  Request request;
  request.op = Op::kCloseCursor;
  request.cursor = cursor;
  return Call(request).status();
}

StatusOr<gf::Elem> RemoteServerFilter::EvalAt(uint32_t pre, gf::Elem t) {
  Request request;
  request.op = Op::kEvalAt;
  request.pre = pre;
  request.point = t;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  uint64_t value = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(&view, &value));
  return static_cast<gf::Elem>(value);
}

StatusOr<std::vector<std::vector<filter::NodeMeta>>>
RemoteServerFilter::ChildrenBatch(const std::vector<uint32_t>& pres) {
  std::vector<std::vector<filter::NodeMeta>> all;
  all.reserve(pres.size());
  for (size_t begin = 0; begin < pres.size(); begin += kChildrenChunk) {
    size_t end = std::min(begin + kChildrenChunk, pres.size());
    Request request;
    request.op = Op::kChildrenBatch;
    request.pres.assign(pres.begin() + begin, pres.begin() + end);
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    for (size_t i = begin; i < end; ++i) {
      SSDB_ASSIGN_OR_RETURN(std::vector<filter::NodeMeta> metas,
                            ConsumeNodeMetas(&view));
      all.push_back(std::move(metas));
    }
  }
  return all;
}

StatusOr<std::vector<gf::Elem>> RemoteServerFilter::EvalAtBatch(
    const std::vector<uint32_t>& pres, gf::Elem t) {
  std::vector<gf::Elem> all;
  all.reserve(pres.size());
  for (size_t begin = 0; begin < pres.size(); begin += kEvalChunk) {
    size_t end = std::min(begin + kEvalChunk, pres.size());
    Request request;
    request.op = Op::kEvalAtBatch;
    request.pres.assign(pres.begin() + begin, pres.begin() + end);
    request.point = t;
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> chunk, ConsumeElems(&view));
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

StatusOr<std::vector<gf::Elem>> RemoteServerFilter::EvalPointsBatch(
    uint32_t pre, const std::vector<gf::Elem>& points) {
  Request request;
  request.op = Op::kEvalPointsBatch;
  request.pre = pre;
  request.points = points;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  return ConsumeElems(&view);
}

StatusOr<std::vector<gf::Elem>> RemoteServerFilter::EvalGrid(
    const std::vector<uint32_t>& pres, const std::vector<gf::Elem>& points) {
  SSDB_RETURN_IF_ERROR(filter::ValidateGrid(pres.size(), points));
  const size_t chunk = std::max<size_t>(1, kGridChunk / points.size());
  std::vector<gf::Elem> all;
  all.reserve(pres.size() * points.size());
  for (size_t begin = 0; begin < pres.size(); begin += chunk) {
    size_t end = std::min(begin + chunk, pres.size());
    Request request;
    request.op = Op::kEvalGrid;
    request.points = points;
    request.pres.assign(pres.begin() + begin, pres.begin() + end);
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values, ConsumeElems(&view));
    if (values.size() != (end - begin) * points.size()) {
      return Status::Corruption("EvalGrid reply has " +
                                std::to_string(values.size()) +
                                " values, expected " +
                                std::to_string((end - begin) * points.size()));
    }
    all.insert(all.end(), values.begin(), values.end());
  }
  return all;
}

StatusOr<gf::RingElem> RemoteServerFilter::FetchShare(uint32_t pre) {
  Request request;
  request.op = Op::kFetchShare;
  request.pre = pre;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  std::string_view share_bytes;
  SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&view, &share_bytes));
  return ring_.Deserialize(share_bytes);
}

StatusOr<std::vector<gf::RingElem>> RemoteServerFilter::FetchShareBatch(
    const std::vector<uint32_t>& pres) {
  std::vector<gf::RingElem> all;
  all.reserve(pres.size());
  for (size_t begin = 0; begin < pres.size(); begin += kShareChunk) {
    size_t end = std::min(begin + kShareChunk, pres.size());
    Request request;
    request.op = Op::kFetchShareBatch;
    request.pres.assign(pres.begin() + begin, pres.begin() + end);
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    for (size_t i = begin; i < end; ++i) {
      std::string_view share_bytes;
      SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&view, &share_bytes));
      SSDB_ASSIGN_OR_RETURN(gf::RingElem share,
                            ring_.Deserialize(share_bytes));
      all.push_back(std::move(share));
    }
  }
  return all;
}

StatusOr<std::vector<agg::Word>> RemoteServerFilter::PartialAggregate(
    const agg::Spec& spec) {
  SSDB_RETURN_IF_ERROR(agg::ValidateSpec(spec));
  std::vector<agg::Word> totals(spec.value_indexes.size(), 0);
  // Z_{2^32} partials from successive chunks simply add up, so chunking
  // changes round trips (O(frontier / chunk)), never the answer.
  for (size_t begin = 0; begin < spec.pres.size(); begin += kAggChunk) {
    size_t end = std::min(begin + kAggChunk, spec.pres.size());
    Request request;
    request.op = spec.value_indexes.size() == 1 ? Op::kAggregate
                                                : Op::kAggregateBatch;
    request.agg_columns = spec.columns;
    request.value_indexes = spec.value_indexes;
    request.pres.assign(spec.pres.begin() + begin, spec.pres.begin() + end);
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    SSDB_ASSIGN_OR_RETURN(std::vector<uint32_t> partials,
                          ConsumeU32s(&view));
    if (partials.size() != totals.size()) {
      return Status::Internal("PartialAggregate group count mismatch");
    }
    for (size_t g = 0; g < totals.size(); ++g) totals[g] += partials[g];
  }
  return totals;
}

StatusOr<std::vector<agg::VerifiedPartial>>
RemoteServerFilter::PartialAggregateVerified(const agg::Spec& spec) {
  SSDB_RETURN_IF_ERROR(agg::ValidateSpec(spec));
  agg::VerifiedPartial totals;
  totals.words.assign(spec.value_indexes.size(), 0);
  bool decided = false;
  for (size_t begin = 0; begin < spec.pres.size(); begin += kAggChunk) {
    size_t end = std::min(begin + kAggChunk, spec.pres.size());
    Request request;
    request.op = spec.value_indexes.size() == 1 ? Op::kAggregateVerified
                                                : Op::kAggregateBatchVerified;
    request.agg_columns = spec.columns;
    request.value_indexes = spec.value_indexes;
    request.pres.assign(spec.pres.begin() + begin, spec.pres.begin() + end);
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    SSDB_ASSIGN_OR_RETURN(std::vector<agg::VerifiedPartial> partials,
                          ConsumeVerifiedPartials(&view));
    // A slice server answers for exactly one slice; a different shape is a
    // corrupt or hostile reply, not a size to adapt to.
    if (partials.size() != 1) {
      return Status::Corruption(
          "verified aggregate reply entry count mismatch");
    }
    const agg::VerifiedPartial& chunk = partials[0];
    if (chunk.words.size() != totals.words.size() ||
        (!chunk.wide.empty() &&
         chunk.wide.size() != totals.words.size())) {
      return Status::Corruption(
          "verified aggregate reply group count mismatch");
    }
    // Whether this server carries the verification track must not flip
    // between chunks of one fold.
    if (!decided) {
      decided = true;
      if (!chunk.wide.empty()) {
        totals.wide.assign(totals.words.size(), 0);
        totals.proof.assign(totals.words.size(), 0);
      }
    } else if (chunk.wide.empty() != totals.wide.empty()) {
      return Status::Corruption(
          "verified aggregate reply proof presence flipped mid-batch");
    }
    for (size_t g = 0; g < totals.words.size(); ++g) {
      totals.words[g] += chunk.words[g];
      if (!totals.wide.empty()) {
        totals.wide[g] += chunk.wide[g];
        totals.proof[g] += chunk.proof[g];
      }
    }
  }
  std::vector<agg::VerifiedPartial> out;
  out.push_back(std::move(totals));
  return out;
}

StatusOr<std::string> RemoteServerFilter::FetchSealed(uint32_t pre) {
  Request request;
  request.op = Op::kFetchSealed;
  request.pre = pre;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  std::string_view sealed;
  SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&view, &sealed));
  return std::string(sealed);
}

StatusOr<std::vector<std::string>> RemoteServerFilter::FetchSealedBatch(
    const std::vector<uint32_t>& pres) {
  std::vector<std::string> all;
  all.reserve(pres.size());
  for (size_t begin = 0; begin < pres.size(); begin += kSealedChunk) {
    size_t end = std::min(begin + kSealedChunk, pres.size());
    Request request;
    request.op = Op::kFetchSealedBatch;
    request.pres.assign(pres.begin() + begin, pres.begin() + end);
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    for (size_t i = begin; i < end; ++i) {
      std::string_view sealed;
      SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&view, &sealed));
      all.emplace_back(sealed);
    }
  }
  return all;
}

StatusOr<uint64_t> RemoteServerFilter::NodeCount() {
  Request request;
  request.op = Op::kNodeCount;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  uint64_t count = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(&view, &count));
  return count;
}

StatusOr<std::vector<storage::MutationState>>
RemoteServerFilter::MutationStates() {
  Request request;
  request.op = Op::kMutationState;
  SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
  std::string_view view = payload;
  storage::MutationState state;
  SSDB_RETURN_IF_ERROR(GetVarint64(&view, &state.version));
  SSDB_RETURN_IF_ERROR(GetVarint64(&view, &state.next_nonce));
  SSDB_RETURN_IF_ERROR(GetVarint64(&view, &state.pending_txn));
  return std::vector<storage::MutationState>{state};
}

Status RemoteServerFilter::PrepareMutation(
    uint64_t txn, const std::vector<storage::MutationPlan>& plans) {
  if (plans.size() != 1) {
    return Status::InvalidArgument(
        "single-server stub expects exactly one mutation plan, got " +
        std::to_string(plans.size()));
  }
  Request request;
  switch (plans[0].kind) {
    case storage::MutationKind::kInsert:
      request.op = Op::kInsert;
      break;
    case storage::MutationKind::kUpdate:
      request.op = Op::kUpdate;
      break;
    case storage::MutationKind::kDelete:
      request.op = Op::kDelete;
      break;
  }
  mutation_op_ = request.op;
  request.txn = txn;
  request.phase = MutationPhase::kPrepare;
  request.plan = storage::EncodeMutationPlan(plans[0]);
  return Call(request).status();
}

Status RemoteServerFilter::CommitMutation(uint64_t txn) {
  Request request;
  request.op = mutation_op_;
  request.txn = txn;
  request.phase = MutationPhase::kCommit;
  return Call(request).status();
}

Status RemoteServerFilter::AbortMutation(uint64_t txn) {
  Request request;
  request.op = mutation_op_;
  request.txn = txn;
  request.phase = MutationPhase::kAbort;
  return Call(request).status();
}

StatusOr<std::vector<storage::ColumnBlobs>>
RemoteServerFilter::FetchColumnsBatch(const std::vector<uint32_t>& pres) {
  std::vector<storage::ColumnBlobs> all;
  all.reserve(pres.size());
  for (size_t begin = 0; begin < pres.size(); begin += kColumnsChunk) {
    size_t end = std::min(begin + kColumnsChunk, pres.size());
    Request request;
    request.op = Op::kFetchColumnsBatch;
    request.pres.assign(pres.begin() + begin, pres.begin() + end);
    SSDB_ASSIGN_OR_RETURN(std::string payload, Call(request));
    std::string_view view = payload;
    for (size_t i = begin; i < end; ++i) {
      storage::ColumnBlobs cols;
      std::string_view blob;
      SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&view, &blob));
      cols.agg.assign(blob);
      SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&view, &blob));
      cols.verify.assign(blob);
      all.push_back(std::move(cols));
    }
  }
  return all;
}

Status RemoteServerFilter::Shutdown() {
  Request request;
  request.op = Op::kShutdown;
  Status s = Call(request).status();
  channel_->Close();
  return s;
}

}  // namespace ssdb::rpc
