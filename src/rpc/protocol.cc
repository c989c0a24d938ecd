#include "rpc/protocol.h"

#include "util/varint.h"

namespace ssdb::rpc {
namespace {

// Matches shard::kMaxStringBytes: a document id on the wire can never be
// longer than one the catalog codec would accept.
constexpr size_t kMaxDocIdBytes = 4096;

// Shared count-prefixed varint-list codec for the batch ops. The decode
// side rejects counts that cannot fit in the remaining bytes (each element
// is at least one byte), or that exceed `max_count`, so a tiny malformed
// frame cannot force a huge allocation.
void AppendVarintList(std::string* out, const std::vector<uint32_t>& values) {
  PutVarint64(out, values.size());
  for (uint32_t value : values) PutVarint64(out, value);
}

template <typename T>
Status ConsumeVarintList(std::string_view* data, std::vector<T>* out,
                         uint64_t max_count = UINT64_MAX) {
  uint64_t count = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(data, &count));
  if (count > data->size()) {
    return Status::Corruption("batch count exceeds frame size");
  }
  if (count > max_count) {
    return Status::Corruption("batch count exceeds its cap");
  }
  out->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    SSDB_RETURN_IF_ERROR(GetVarint64(data, &v));
    (*out)[i] = static_cast<T>(v);
  }
  return Status::OK();
}

}  // namespace

bool CarriesVersion(Op op) {
  switch (op) {
    case Op::kEvalAt:
    case Op::kEvalAtBatch:
    case Op::kEvalPointsBatch:
    case Op::kEvalGrid:
    case Op::kFetchShare:
    case Op::kFetchShareBatch:
    case Op::kAggregate:
    case Op::kAggregateBatch:
    case Op::kAggregateVerified:
    case Op::kAggregateBatchVerified:
    case Op::kFetchSealed:
    case Op::kFetchSealedBatch:
    case Op::kFetchColumnsBatch:
      return true;
    default:
      return false;
  }
}

std::string EncodeRequest(const Request& request) {
  std::string out;
  out.push_back(static_cast<char>(request.op));
  switch (request.op) {
    case Op::kRoot:
    case Op::kNodeCount:
    case Op::kShutdown:
    case Op::kPing:
      break;
    case Op::kGetNode:
    case Op::kChildren:
    case Op::kFetchShare:
    case Op::kFetchSealed:
      PutVarint64(&out, request.pre);
      break;
    case Op::kOpenCursor:
      PutVarint64(&out, request.pre);
      PutVarint64(&out, request.post);
      break;
    case Op::kNextNodes:
      PutVarint64(&out, request.cursor);
      PutVarint64(&out, request.batch);
      break;
    case Op::kCloseCursor:
      PutVarint64(&out, request.cursor);
      break;
    case Op::kEvalAt:
      PutVarint64(&out, request.pre);
      PutVarint64(&out, request.point);
      break;
    case Op::kEvalAtBatch:
      PutVarint64(&out, request.point);
      AppendVarintList(&out, request.pres);
      break;
    case Op::kFetchShareBatch:
    case Op::kChildrenBatch:
      AppendVarintList(&out, request.pres);
      break;
    case Op::kEvalPointsBatch:
      PutVarint64(&out, request.pre);
      AppendVarintList(&out, request.points);
      break;
    case Op::kAggregate:
    case Op::kAggregateVerified:
      out.push_back(static_cast<char>(request.agg_columns));
      PutVarint64(&out, request.value_indexes.empty()
                            ? 0
                            : request.value_indexes[0]);
      AppendVarintList(&out, request.pres);
      break;
    case Op::kAggregateBatch:
    case Op::kAggregateBatchVerified:
      out.push_back(static_cast<char>(request.agg_columns));
      AppendVarintList(&out, request.value_indexes);
      AppendVarintList(&out, request.pres);
      break;
    case Op::kCatalog:
      break;
    case Op::kCatalogResolve:
      PutLengthPrefixed(&out, request.doc_id);
      break;
    case Op::kMutationState:
      break;
    case Op::kInsert:
    case Op::kUpdate:
    case Op::kDelete:
      PutVarint64(&out, request.txn);
      out.push_back(static_cast<char>(request.phase));
      if (request.phase == MutationPhase::kPrepare) {
        PutLengthPrefixed(&out, request.plan);
      }
      break;
    case Op::kFetchColumnsBatch:
    case Op::kNodesBatch:
    case Op::kFetchSealedBatch:
      AppendVarintList(&out, request.pres);
      break;
    case Op::kDescendantsBatch:
      PutVarint64(&out, request.pre);
      AppendVarintList(&out, request.pres);
      AppendVarintList(&out, request.posts);
      break;
    case Op::kEvalGrid:
      AppendVarintList(&out, request.points);
      AppendVarintList(&out, request.pres);
      break;
    case Op::kSkeleton:
      PutVarint64(&out, request.pre);
      break;
  }
  if (CarriesVersion(request.op) && request.version.has_value()) {
    PutVarint64(&out, *request.version);
  }
  return out;
}

StatusOr<Request> DecodeRequest(std::string_view data) {
  if (data.empty()) return Status::Corruption("empty request");
  Request request;
  request.op = static_cast<Op>(data[0]);
  data.remove_prefix(1);
  uint64_t v = 0;
  switch (request.op) {
    case Op::kRoot:
    case Op::kNodeCount:
    case Op::kShutdown:
    case Op::kPing:
      break;
    case Op::kGetNode:
    case Op::kChildren:
    case Op::kFetchShare:
    case Op::kFetchSealed:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.pre = static_cast<uint32_t>(v);
      break;
    case Op::kOpenCursor:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.pre = static_cast<uint32_t>(v);
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.post = static_cast<uint32_t>(v);
      break;
    case Op::kNextNodes:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &request.cursor));
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &request.batch));
      break;
    case Op::kCloseCursor:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &request.cursor));
      break;
    case Op::kEvalAt:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.pre = static_cast<uint32_t>(v);
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.point = static_cast<gf::Elem>(v);
      break;
    case Op::kEvalAtBatch:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.point = static_cast<gf::Elem>(v);
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(&data, &request.pres));
      break;
    case Op::kEvalPointsBatch:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.pre = static_cast<uint32_t>(v);
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(&data, &request.points));
      break;
    case Op::kFetchShareBatch:
    case Op::kChildrenBatch:
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(&data, &request.pres));
      break;
    case Op::kAggregate:
    case Op::kAggregateBatch:
    case Op::kAggregateVerified:
    case Op::kAggregateBatchVerified:
      if (data.empty()) return Status::Corruption("missing column mask");
      request.agg_columns = static_cast<uint8_t>(data[0]);
      data.remove_prefix(1);
      if (request.op == Op::kAggregate ||
          request.op == Op::kAggregateVerified) {
        SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
        request.value_indexes.assign(1, static_cast<uint32_t>(v));
      } else {
        SSDB_RETURN_IF_ERROR(
            ConsumeVarintList(&data, &request.value_indexes));
      }
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(&data, &request.pres));
      break;
    case Op::kCatalog:
      break;
    case Op::kCatalogResolve: {
      std::string_view doc_id;
      SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &doc_id));
      if (doc_id.size() > kMaxDocIdBytes) {
        return Status::Corruption("document id too long");
      }
      request.doc_id.assign(doc_id);
      break;
    }
    case Op::kMutationState:
      break;
    case Op::kInsert:
    case Op::kUpdate:
    case Op::kDelete: {
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &request.txn));
      if (data.empty()) return Status::Corruption("missing mutation phase");
      uint8_t phase = static_cast<uint8_t>(data[0]);
      data.remove_prefix(1);
      if (phase > static_cast<uint8_t>(MutationPhase::kAbort)) {
        return Status::Corruption("unknown mutation phase " +
                                  std::to_string(phase));
      }
      request.phase = static_cast<MutationPhase>(phase);
      if (request.phase == MutationPhase::kPrepare) {
        std::string_view plan;
        SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &plan));
        request.plan.assign(plan);
      }
      break;
    }
    case Op::kFetchColumnsBatch:
    case Op::kNodesBatch:
    case Op::kFetchSealedBatch:
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(&data, &request.pres));
      break;
    case Op::kSkeleton:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.pre = static_cast<uint32_t>(v);
      break;
    case Op::kDescendantsBatch:
      SSDB_RETURN_IF_ERROR(GetVarint64(&data, &v));
      request.pre = static_cast<uint32_t>(v);
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(&data, &request.pres));
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(&data, &request.posts));
      if (request.posts.size() != request.pres.size()) {
        return Status::Corruption("descendant roots: pre/post count mismatch");
      }
      break;
    case Op::kEvalGrid:
      // The points bound how many pres may follow, so the grid is checked
      // whole before the pres are allocated.
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(&data, &request.points,
                                             filter::kMaxGridPoints));
      SSDB_RETURN_IF_ERROR(filter::ValidateGrid(0, request.points));
      SSDB_RETURN_IF_ERROR(ConsumeVarintList(
          &data, &request.pres,
          filter::kMaxGridValues / request.points.size()));
      break;
    default:
      return Status::Corruption("unknown op " +
                                std::to_string(static_cast<int>(request.op)));
  }
  if (CarriesVersion(request.op) && !data.empty()) {
    uint64_t version = 0;
    SSDB_RETURN_IF_ERROR(GetVarint64(&data, &version));
    request.version = version;
  }
  if (!data.empty()) {
    return Status::Corruption("trailing bytes in request");
  }
  return request;
}

std::string EncodePingInfo(const PingInfo& info) {
  std::string out;
  PutLengthPrefixed(&out, info.build);
  PutVarint64(&out, info.uptime_seconds);
  PutVarint64(&out, info.stats_epoch);
  return out;
}

StatusOr<PingInfo> DecodePingInfo(std::string_view data) {
  PingInfo info;
  std::string_view build;
  SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &build));
  if (build.size() > kMaxDocIdBytes) {
    return Status::Corruption("ping build string too long");
  }
  info.build.assign(build);
  SSDB_RETURN_IF_ERROR(GetVarint64(&data, &info.uptime_seconds));
  SSDB_RETURN_IF_ERROR(GetVarint64(&data, &info.stats_epoch));
  if (!data.empty()) {
    return Status::Corruption("trailing bytes in ping reply");
  }
  return info;
}

std::string EncodeOkResponse(std::string_view payload) {
  std::string out;
  out.push_back(1);
  out.append(payload);
  return out;
}

std::string EncodeErrorResponse(const Status& status) {
  std::string out;
  out.push_back(0);
  PutVarint64(&out, static_cast<uint64_t>(status.code()));
  PutLengthPrefixed(&out, status.message());
  return out;
}

StatusOr<std::string> DecodeResponse(std::string_view data) {
  if (data.empty()) return Status::Corruption("empty response");
  bool ok = data[0] != 0;
  data.remove_prefix(1);
  if (ok) {
    return std::string(data);
  }
  uint64_t code = 0;
  SSDB_RETURN_IF_ERROR(GetVarint64(&data, &code));
  std::string_view message;
  SSDB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &message));
  return Status(static_cast<StatusCode>(code), std::string(message));
}

}  // namespace ssdb::rpc
