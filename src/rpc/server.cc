#include "rpc/server.h"

#include "rpc/protocol.h"
#include "rpc/wire.h"
#include "util/logging.h"
#include "util/varint.h"

namespace ssdb::rpc {
namespace {

// Appends the op-specific success payload to *payload; any error becomes
// an error frame. Appending into the caller's buffer (rather than
// returning a fresh string) lets the concurrent transport encode the
// response directly into a pooled frame buffer (rpc/frame_pool.h).
Status Dispatch(const gf::Ring& ring, filter::ServerFilter* filter,
                filter::SessionId session, const Request& request,
                std::string* payload) {
  // A value request planned against another document version would read
  // rows the client's skeleton does not describe (DESIGN.md §12).
  if (request.version.has_value()) {
    SSDB_ASSIGN_OR_RETURN(uint64_t committed, filter->CommittedVersion());
    if (committed != *request.version) {
      return Status::StaleVersion(
          "document is at version " + std::to_string(committed) +
          ", the request was planned at version " +
          std::to_string(*request.version));
    }
  }
  switch (request.op) {
    case Op::kRoot: {
      SSDB_ASSIGN_OR_RETURN(filter::NodeMeta meta, filter->Root());
      AppendNodeMeta(payload, meta);
      return Status::OK();
    }
    case Op::kGetNode: {
      SSDB_ASSIGN_OR_RETURN(filter::NodeMeta meta,
                            filter->GetNode(request.pre));
      AppendNodeMeta(payload, meta);
      return Status::OK();
    }
    case Op::kChildren: {
      SSDB_ASSIGN_OR_RETURN(std::vector<filter::NodeMeta> metas,
                            filter->Children(request.pre));
      AppendNodeMetas(payload, metas);
      return Status::OK();
    }
    case Op::kDescendantsBatch: {
      std::vector<filter::NodeMeta> roots(request.pres.size());
      for (size_t i = 0; i < roots.size(); ++i) {
        roots[i].pre = request.pres[i];
        roots[i].post = request.posts[i];
      }
      SSDB_ASSIGN_OR_RETURN(std::vector<filter::NodeMeta> metas,
                            filter->DescendantsBatch(roots, request.pre));
      AppendNodeMetas(payload, metas);
      return Status::OK();
    }
    case Op::kNodesBatch: {
      SSDB_ASSIGN_OR_RETURN(std::vector<filter::NodeMeta> metas,
                            filter->NodesBatch(request.pres));
      AppendNodeMetas(payload, metas);
      return Status::OK();
    }
    case Op::kSkeleton: {
      SSDB_ASSIGN_OR_RETURN(filter::SkeletonPage page,
                            filter->Skeleton(request.pre));
      PutVarint64(payload, page.version);
      AppendNodeMetas(payload, page.nodes);
      return Status::OK();
    }
    case Op::kOpenCursor: {
      SSDB_ASSIGN_OR_RETURN(
          uint64_t cursor,
          filter->OpenDescendantCursor(session, request.pre, request.post));
      PutVarint64(payload, cursor);
      return Status::OK();
    }
    case Op::kNextNodes: {
      SSDB_ASSIGN_OR_RETURN(
          std::vector<filter::NodeMeta> metas,
          filter->NextNodes(session, request.cursor,
                            static_cast<size_t>(request.batch)));
      AppendNodeMetas(payload, metas);
      return Status::OK();
    }
    case Op::kCloseCursor: {
      return filter->CloseCursor(session, request.cursor);
    }
    case Op::kEvalAt: {
      SSDB_ASSIGN_OR_RETURN(gf::Elem value,
                            filter->EvalAt(request.pre, request.point));
      PutVarint64(payload, value);
      return Status::OK();
    }
    case Op::kEvalAtBatch: {
      SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values,
                            filter->EvalAtBatch(request.pres, request.point));
      AppendElems(payload, values);
      return Status::OK();
    }
    case Op::kEvalPointsBatch: {
      SSDB_ASSIGN_OR_RETURN(
          std::vector<gf::Elem> values,
          filter->EvalPointsBatch(request.pre, request.points));
      AppendElems(payload, values);
      return Status::OK();
    }
    case Op::kEvalGrid: {
      SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values,
                            filter->EvalGrid(request.pres, request.points));
      AppendElems(payload, values);
      return Status::OK();
    }
    case Op::kFetchShare: {
      SSDB_ASSIGN_OR_RETURN(gf::RingElem share,
                            filter->FetchShare(request.pre));
      PutLengthPrefixed(payload, ring.Serialize(share));
      return Status::OK();
    }
    case Op::kFetchShareBatch: {
      SSDB_ASSIGN_OR_RETURN(std::vector<gf::RingElem> shares,
                            filter->FetchShareBatch(request.pres));
      for (const gf::RingElem& share : shares) {
        PutLengthPrefixed(payload, ring.Serialize(share));
      }
      return Status::OK();
    }
    case Op::kChildrenBatch: {
      SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<filter::NodeMeta>> lists,
                            filter->ChildrenBatch(request.pres));
      for (const std::vector<filter::NodeMeta>& metas : lists) {
        AppendNodeMetas(payload, metas);
      }
      return Status::OK();
    }
    case Op::kAggregate:
    case Op::kAggregateBatch: {
      agg::Spec spec;
      spec.columns = request.agg_columns;
      spec.pres = request.pres;
      spec.value_indexes = request.value_indexes;
      SSDB_ASSIGN_OR_RETURN(std::vector<agg::Word> partials,
                            filter->PartialAggregate(session, spec));
      AppendU32s(payload, partials);
      return Status::OK();
    }
    case Op::kAggregateVerified:
    case Op::kAggregateBatchVerified: {
      agg::Spec spec;
      spec.columns = request.agg_columns;
      spec.pres = request.pres;
      spec.value_indexes = request.value_indexes;
      SSDB_ASSIGN_OR_RETURN(std::vector<agg::VerifiedPartial> partials,
                            filter->PartialAggregateVerified(session, spec));
      AppendVerifiedPartials(payload, partials);
      return Status::OK();
    }
    case Op::kFetchSealed: {
      SSDB_ASSIGN_OR_RETURN(std::string sealed,
                            filter->FetchSealed(request.pre));
      PutLengthPrefixed(payload, sealed);
      return Status::OK();
    }
    case Op::kFetchSealedBatch: {
      SSDB_ASSIGN_OR_RETURN(std::vector<std::string> sealed,
                            filter->FetchSealedBatch(request.pres));
      for (const std::string& payload_bytes : sealed) {
        PutLengthPrefixed(payload, payload_bytes);
      }
      return Status::OK();
    }
    case Op::kNodeCount: {
      SSDB_ASSIGN_OR_RETURN(uint64_t count, filter->NodeCount());
      PutVarint64(payload, count);
      return Status::OK();
    }
    case Op::kMutationState: {
      SSDB_ASSIGN_OR_RETURN(std::vector<storage::MutationState> states,
                            filter->MutationStates());
      if (states.size() != 1) {
        return Status::Internal("expected one mutation state, got " +
                                std::to_string(states.size()));
      }
      PutVarint64(payload, states[0].version);
      PutVarint64(payload, states[0].next_nonce);
      PutVarint64(payload, states[0].pending_txn);
      return Status::OK();
    }
    case Op::kInsert:
    case Op::kUpdate:
    case Op::kDelete: {
      // Two-phase step (DESIGN.md §12). Prepare decodes + validates here so
      // a malformed plan is rejected before anything reaches the store, and
      // the op must agree with the plan's kind.
      switch (request.phase) {
        case MutationPhase::kPrepare: {
          SSDB_ASSIGN_OR_RETURN(storage::MutationPlan plan,
                                storage::DecodeMutationPlan(request.plan));
          storage::MutationKind expected =
              request.op == Op::kInsert   ? storage::MutationKind::kInsert
              : request.op == Op::kUpdate ? storage::MutationKind::kUpdate
                                          : storage::MutationKind::kDelete;
          if (plan.kind != expected) {
            return Status::InvalidArgument(
                std::string("mutation plan kind (") +
                storage::MutationKindName(plan.kind) +
                ") disagrees with the request op");
          }
          return filter->PrepareMutation(request.txn, {std::move(plan)});
        }
        case MutationPhase::kCommit:
          return filter->CommitMutation(request.txn);
        case MutationPhase::kAbort:
          return filter->AbortMutation(request.txn);
      }
      return Status::Corruption("unhandled mutation phase");
    }
    case Op::kFetchColumnsBatch: {
      SSDB_ASSIGN_OR_RETURN(std::vector<storage::ColumnBlobs> blobs,
                            filter->FetchColumnsBatch(request.pres));
      for (const storage::ColumnBlobs& cols : blobs) {
        PutLengthPrefixed(payload, cols.agg);
        PutLengthPrefixed(payload, cols.verify);
      }
      return Status::OK();
    }
    case Op::kShutdown:
      return Status::OK();
    case Op::kCatalog:
    case Op::kCatalogResolve:
    case Op::kPing:
      // Handled by RpcServer before Dispatch; unreachable here.
      break;
  }
  return Status::Corruption("unhandled op");
}

}  // namespace

void RpcServer::SetCatalog(std::string encoded_catalog,
                           std::map<std::string, std::string> encoded_entries) {
  catalog_bytes_ = std::move(encoded_catalog);
  catalog_entries_.clear();
  for (auto& [doc_id, bytes] : encoded_entries) {
    catalog_entries_.emplace(doc_id, std::move(bytes));
  }
}

Status RpcServer::ServeCatalog(const Request& request,
                               std::string* payload) const {
  if (catalog_bytes_.empty()) {
    return Status::FailedPrecondition(
        "no shard catalog installed on this server");
  }
  if (request.op == Op::kCatalog) {
    payload->append(catalog_bytes_);
    return Status::OK();
  }
  auto it = catalog_entries_.find(request.doc_id);
  if (it == catalog_entries_.end()) {
    return Status::NotFound("no document '" + request.doc_id +
                            "' in the shard catalog");
  }
  payload->append(it->second);
  return Status::OK();
}

void RpcServer::HandleRequestInto(std::string_view request_bytes,
                                  filter::SessionId session,
                                  std::string* response) {
  response->clear();
  StatusOr<Request> request = DecodeRequest(request_bytes);
  if (!request.ok()) {
    response->assign(EncodeErrorResponse(request.status()));
    return;
  }
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  // Optimistically write the ok envelope byte and let Dispatch append the
  // payload in place; a failed dispatch rewinds and encodes the error.
  response->push_back(1);
  if (request->op == Op::kPing) {
    // The health probe (DESIGN.md §11) never touches the filter or catalog:
    // a metadata-only router and a share server answer it identically.
    PingInfo info;
    info.build = kServerBuild;
    info.uptime_seconds = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - started_)
            .count());
    info.stats_epoch = requests_handled_.load(std::memory_order_relaxed);
    response->append(EncodePingInfo(info));
    return;
  }
  if (request->op == Op::kCatalog || request->op == Op::kCatalogResolve) {
    // Catalog ops never touch the filter: a catalog-only server (ssdb_router)
    // answers them with no share slice behind it.
    Status s = ServeCatalog(*request, response);
    if (!s.ok()) response->assign(EncodeErrorResponse(s));
    return;
  }
  if (filter_ == nullptr && request->op != Op::kShutdown) {
    response->assign(EncodeErrorResponse(Status::FailedPrecondition(
        "this server serves shard-catalog metadata only (no share slice)")));
    return;
  }
  Status s = Dispatch(ring_, filter_, session, *request, response);
  if (!s.ok()) {
    response->assign(EncodeErrorResponse(s));
  }
}

std::string RpcServer::HandleRequest(std::string_view request_bytes,
                                     filter::SessionId session) {
  std::string response;
  HandleRequestInto(request_bytes, session, &response);
  return response;
}

Status RpcServer::Serve(Channel* channel) {
  for (;;) {
    StatusOr<std::string> request_bytes = channel->Receive();
    if (!request_bytes.ok()) {
      // Peer hung up: clean end of session.
      if (request_bytes.status().code() == StatusCode::kOutOfRange) {
        return Status::OK();
      }
      return request_bytes.status();
    }
    std::string response = HandleRequest(*request_bytes);
    SSDB_RETURN_IF_ERROR(channel->Send(response));
    // kShutdown closes after acknowledging.
    if (!request_bytes->empty() &&
        static_cast<Op>((*request_bytes)[0]) == Op::kShutdown) {
      return Status::OK();
    }
  }
}

ServerThread::ServerThread(gf::Ring ring, filter::ServerFilter* filter,
                           std::unique_ptr<Channel> channel)
    : channel_(std::move(channel)), server_(std::move(ring), filter) {
  thread_ = std::thread([this] {
    Status s = server_.Serve(channel_.get());
    if (!s.ok()) {
      SSDB_LOG(ERROR) << "rpc server exited with error: " << s.ToString();
    }
  });
}

ServerThread::~ServerThread() {
  channel_->Close();
  if (thread_.joinable()) thread_.join();
}

}  // namespace ssdb::rpc
