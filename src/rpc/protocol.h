/// Request/response message formats mapping the ServerFilter interface onto
/// a Channel. One request frame yields exactly one response frame; the
/// batch opcodes are the wire half of the batched pipeline (DESIGN.md §6).
/// A share-slice server in an m-server deployment (DESIGN.md §5) speaks
/// exactly this protocol — fan-out is purely client-side.
///
/// Request : u8 op, then op-specific fields (varints).
/// Response: u8 ok; if !ok { varint code, length-prefixed message }
///           else op-specific payload.

#ifndef SSDB_RPC_PROTOCOL_H_
#define SSDB_RPC_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "filter/server_filter.h"
#include "gf/field.h"
#include "util/statusor.h"

namespace ssdb::rpc {

enum class Op : uint8_t {
  kRoot = 1,
  kGetNode = 2,
  kChildren = 3,
  kOpenCursor = 4,
  kNextNodes = 5,
  kCloseCursor = 6,
  kEvalAt = 7,
  kEvalAtBatch = 8,
  kFetchShare = 9,
  kNodeCount = 10,
  kShutdown = 11,  // graceful server stop
  kEvalPointsBatch = 12,
  kFetchSealed = 13,
  kFetchShareBatch = 14,
  kChildrenBatch = 15,
  // Aggregation (DESIGN.md §8): fold aggregate columns server-side and
  // return one masked word per group. kAggregate carries a single group,
  // kAggregateBatch a group list (group-by).
  kAggregate = 16,
  kAggregateBatch = 17,
  // Verified aggregation (DESIGN.md §9): identical request encodings to
  // kAggregate/kAggregateBatch, but the reply keeps each slice's words
  // separate and carries wide/proof partials from the slice holding the
  // verification track, so the client can check and attribute tampering.
  kAggregateVerified = 18,
  kAggregateBatchVerified = 19,
  // Shard catalog tier (DESIGN.md §10): served by ssdb_router, which holds
  // routing metadata only (no shares, no seeds). kCatalog returns the whole
  // encoded catalog; kCatalogResolve one entry by document id.
  kCatalog = 20,
  kCatalogResolve = 21,
  // Control plane (DESIGN.md §11): the health-monitor probe. No request
  // fields; the reply is EncodePingInfo (build string, uptime, stats
  // epoch). Answered by every daemon — share servers and the metadata-only
  // router alike — without touching the filter, so a probe never competes
  // with query work for a cursor or session.
  kPing = 22,
  // Mutations (DESIGN.md §12). kMutationState returns the slice's committed
  // version, nonce watermark, and pending txn. kInsert/kUpdate/kDelete
  // carry a two-phase step: txn + phase byte (0 = prepare, with the
  // serialized MutationPlan; 1 = commit; 2 = abort). On prepare the server
  // rejects a plan whose kind disagrees with the op, so a frame can never
  // smuggle a delete inside an "update".
  kMutationState = 23,
  kInsert = 24,
  kUpdate = 25,
  kDelete = 26,
  // Aggregate + verification blobs of many nodes (the mutation planner's
  // column fetch, DESIGN.md §12).
  kFetchColumnsBatch = 27,
  // Set-at-a-time structure reads (DESIGN.md §6). kDescendantsBatch: a
  // page of the union of the roots' subtrees — resume pre in `pre`, roots
  // as parallel `pres`/`posts` lists. kNodesBatch: the nodes at `pres` (a
  // whole '..' step).
  kDescendantsBatch = 28,
  kNodesBatch = 29,
  // Point grid (DESIGN.md §6): every pre at every point, |pres|·|points|
  // field elements back. `points` travel first, then `pres`; the decoder
  // runs filter::ValidateGrid before it allocates the pres.
  kEvalGrid = 30,
};

// Two-phase step selector for the mutation ops (DESIGN.md §12).
enum class MutationPhase : uint8_t {
  kPrepare = 0,
  kCommit = 1,
  kAbort = 2,
};

// What a server discloses to a kPing probe. Metadata only: nothing here
// depends on document content or shares.
struct PingInfo {
  std::string build;        // e.g. "ssdb/0.9"
  uint64_t uptime_seconds = 0;
  uint64_t stats_epoch = 0;  // requests handled; monotone per process
};

std::string EncodePingInfo(const PingInfo& info);
StatusOr<PingInfo> DecodePingInfo(std::string_view data);

struct Request {
  Op op = Op::kRoot;
  uint32_t pre = 0;
  uint32_t post = 0;
  uint64_t cursor = 0;
  uint64_t batch = 0;
  gf::Elem point = 0;
  std::vector<uint32_t> pres;
  std::vector<uint32_t> posts;  // kDescendantsBatch, parallel to pres
  std::vector<gf::Elem> points;
  // Aggregation fields (kAggregate / kAggregateBatch, DESIGN.md §8); the
  // frontier rides in `pres`.
  uint8_t agg_columns = 0;             // agg::Col bitmask
  std::vector<uint32_t> value_indexes;  // one group per entry
  // Catalog tier (kCatalogResolve, DESIGN.md §10).
  std::string doc_id;
  // Mutations (kInsert/kUpdate/kDelete, DESIGN.md §12).
  uint64_t txn = 0;
  MutationPhase phase = MutationPhase::kPrepare;
  std::string plan;  // serialized MutationPlan; present iff phase==kPrepare
};

std::string EncodeRequest(const Request& request);
StatusOr<Request> DecodeRequest(std::string_view data);

// Success envelope wrapping an op-specific payload.
std::string EncodeOkResponse(std::string_view payload);
std::string EncodeErrorResponse(const Status& status);

// Unwraps a response: returns the payload, or the transported error.
StatusOr<std::string> DecodeResponse(std::string_view data);

}  // namespace ssdb::rpc

#endif  // SSDB_RPC_PROTOCOL_H_
