// Storage-engine interface for the polynomial table — the paper's relational
// schema (pre, post, parent, share) with B-tree access paths (§5.1). Two
// implementations: DiskNodeStore (src/storage/table.h, paged B+tree engine)
// and MemoryNodeStore (src/storage/memory_backend.h).
//
// Pre/post/parent numbering (fig. 3 & §5.1): pre counts open tags, post
// counts close tags, parent is the parent's pre; the root has parent 0.
// Descendant test: d is a descendant of n iff pre(d) > pre(n) and
// post(d) < post(n); in document order descendants are the contiguous pre
// range right after n, which GetDescendants exploits.

#ifndef SSDB_STORAGE_NODE_STORE_H_
#define SSDB_STORAGE_NODE_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/statusor.h"

namespace ssdb::storage {

struct NodeRow {
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t parent = 0;    // 0 for the root
  std::string share;      // bit-packed server-share polynomial
  // Optional sealed payload (§4: "an encryption of the data string may be
  // added to the node"): tag name + direct text, stream-encrypted under the
  // client seed. Empty when sealing is off. Opaque to the server.
  std::string sealed;
  // Optional aggregate-column slice (DESIGN.md §8): 7·T masked uint32 words
  // per node (agg/columns.h) that let the server fold COUNT/SUM/EXISTS
  // partials without learning what they count. Empty when the database was
  // encoded without aggregate columns. Opaque to the server.
  std::string agg;
  // Optional aggregate verification track (DESIGN.md §9): per aggregate
  // word a masked wide share and a masked keyed-checksum share (16 bytes),
  // stored on slice 0 of a `--verify-agg` database only. Opaque to the
  // server.
  std::string verify;
  // PRG nonce the node's shares and masks were drawn under (DESIGN.md §12).
  // 0 means "the pre position itself" — the layout every row had before
  // mutations existed, so old databases decode unchanged. A mutated node
  // carries a fresh nonce >= prg::kFirstMutationNonce; a node whose pre was
  // shifted by an insert/delete records its original pre here so its
  // unchanged shares stay addressable.
  uint64_t nonce = 0;

  // The PRG position this row's shares/masks/seal are addressed by.
  uint64_t ShareNonce() const { return nonce != 0 ? nonce : pre; }

  bool operator==(const NodeRow& other) const {
    return pre == other.pre && post == other.post &&
           parent == other.parent && share == other.share &&
           sealed == other.sealed && agg == other.agg &&
           verify == other.verify && nonce == other.nonce;
  }
};

// The two blob families a node owns beyond its fixed columns: the §8
// aggregate-column slice and the §9 verification track. On the disk backend
// they live in the column store (src/colstore/), keyed by ShareNonce(), not
// in the heap row (DESIGN.md §12), and NodeStore::GetColumns is the only
// call that reads them.
struct ColumnBlobs {
  std::string agg;
  std::string verify;
};

// Row wire/disk format: varint pre, post, parent + length-prefixed share
// + length-prefixed sealed payload + length-prefixed aggregate columns
// + length-prefixed verification track + varint nonce. The aggregate,
// verification, and nonce fields are trailing-optional on decode (absent in
// rows written before DESIGN.md §8/§9/§12), so older databases stay
// readable; a zero nonce is never written, so unmutated rows keep their
// pre-§12 byte layout.
std::string EncodeNodeRow(const NodeRow& row);
StatusOr<NodeRow> DecodeNodeRow(std::string_view data);

// Committed mutation state of one share-slice store (DESIGN.md §12).
struct MutationState {
  uint64_t version = 0;      // committed document version (0 = as encoded)
  uint64_t next_nonce = 0;   // fresh-nonce watermark (prg::kFirstMutationNonce
                             // when no mutation ever ran)
  uint64_t pending_txn = 0;  // journaled-but-undecided txn, 0 when none
};

// A fully planned, per-slice mutation; see storage/mutation.h.
struct MutationPlan;

struct StorageStats {
  uint64_t node_count = 0;
  uint64_t data_bytes = 0;       // heap pages (or in-memory row footprint)
  uint64_t index_bytes = 0;      // B+tree pages (0 for the memory backend)
  uint64_t file_bytes = 0;       // total on-disk footprint
  uint64_t payload_bytes = 0;    // serialized rows only
  uint64_t structure_bytes = 0;  // the pre/post/parent share of the payload
};

class NodeStore {
 public:
  virtual ~NodeStore() = default;

  // Rows must be inserted with unique pre values.
  virtual Status Insert(const NodeRow& row) = 0;

  // The stored row. Its agg/verify are whatever the row itself holds: on
  // the disk backend's column-store layout (DESIGN.md §12) they are empty,
  // and GetColumns is the way to read them.
  virtual StatusOr<NodeRow> GetByPre(uint32_t pre) = 0;

  // Read path for the server's hot loops: `fn` sees the stored row (same
  // columns as GetByPre) without it being copied out first — a share
  // evaluation touches a few bytes of the row and nothing else. The row
  // reference is valid only during the call, and fn must not call back
  // into the store (the memory backend holds its read lock across fn). The
  // default copies via GetByPre, which is all the disk backend needs: its
  // rows are decoded out of a heap record either way.
  virtual Status VisitByPre(uint32_t pre,
                            const std::function<void(const NodeRow&)>& fn) {
    SSDB_ASSIGN_OR_RETURN(NodeRow row, GetByPre(pre));
    fn(row);
    return Status::OK();
  }

  // The row with parent == 0; blobs as for GetByPre.
  virtual StatusOr<NodeRow> GetRoot() = 0;

  // Children of the given node in pre (document) order.
  virtual StatusOr<std::vector<NodeRow>> GetChildren(uint32_t parent_pre) = 0;

  // Zero-copy variant of GetChildren, same contract as VisitByPre; the
  // expansion step of every query reads whole child lists but keeps only
  // pre/post/parent.
  virtual Status VisitChildren(uint32_t parent_pre,
                               const std::function<void(const NodeRow&)>& fn) {
    SSDB_ASSIGN_OR_RETURN(std::vector<NodeRow> rows,
                          GetChildren(parent_pre));
    for (const NodeRow& row : rows) fn(row);
    return Status::OK();
  }

  // All proper descendants of the node (pre, post), in document order.
  // Callback-based so engines can stream; return false to stop.
  virtual Status ScanDescendants(
      uint32_t pre, uint32_t post,
      const std::function<bool(const NodeRow&)>& fn) = 0;

  virtual StatusOr<uint64_t> NodeCount() = 0;
  virtual StatusOr<StorageStats> Stats() = 0;

  // Durability point (no-op for the memory backend).
  virtual Status Flush() = 0;

  // The node's aggregate-column and verification blobs (DESIGN.md §8/§9).
  // The only blob reader: callers that need the blobs come here, every
  // other read may leave them off. The default reads them off the row
  // itself; the disk backend overrides this to read the column store
  // (§12), where rows no longer carry them.
  virtual StatusOr<ColumnBlobs> GetColumns(uint32_t pre) {
    SSDB_ASSIGN_OR_RETURN(NodeRow row, GetByPre(pre));
    ColumnBlobs blobs;
    blobs.agg = std::move(row.agg);
    blobs.verify = std::move(row.verify);
    return blobs;
  }

  // --- Two-phase mutation protocol (DESIGN.md §12) ---
  //
  // PrepareMutation validates the plan against the committed version and
  // journals it durably WITHOUT applying; CommitMutation applies the
  // journaled plan and bumps the version; AbortMutation discards it. Both
  // commit and abort are idempotent per txn, so a coordinator (or crash
  // recovery) may re-drive either phase. Stores that never mutate keep the
  // Unimplemented defaults.
  virtual StatusOr<MutationState> GetMutationState() {
    return Status::Unimplemented("store does not support mutations");
  }
  virtual Status PrepareMutation(uint64_t txn, const MutationPlan& plan) {
    (void)txn;
    (void)plan;
    return Status::Unimplemented("store does not support mutations");
  }
  virtual Status CommitMutation(uint64_t txn) {
    (void)txn;
    return Status::Unimplemented("store does not support mutations");
  }
  virtual Status AbortMutation(uint64_t txn) {
    (void)txn;
    return Status::Unimplemented("store does not support mutations");
  }
};

}  // namespace ssdb::storage

#endif  // SSDB_STORAGE_NODE_STORE_H_
