// DiskNodeStore: the paged, persistent implementation of the polynomial
// table — heap file for rows plus three B+tree indexes (pre, parent, post),
// mirroring the paper's MySQL schema and indexes (§5.1).
//
// Index encodings:
//   pre index    : key = pre,                         value = record id
//   parent index : key = (parent << 32) | pre,        value = record id
//   post index   : key = (post << 32) | pre,          value = record id
//
// Blob columns (the §8 aggregate slice and §9 verification track) live in a
// sibling column store ("<path>.cols", src/colstore/) keyed by the row's
// share nonce, not in the heap row (DESIGN.md §12) — that is what lifts the
// ~140-tag map cap the old in-row layout imposed. Databases created before
// §12 have no .cols file and keep their blobs in-row; both layouts read
// them through GetColumns(), the only blob reader. Every other read
// (GetByPre, GetRoot, VisitByPre, GetChildren, ScanDescendants) returns the
// heap row alone, so on the column-store layout its agg/verify are empty
// and a share read never touches the column store.
//
// Mutations (DESIGN.md §12): PrepareMutation journals a validated plan
// durably ("<path>.journal", written tmp+rename+fsync); CommitMutation
// applies it (erase range, pre/post shift, upserts), bumps the committed
// version, syncs, and drops the journal; AbortMutation drops it unapplied.
// A store reopened with a journal present surfaces the undecided txn in
// GetMutationState().pending_txn for the coordinator's recovery sweep.
//
// Thread-safe for serving (DESIGN.md §7): lookups and scans take a shared
// lock (tree structure is immutable while serving; the buffer pool latches
// its own frame table underneath), Insert/Flush/mutations take an exclusive
// one.

#ifndef SSDB_STORAGE_TABLE_H_
#define SSDB_STORAGE_TABLE_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>

#include "colstore/column_store.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/heap_file.h"
#include "storage/mutation.h"
#include "storage/node_store.h"
#include "storage/pager.h"

namespace ssdb::storage {

struct DiskStoreOptions {
  size_t buffer_pool_pages = 1024;  // 4 MiB of cache
};

class DiskNodeStore : public NodeStore {
 public:
  // Creates a new database file (fails if it already contains data) or opens
  // an existing one.
  static StatusOr<std::unique_ptr<DiskNodeStore>> Create(
      const std::string& path, const DiskStoreOptions& options = {});
  static StatusOr<std::unique_ptr<DiskNodeStore>> Open(
      const std::string& path, const DiskStoreOptions& options = {});

  ~DiskNodeStore() override;

  Status Insert(const NodeRow& row) override;
  StatusOr<NodeRow> GetByPre(uint32_t pre) override;
  StatusOr<NodeRow> GetRoot() override;
  StatusOr<std::vector<NodeRow>> GetChildren(uint32_t parent_pre) override;
  Status ScanDescendants(
      uint32_t pre, uint32_t post,
      const std::function<bool(const NodeRow&)>& fn) override;
  StatusOr<uint64_t> NodeCount() override;
  StatusOr<StorageStats> Stats() override;
  Status Flush() override;

  StatusOr<ColumnBlobs> GetColumns(uint32_t pre) override;
  StatusOr<MutationState> GetMutationState() override;
  Status PrepareMutation(uint64_t txn, const MutationPlan& plan) override;
  Status CommitMutation(uint64_t txn) override;
  Status AbortMutation(uint64_t txn) override;

  const BufferPoolStats& buffer_stats() const { return pool_->stats(); }
  // Column-store footprint; zero stats on a pre-§12 (in-row blob) database.
  colstore::ColumnStoreStats column_stats() const;

 private:
  DiskNodeStore() = default;

  Status SaveRoots();
  StatusOr<NodeRow> FetchRow(RecordId rid);
  // Removes the row at `pre` (heap record, all three index entries, its
  // column-store blobs) — caller holds mu_ exclusively.
  Status EraseRowLocked(uint32_t pre);
  // Inserts without taking mu_ (shared body of Insert and ApplyPlan).
  Status InsertLocked(const NodeRow& row);
  // Applies a validated plan: erase range -> shift -> upserts.
  Status ApplyPlanLocked(const MutationPlan& plan);
  std::string JournalPath() const;
  Status WriteJournalLocked(uint64_t txn, const MutationPlan& plan);

  // Reads shared, Insert/Flush exclusive; taken before the buffer-pool
  // latch, never after (DESIGN.md §7 lock order).
  mutable std::shared_mutex mu_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::optional<Catalog> catalog_;
  std::optional<HeapFile> heap_;
  std::optional<BTree> pre_index_;
  std::optional<BTree> parent_index_;
  std::optional<BTree> post_index_;
  // Null on a pre-§12 database (blobs in-row); always present on stores
  // created since.
  std::unique_ptr<colstore::ColumnStore> columns_;
  std::string path_;
  uint64_t node_count_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t structure_bytes_ = 0;

  // Mutation state (DESIGN.md §12), persisted in the catalog.
  uint64_t version_ = 0;
  uint64_t next_nonce_ = 0;
  // Journaled-but-undecided txn; 0 when none. Loaded back from the journal
  // file on open, so a crash between phases is visible to recovery.
  uint64_t pending_txn_ = 0;
  MutationPlan pending_plan_;
};

}  // namespace ssdb::storage

#endif  // SSDB_STORAGE_TABLE_H_
