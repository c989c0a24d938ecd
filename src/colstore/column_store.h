// ColumnStore (DESIGN.md §12): a per-column-family page store for the blob
// columns that used to ride inside every heap row — the §8 aggregate-column
// slice (family kAgg) and the §9 verification track (family kVerify). Rows
// in the main table keep only their fixed columns; blobs live here, keyed by
// (family, share nonce), which makes them immune to the pre/post shifts an
// INSERT/DELETE applies to the row table.
//
// Why a separate store: the slotted heap caps one record at a page
// (~4 KiB), and the aggregate blob alone is 28·|map| bytes per node — the
// old in-row layout capped the tag map near ~140 entries. Here a blob that
// fits comfortably in a page is packed into a slotted heap page alongside
// its neighbours, and a larger one spills into a chain of dedicated
// overflow pages, so |map| is bounded by disk, not by kPageSize.
//
// Layout (own pager/file, "<table>.cols"):
//   meta slot 0: format magic            slot 3: heap last page
//   meta slot 1: directory B+tree root   slot 4: free-chain head (0 = none)
//   meta slot 2: heap first page         slot 5/6: blob count / blob bytes
//   directory  : B+tree (family << 56 | nonce) -> ref; a ref is either a
//                heap RecordId (bit 63 clear) or a chain head page (bit 63
//                set)
//   chain page : common 8-byte header, [8..12) next page (0 = end),
//                [12..14) used bytes, payload from byte 14
// Erased chains go on the store's own free list (relinked through the next
// field) and are reused before the file grows.
//
// Thread safety: none here beyond the read counter — DiskNodeStore calls in
// under its own lock, with the shared/exclusive discipline it already
// applies to the row table.

#ifndef SSDB_COLSTORE_COLUMN_STORE_H_
#define SSDB_COLSTORE_COLUMN_STORE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/pager.h"
#include "util/statusor.h"

namespace ssdb::colstore {

enum class Family : uint8_t {
  kAgg = 0,     // §8 aggregate columns, 7·|map| masked words, column-major
  kVerify = 1,  // §9 verification track, 16 bytes per aggregate word
};

struct ColumnStoreStats {
  uint64_t blob_count = 0;
  uint64_t blob_bytes = 0;
  uint64_t file_bytes = 0;
  uint64_t page_count = 0;
  // Get() calls since the store was opened. Metadata only: counted in
  // memory, never persisted; it lets tests pin which reads touch blobs.
  uint64_t blob_reads = 0;
};

class ColumnStore {
 public:
  static StatusOr<std::unique_ptr<ColumnStore>> Create(
      const std::string& path, size_t buffer_pool_pages);
  static StatusOr<std::unique_ptr<ColumnStore>> Open(
      const std::string& path, size_t buffer_pool_pages);

  // Inserts or replaces the blob stored under (family, nonce).
  Status Put(Family family, uint64_t nonce, std::string_view blob);

  // NotFound when nothing is stored under (family, nonce).
  StatusOr<std::string> Get(Family family, uint64_t nonce) const;

  bool Has(Family family, uint64_t nonce) const;

  // Removes the blob (chain pages go to the free list); OK when absent.
  Status Erase(Family family, uint64_t nonce);

  // Re-keys a blob without rewriting its pages; OK when absent.
  Status Rekey(Family family, uint64_t old_nonce, uint64_t new_nonce);

  ColumnStoreStats Stats() const;

  // Persists directory root / heap pages / counters and fsyncs.
  Status Flush();

 private:
  ColumnStore() = default;

  Status SaveMeta();
  StatusOr<std::string> ReadChain(storage::PageId head) const;
  Status FreeChain(storage::PageId head);
  StatusOr<storage::PageId> WriteChain(std::string_view blob);
  StatusOr<storage::PageId> TakeFreePage();

  std::unique_ptr<storage::Pager> pager_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::optional<storage::BTree> directory_;
  std::optional<storage::HeapFile> heap_;
  storage::PageId free_head_ = 0;  // 0 = empty (page 0 is meta, never a blob)
  uint64_t blob_count_ = 0;
  uint64_t blob_bytes_ = 0;
  // Bumped by concurrent readers under DiskNodeStore's shared lock.
  mutable std::atomic<uint64_t> blob_reads_{0};
};

}  // namespace ssdb::colstore

#endif  // SSDB_COLSTORE_COLUMN_STORE_H_
