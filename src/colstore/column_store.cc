#include "colstore/column_store.h"

#include <algorithm>
#include <cstring>

namespace ssdb::colstore {
namespace {

using storage::BTree;
using storage::BufferPool;
using storage::HeapFile;
using storage::kInvalidRecordId;
using storage::kPageSize;
using storage::LoadU16;
using storage::LoadU32;
using storage::PageHandle;
using storage::PageId;
using storage::Pager;
using storage::PageType;
using storage::RecordId;
using storage::SetPageType;
using storage::StoreU16;
using storage::StoreU32;

// "SSDBCOLS" as a little-endian u64, versioned in the low byte of slot 0's
// complement — bump if the layout ever changes incompatibly.
constexpr uint64_t kMagic = 0x31534C4F43424453ULL;  // "SDBCOLS1"

constexpr int kSlotMagic = 0;
constexpr int kSlotDirectoryRoot = 1;
constexpr int kSlotHeapFirst = 2;
constexpr int kSlotHeapLast = 3;
constexpr int kSlotFreeHead = 4;
constexpr int kSlotBlobCount = 5;
constexpr int kSlotBlobBytes = 6;

// Chain page body: next page id then a byte count, payload after.
constexpr size_t kChainNextOffset = 8;
constexpr size_t kChainUsedOffset = 12;
constexpr size_t kChainPayloadOffset = 14;
constexpr size_t kChainCapacity = kPageSize - kChainPayloadOffset;

// Blobs at or below this go through the slotted heap (packed many to a
// page); larger ones get a dedicated chain. Comfortably below the heap's
// own per-record ceiling (~kPageSize - 24).
constexpr size_t kMaxHeapBlob = kPageSize - 64;

constexpr uint64_t kChainRefBit = 1ULL << 63;

uint64_t DirectoryKey(Family family, uint64_t nonce) {
  return (static_cast<uint64_t>(family) << 56) | nonce;
}

}  // namespace

StatusOr<std::unique_ptr<ColumnStore>> ColumnStore::Create(
    const std::string& path, size_t buffer_pool_pages) {
  SSDB_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                        Pager::Open(path, /*create_if_missing=*/true));
  if (pager->GetMetaSlot(kSlotMagic) != 0) {
    return Status::AlreadyExists("column store already exists: " + path);
  }
  auto store = std::unique_ptr<ColumnStore>(new ColumnStore());
  store->pager_ = std::move(pager);
  store->pool_ = std::make_unique<BufferPool>(store->pager_.get(),
                                              buffer_pool_pages);
  SSDB_ASSIGN_OR_RETURN(BTree directory, BTree::Create(store->pool_.get()));
  store->directory_ = directory;
  SSDB_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(store->pool_.get()));
  store->heap_ = heap;
  SSDB_RETURN_IF_ERROR(store->pager_->SetMetaSlot(kSlotMagic, kMagic));
  SSDB_RETURN_IF_ERROR(store->Flush());
  return store;
}

StatusOr<std::unique_ptr<ColumnStore>> ColumnStore::Open(
    const std::string& path, size_t buffer_pool_pages) {
  SSDB_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                        Pager::Open(path, /*create_if_missing=*/false));
  if (pager->GetMetaSlot(kSlotMagic) != kMagic) {
    return Status::Corruption("not a column store file: " + path);
  }
  auto store = std::unique_ptr<ColumnStore>(new ColumnStore());
  store->pager_ = std::move(pager);
  store->pool_ = std::make_unique<BufferPool>(store->pager_.get(),
                                              buffer_pool_pages);
  store->directory_ = BTree::Open(
      store->pool_.get(),
      static_cast<PageId>(store->pager_->GetMetaSlot(kSlotDirectoryRoot)));
  SSDB_ASSIGN_OR_RETURN(
      HeapFile heap,
      HeapFile::Open(
          store->pool_.get(),
          static_cast<PageId>(store->pager_->GetMetaSlot(kSlotHeapFirst)),
          static_cast<PageId>(store->pager_->GetMetaSlot(kSlotHeapLast))));
  store->heap_ = heap;
  store->free_head_ =
      static_cast<PageId>(store->pager_->GetMetaSlot(kSlotFreeHead));
  store->blob_count_ = store->pager_->GetMetaSlot(kSlotBlobCount);
  store->blob_bytes_ = store->pager_->GetMetaSlot(kSlotBlobBytes);
  return store;
}

Status ColumnStore::SaveMeta() {
  SSDB_RETURN_IF_ERROR(
      pager_->SetMetaSlot(kSlotDirectoryRoot, directory_->root()));
  SSDB_RETURN_IF_ERROR(
      pager_->SetMetaSlot(kSlotHeapFirst, heap_->first_page()));
  SSDB_RETURN_IF_ERROR(pager_->SetMetaSlot(kSlotHeapLast, heap_->last_page()));
  SSDB_RETURN_IF_ERROR(pager_->SetMetaSlot(kSlotFreeHead, free_head_));
  SSDB_RETURN_IF_ERROR(pager_->SetMetaSlot(kSlotBlobCount, blob_count_));
  return pager_->SetMetaSlot(kSlotBlobBytes, blob_bytes_);
}

StatusOr<storage::PageId> ColumnStore::TakeFreePage() {
  if (free_head_ != 0) {
    PageId id = free_head_;
    SSDB_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(id));
    free_head_ = LoadU32(page.data() + kChainNextOffset);
    StoreU32(page.data() + kChainNextOffset, 0);
    StoreU16(page.data() + kChainUsedOffset, 0);
    page.MarkDirty();
    return id;
  }
  SSDB_ASSIGN_OR_RETURN(PageHandle page, pool_->NewPage());
  SetPageType(page.data(), PageType::kColumnBlob);
  page.MarkDirty();
  return page.id();
}

StatusOr<storage::PageId> ColumnStore::WriteChain(std::string_view blob) {
  PageId head = 0;
  PageId prev = 0;
  size_t offset = 0;
  // An empty blob never reaches here (Put stores those in the heap), so the
  // loop always allocates at least one page.
  while (offset < blob.size()) {
    size_t take = std::min(kChainCapacity, blob.size() - offset);
    SSDB_ASSIGN_OR_RETURN(PageId id, TakeFreePage());
    SSDB_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(id));
    StoreU32(page.data() + kChainNextOffset, 0);
    StoreU16(page.data() + kChainUsedOffset, static_cast<uint16_t>(take));
    std::memcpy(page.data() + kChainPayloadOffset, blob.data() + offset, take);
    page.MarkDirty();
    if (prev != 0) {
      SSDB_ASSIGN_OR_RETURN(PageHandle prev_page, pool_->Fetch(prev));
      StoreU32(prev_page.data() + kChainNextOffset, id);
      prev_page.MarkDirty();
    } else {
      head = id;
    }
    prev = id;
    offset += take;
  }
  return head;
}

StatusOr<std::string> ColumnStore::ReadChain(storage::PageId head) const {
  std::string out;
  PageId id = head;
  uint64_t hops = 0;
  while (id != 0) {
    if (++hops > pager_->page_count()) {
      return Status::Corruption("column-store chain cycle");
    }
    SSDB_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(id));
    if (storage::GetPageType(page.data()) != PageType::kColumnBlob) {
      return Status::Corruption("column-store chain points at a non-blob page");
    }
    size_t used = LoadU16(page.data() + kChainUsedOffset);
    if (used > kChainCapacity) {
      return Status::Corruption("column-store chain page overfull");
    }
    out.append(reinterpret_cast<const char*>(page.data()) +
                   kChainPayloadOffset,
               used);
    id = LoadU32(page.data() + kChainNextOffset);
  }
  return out;
}

Status ColumnStore::FreeChain(storage::PageId head) {
  PageId id = head;
  uint64_t hops = 0;
  while (id != 0) {
    if (++hops > pager_->page_count()) {
      return Status::Corruption("column-store chain cycle");
    }
    SSDB_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(id));
    PageId next = LoadU32(page.data() + kChainNextOffset);
    StoreU32(page.data() + kChainNextOffset, free_head_);
    StoreU16(page.data() + kChainUsedOffset, 0);
    page.MarkDirty();
    free_head_ = id;
    id = next;
  }
  return Status::OK();
}

Status ColumnStore::Put(Family family, uint64_t nonce,
                        std::string_view blob) {
  SSDB_RETURN_IF_ERROR(Erase(family, nonce));
  uint64_t ref = 0;
  if (blob.size() <= kMaxHeapBlob) {
    SSDB_ASSIGN_OR_RETURN(RecordId rid, heap_->Append(blob));
    ref = rid;
  } else {
    SSDB_ASSIGN_OR_RETURN(PageId head, WriteChain(blob));
    ref = kChainRefBit | head;
  }
  SSDB_RETURN_IF_ERROR(directory_->Insert(DirectoryKey(family, nonce), ref));
  ++blob_count_;
  blob_bytes_ += blob.size();
  return Status::OK();
}

StatusOr<std::string> ColumnStore::Get(Family family, uint64_t nonce) const {
  blob_reads_.fetch_add(1, std::memory_order_relaxed);
  SSDB_ASSIGN_OR_RETURN(uint64_t ref,
                        directory_->Get(DirectoryKey(family, nonce)));
  if (ref & kChainRefBit) {
    return ReadChain(static_cast<PageId>(ref & ~kChainRefBit));
  }
  return heap_->Get(static_cast<RecordId>(ref));
}

bool ColumnStore::Has(Family family, uint64_t nonce) const {
  return directory_->Contains(DirectoryKey(family, nonce));
}

Status ColumnStore::Erase(Family family, uint64_t nonce) {
  StatusOr<uint64_t> ref = directory_->Get(DirectoryKey(family, nonce));
  if (!ref.ok()) {
    if (ref.status().IsNotFound()) return Status::OK();
    return ref.status();
  }
  size_t released = 0;
  if (*ref & kChainRefBit) {
    SSDB_ASSIGN_OR_RETURN(std::string blob,
                          ReadChain(static_cast<PageId>(*ref & ~kChainRefBit)));
    released = blob.size();
    SSDB_RETURN_IF_ERROR(FreeChain(static_cast<PageId>(*ref & ~kChainRefBit)));
  } else {
    SSDB_ASSIGN_OR_RETURN(std::string blob,
                          heap_->Get(static_cast<RecordId>(*ref)));
    released = blob.size();
    SSDB_RETURN_IF_ERROR(heap_->Delete(static_cast<RecordId>(*ref)));
  }
  SSDB_RETURN_IF_ERROR(directory_->Delete(DirectoryKey(family, nonce)));
  --blob_count_;
  blob_bytes_ -= released;
  return Status::OK();
}

Status ColumnStore::Rekey(Family family, uint64_t old_nonce,
                          uint64_t new_nonce) {
  if (old_nonce == new_nonce) return Status::OK();
  StatusOr<uint64_t> ref = directory_->Get(DirectoryKey(family, old_nonce));
  if (!ref.ok()) {
    if (ref.status().IsNotFound()) return Status::OK();
    return ref.status();
  }
  SSDB_RETURN_IF_ERROR(
      directory_->Insert(DirectoryKey(family, new_nonce), *ref));
  return directory_->Delete(DirectoryKey(family, old_nonce));
}

ColumnStoreStats ColumnStore::Stats() const {
  ColumnStoreStats stats;
  stats.blob_count = blob_count_;
  stats.blob_bytes = blob_bytes_;
  stats.file_bytes = pager_->file_bytes();
  stats.page_count = pager_->page_count();
  stats.blob_reads = blob_reads_.load(std::memory_order_relaxed);
  return stats;
}

Status ColumnStore::Flush() {
  SSDB_RETURN_IF_ERROR(SaveMeta());
  SSDB_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->Sync();
}

}  // namespace ssdb::colstore
