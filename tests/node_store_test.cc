#include <gtest/gtest.h>

#include <memory>

#include "storage/memory_backend.h"
#include "storage/table.h"
#include "test_helpers.h"
#include "util/file_util.h"

namespace ssdb::storage {
namespace {

using testing_helpers::MakeRow;

// Both backends must satisfy the same contract; parameterize over them.
enum class Backend { kMemory, kDisk };

class NodeStoreTest : public ::testing::TestWithParam<Backend> {
 protected:
  NodeStoreTest() : dir_("node_store_test") {}

  std::unique_ptr<NodeStore> MakeStore(const std::string& name) {
    if (GetParam() == Backend::kMemory) {
      return std::make_unique<MemoryNodeStore>();
    }
    auto store = DiskNodeStore::Create(dir_.FilePath(name));
    SSDB_CHECK(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  // Tree used throughout (children indented under their parent):
  //   1 (root)
  //     2
  //       3
  //       4
  //     5
  //       6
  // pre/post: 1/(6), 2/(3), 3/(1), 4/(2), 5/(5), 6/(4)
  void FillTree(NodeStore* store) {
    auto insert = [&](uint32_t pre, uint32_t post, uint32_t parent) {
      SSDB_CHECK_OK(store->Insert(
          MakeRow(pre, post, parent, "share" + std::to_string(pre))));
    };
    insert(1, 6, 0);
    insert(2, 3, 1);
    insert(3, 1, 2);
    insert(4, 2, 2);
    insert(5, 5, 1);
    insert(6, 4, 5);
  }

  TempDir dir_;
};

TEST_P(NodeStoreTest, RowCodecRoundTrip) {
  NodeRow row = MakeRow(12, 34, 5, std::string("\x01\x02\xff", 3));
  auto decoded = DecodeNodeRow(EncodeNodeRow(row));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
  EXPECT_FALSE(DecodeNodeRow("\x01").ok());
}

TEST_P(NodeStoreTest, InsertAndLookup) {
  auto store = MakeStore("basic");
  FillTree(store.get());
  EXPECT_EQ(*store->NodeCount(), 6u);
  auto row = store->GetByPre(4);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->post, 2u);
  EXPECT_EQ(row->parent, 2u);
  EXPECT_EQ(row->share, "share4");
  EXPECT_FALSE(store->GetByPre(99).ok());
}

TEST_P(NodeStoreTest, RejectsDuplicatesAndZeroPre) {
  auto store = MakeStore("dups");
  ASSERT_TRUE(store->Insert(MakeRow(1, 1, 0, "x")).ok());
  EXPECT_FALSE(store->Insert(MakeRow(1, 2, 0, "y")).ok());
  EXPECT_FALSE(store->Insert(MakeRow(0, 3, 0, "z")).ok());
}

TEST_P(NodeStoreTest, RootIsParentZero) {
  auto store = MakeStore("root");
  FillTree(store.get());
  auto root = store->GetRoot();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->pre, 1u);
  auto empty = MakeStore("empty");
  EXPECT_FALSE(empty->GetRoot().ok());
}

TEST_P(NodeStoreTest, ChildrenInDocumentOrder) {
  auto store = MakeStore("children");
  FillTree(store.get());
  auto children = store->GetChildren(1);
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 2u);
  EXPECT_EQ((*children)[0].pre, 2u);
  EXPECT_EQ((*children)[1].pre, 5u);
  auto leaves = store->GetChildren(3);
  ASSERT_TRUE(leaves.ok());
  EXPECT_TRUE(leaves->empty());
}

TEST_P(NodeStoreTest, DescendantsUsePrePostWindow) {
  auto store = MakeStore("desc");
  FillTree(store.get());
  std::vector<uint32_t> pres;
  ASSERT_TRUE(store->ScanDescendants(2, 3, [&](const NodeRow& row) {
                     pres.push_back(row.pre);
                     return true;
                   })
                  .ok());
  EXPECT_EQ(pres, (std::vector<uint32_t>{3, 4}));
  pres.clear();
  ASSERT_TRUE(store->ScanDescendants(1, 6, [&](const NodeRow& row) {
                     pres.push_back(row.pre);
                     return true;
                   })
                  .ok());
  EXPECT_EQ(pres, (std::vector<uint32_t>{2, 3, 4, 5, 6}));
  // Early stop.
  pres.clear();
  ASSERT_TRUE(store->ScanDescendants(1, 6, [&](const NodeRow& row) {
                     pres.push_back(row.pre);
                     return pres.size() < 2;
                   })
                  .ok());
  EXPECT_EQ(pres.size(), 2u);
}

TEST_P(NodeStoreTest, StatsTrackPayload) {
  auto store = MakeStore("stats");
  FillTree(store.get());
  auto stats = store->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->node_count, 6u);
  EXPECT_GT(stats->payload_bytes, 0u);
  EXPECT_GT(stats->structure_bytes, 0u);
  EXPECT_LT(stats->structure_bytes, stats->payload_bytes);
}

INSTANTIATE_TEST_SUITE_P(Backends, NodeStoreTest,
                         ::testing::Values(Backend::kMemory, Backend::kDisk),
                         [](const auto& info) {
                           return info.param == Backend::kMemory ? "Memory"
                                                                 : "Disk";
                         });

TEST(DiskNodeStoreTest, PersistsAcrossReopen) {
  TempDir dir("disk_reopen");
  std::string path = dir.FilePath("db");
  {
    auto store = DiskNodeStore::Create(path);
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 1; i <= 500; ++i) {
      ASSERT_TRUE((*store)
                      ->Insert(MakeRow(i, 501 - i, i == 1 ? 0 : 1,
                                       std::string(70, static_cast<char>(
                                                           i % 256))))
                      .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto store = DiskNodeStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(*(*store)->NodeCount(), 500u);
    auto row = (*store)->GetByPre(250);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->post, 251u);
    auto children = (*store)->GetChildren(1);
    ASSERT_TRUE(children.ok());
    EXPECT_EQ(children->size(), 499u);
  }
}

TEST(DiskNodeStoreTest, CreateRefusesExistingDatabase) {
  TempDir dir("disk_exists");
  std::string path = dir.FilePath("db");
  {
    auto store = DiskNodeStore::Create(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Insert(MakeRow(1, 1, 0, "x")).ok());
  }
  EXPECT_FALSE(DiskNodeStore::Create(path).ok());
}

TEST(DiskNodeStoreTest, DiskStatsSeparateDataAndIndex) {
  TempDir dir("disk_stats");
  auto store = DiskNodeStore::Create(dir.FilePath("db"));
  ASSERT_TRUE(store.ok());
  for (uint32_t i = 1; i <= 2000; ++i) {
    ASSERT_TRUE(
        (*store)
            ->Insert(MakeRow(i, i, i == 1 ? 0 : 1, std::string(72, 'p')))
            .ok());
  }
  auto stats = (*store)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->data_bytes, 0u);
  EXPECT_GT(stats->index_bytes, 0u);
  EXPECT_GE(stats->file_bytes, stats->data_bytes + stats->index_bytes);
}

}  // namespace
}  // namespace ssdb::storage
