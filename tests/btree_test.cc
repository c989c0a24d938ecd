#include <gtest/gtest.h>

#include <map>

#include "storage/btree.h"
#include "util/file_util.h"
#include "util/random.h"

namespace ssdb::storage {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest()
      : dir_("btree_test"),
        pager_(*Pager::Open(dir_.FilePath("db"), true)),
        pool_(pager_.get(), 256) {}

  TempDir dir_;
  std::unique_ptr<Pager> pager_;
  BufferPool pool_;
};

TEST_F(BTreeTest, InsertGetSmall) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(5, 50).ok());
  ASSERT_TRUE(tree->Insert(3, 30).ok());
  ASSERT_TRUE(tree->Insert(8, 80).ok());
  EXPECT_EQ(*tree->Get(5), 50u);
  EXPECT_EQ(*tree->Get(3), 30u);
  EXPECT_EQ(*tree->Get(8), 80u);
  EXPECT_FALSE(tree->Get(4).ok());
  EXPECT_TRUE(tree->Contains(3));
  EXPECT_FALSE(tree->Contains(99));
}

TEST_F(BTreeTest, DuplicateInsertRejectedUpsertAllowed) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(1, 10).ok());
  EXPECT_FALSE(tree->Insert(1, 20).ok());
  EXPECT_EQ(*tree->Get(1), 10u);
  ASSERT_TRUE(tree->Upsert(1, 20).ok());
  EXPECT_EQ(*tree->Get(1), 20u);
}

TEST_F(BTreeTest, SplitsOnSequentialInsert) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  const int n = 5000;  // forces multiple levels (leaf capacity 255)
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree->Insert(i, i * 2).ok()) << i;
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(*tree->Get(i), static_cast<uint64_t>(i * 2));
  }
  EXPECT_EQ(*tree->Count(), static_cast<uint64_t>(n));
  EXPECT_GT(*tree->PageCount(), 20u);
}

TEST_F(BTreeTest, SplitsOnReverseAndRandomInsert) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (int i = 3000; i > 0; --i) {
    ASSERT_TRUE(tree->Insert(i, i).ok());
  }
  Random rng(9);
  for (int i = 0; i < 2000; ++i) {
    uint64_t key = 10000 + rng.Uniform(1000000);
    tree->Upsert(key, key).ok();
  }
  for (int i = 1; i <= 3000; ++i) {
    ASSERT_EQ(*tree->Get(i), static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, ScanRangeInOrder) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree->Insert(i * 3, i).ok());
  }
  std::vector<uint64_t> keys;
  ASSERT_TRUE(tree->Scan(100, 200, [&](uint64_t k, uint64_t) {
                    keys.push_back(k);
                    return true;
                  })
                  .ok());
  ASSERT_FALSE(keys.empty());
  EXPECT_GE(keys.front(), 100u);
  EXPECT_LT(keys.back(), 200u);
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);
  }
  // Early stop.
  int visited = 0;
  ASSERT_TRUE(tree->Scan(0, UINT64_MAX, [&](uint64_t, uint64_t) {
                    return ++visited < 10;
                  })
                  .ok());
  EXPECT_EQ(visited, 10);
}

TEST_F(BTreeTest, DeleteRemovesKeys) {
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree->Insert(i, i).ok());
  }
  for (int i = 0; i < 1000; i += 2) {
    ASSERT_TRUE(tree->Delete(i).ok());
  }
  EXPECT_FALSE(tree->Delete(0).ok());  // already gone
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(tree->Contains(i), i % 2 == 1) << i;
  }
  EXPECT_EQ(*tree->Count(), 500u);
}

TEST_F(BTreeTest, ModelCheckAgainstStdMap) {
  // Property test: a random workload of inserts/upserts/deletes/lookups
  // behaves exactly like std::map.
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  std::map<uint64_t, uint64_t> model;
  Random rng(31337);
  for (int op = 0; op < 20000; ++op) {
    uint64_t key = rng.Uniform(3000);
    switch (rng.Uniform(4)) {
      case 0: {  // insert
        bool expect_ok = model.count(key) == 0;
        Status s = tree->Insert(key, op);
        EXPECT_EQ(s.ok(), expect_ok);
        if (expect_ok) model[key] = op;
        break;
      }
      case 1: {  // upsert
        ASSERT_TRUE(tree->Upsert(key, op).ok());
        model[key] = op;
        break;
      }
      case 2: {  // delete
        bool expect_ok = model.erase(key) > 0;
        EXPECT_EQ(tree->Delete(key).ok(), expect_ok);
        break;
      }
      default: {  // lookup
        auto value = tree->Get(key);
        auto it = model.find(key);
        ASSERT_EQ(value.ok(), it != model.end());
        if (value.ok()) {
          EXPECT_EQ(*value, it->second);
        }
      }
    }
  }
  // Full-order comparison via scan.
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  ASSERT_TRUE(tree->Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
                    scanned.emplace_back(k, v);
                    return true;
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(scanned[i].first, k);
    EXPECT_EQ(scanned[i].second, v);
    ++i;
  }
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  std::string path = dir_.FilePath("persist_db");
  PageId root;
  {
    auto pager = Pager::Open(path, true);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 64);
    auto tree = BTree::Create(&pool);
    ASSERT_TRUE(tree.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(tree->Insert(i, i + 7).ok());
    }
    root = tree->root();
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  {
    auto pager = Pager::Open(path, false);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 64);
    BTree tree = BTree::Open(&pool, root);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(*tree.Get(i), static_cast<uint64_t>(i + 7));
    }
  }
}

TEST_F(BTreeTest, CompositeKeysModelDuplicateColumns) {
  // The parent/post indexes pack (column << 32 | pre); range scans recover
  // all entries for one column value in pre order.
  auto tree = BTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint32_t parent : {5u, 7u}) {
    for (uint32_t pre = 1; pre <= 100; ++pre) {
      ASSERT_TRUE(tree->Insert((static_cast<uint64_t>(parent) << 32) |
                                   (parent * 1000 + pre),
                               pre)
                      .ok());
    }
  }
  std::vector<uint64_t> values;
  ASSERT_TRUE(tree->Scan(uint64_t{5} << 32, uint64_t{6} << 32,
                         [&](uint64_t, uint64_t v) {
                           values.push_back(v);
                           return true;
                         })
                  .ok());
  EXPECT_EQ(values.size(), 100u);
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(values[i - 1], values[i]);
  }
}

}  // namespace
}  // namespace ssdb::storage
