// Ablation A2: disk (paged B+tree) backend vs in-memory backend — encode
// throughput and query latency, isolating the storage engine's share of the
// macro numbers. Also reports B+tree/buffer-pool micro-costs.

#include <benchmark/benchmark.h>

#include "core/database.h"
#include "storage/btree.h"
#include "storage/memory_backend.h"
#include "storage/table.h"
#include "util/file_util.h"
#include "util/random.h"
#include "xmark/generator.h"

namespace ssdb {
namespace {

std::string SharedXml() {
  static const auto* kXml = new std::string([] {
    xmark::GeneratorOptions gen;
    gen.target_bytes = 128 << 10;
    return xmark::GenerateAuctionDocument(gen).xml;
  }());
  return *kXml;
}

const mapping::TagMap& SharedMap() {
  static const auto* kMap = new mapping::TagMap([] {
    auto field = *gf::Field::Make(83);
    return *core::EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                     field, false);
  }());
  return *kMap;
}

void BM_EncodeToBackend(benchmark::State& state) {
  // arg 0: memory backend; arg 1: disk backend.
  bool disk = state.range(0) == 1;
  std::string xml = SharedXml();
  TempDir dir("bench_storage");
  int run = 0;
  for (auto _ : state) {
    core::DatabaseOptions options;
    if (disk) {
      options.backend = core::Backend::kDisk;
      options.disk_path = dir.FilePath("db_" + std::to_string(run++));
    }
    auto db = core::EncryptedXmlDatabase::Encode(
        xml, SharedMap(), prg::Seed::FromUint64(1), options);
    benchmark::DoNotOptimize(db);
  }
  state.counters["input_bytes"] = static_cast<double>(xml.size());
}
BENCHMARK(BM_EncodeToBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_QueryOnBackend(benchmark::State& state) {
  bool disk = state.range(0) == 1;
  std::string xml = SharedXml();
  TempDir dir("bench_storage_q");
  core::DatabaseOptions options;
  if (disk) {
    options.backend = core::Backend::kDisk;
    options.disk_path = dir.FilePath("db");
  }
  auto db = core::EncryptedXmlDatabase::Encode(
      xml, SharedMap(), prg::Seed::FromUint64(1), options);
  SSDB_CHECK(db.ok());
  auto parsed = *query::ParseQuery("/site/*/person//city");
  for (auto _ : state) {
    auto result = (*db)->QueryParsed(parsed, core::EngineKind::kAdvanced,
                                     query::MatchMode::kContainment);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_QueryOnBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BTreeInsert(benchmark::State& state) {
  TempDir dir("bench_btree");
  auto pager = *storage::Pager::Open(dir.FilePath("db"), true);
  storage::BufferPool pool(pager.get(), 1024);
  auto tree = *storage::BTree::Create(&pool);
  uint64_t key = 0;
  for (auto _ : state) {
    ++key;
    benchmark::DoNotOptimize(tree.Insert(key, key));
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreePointLookup(benchmark::State& state) {
  TempDir dir("bench_btree_get");
  auto pager = *storage::Pager::Open(dir.FilePath("db"), true);
  storage::BufferPool pool(pager.get(), 1024);
  auto tree = *storage::BTree::Create(&pool);
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) {
    SSDB_CHECK_OK(tree.Insert(i, i));
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(rng.Uniform(n)));
  }
}
BENCHMARK(BM_BTreePointLookup);

void BM_DescendantScan(benchmark::State& state) {
  // The access path behind every '//' step.
  storage::MemoryNodeStore store;
  const uint32_t n = 20000;
  for (uint32_t i = 1; i <= n; ++i) {
    storage::NodeRow row;
    row.pre = i;
    row.post = n + 1 - i;
    row.parent = i == 1 ? 0 : 1;
    row.share = std::string(72, 'x');
    SSDB_CHECK_OK(store.Insert(row));
  }
  for (auto _ : state) {
    uint64_t count = 0;
    SSDB_CHECK_OK(store.ScanDescendants(1, n, [&](const storage::NodeRow&) {
      ++count;
      return true;
    }));
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_DescendantScan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssdb

BENCHMARK_MAIN();
