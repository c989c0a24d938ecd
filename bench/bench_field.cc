// Finite-field and ring micro-costs (google-benchmark) that explain the
// macro numbers — field ops across p, Horner evaluation, coefficient-domain
// convolution vs evaluation-domain pointwise multiplication and the inverse
// DFT, and the encoder end to end. The encoder runs in the coefficient
// domain only: ablation A1 (DESIGN.md §4) found the evaluation-domain
// path's per-node inverse DFT slower than the sparse ring products it
// saves.

#include <benchmark/benchmark.h>

#include <set>

#include "encode/encoder.h"
#include "gf/dft.h"
#include "gf/ring.h"
#include "mapping/tag_map.h"
#include "prg/chacha.h"
#include "prg/prg.h"
#include "storage/memory_backend.h"
#include "util/random.h"
#include "xmark/generator.h"
#include "xml/dom.h"

namespace ssdb {
namespace {

gf::RingElem RandomElem(const gf::Ring& ring, Random* rng) {
  gf::RingElem f(ring.n());
  for (auto& c : f) {
    c = static_cast<gf::Elem>(rng->Uniform(ring.field().q()));
  }
  return f;
}

void BM_FieldMul(benchmark::State& state) {
  auto field = *gf::Field::Make(static_cast<uint32_t>(state.range(0)));
  Random rng(1);
  gf::Elem a = 1 + static_cast<gf::Elem>(rng.Uniform(field.n()));
  gf::Elem b = 1 + static_cast<gf::Elem>(rng.Uniform(field.n()));
  for (auto _ : state) {
    a = field.Mul(a, b);
    benchmark::DoNotOptimize(a);
    if (a == 0) a = 1;
  }
}
BENCHMARK(BM_FieldMul)->Arg(5)->Arg(29)->Arg(83)->Arg(257);

void BM_FieldInv(benchmark::State& state) {
  auto field = *gf::Field::Make(static_cast<uint32_t>(state.range(0)));
  gf::Elem a = 2;
  for (auto _ : state) {
    a = field.Inv(a);
    benchmark::DoNotOptimize(a);
    a = a == 0 ? 2 : a;
  }
}
BENCHMARK(BM_FieldInv)->Arg(83);

void BM_RingEvalHorner(benchmark::State& state) {
  // One containment-test evaluation: Horner over q-1 coefficients.
  auto field = *gf::Field::Make(static_cast<uint32_t>(state.range(0)));
  gf::Ring ring(field);
  Random rng(2);
  gf::RingElem f = RandomElem(ring, &rng);
  gf::Elem t = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Eval(f, t));
  }
}
BENCHMARK(BM_RingEvalHorner)->Arg(29)->Arg(83)->Arg(257);

void BM_RingEvalPacked(benchmark::State& state) {
  // The server's share read (DESIGN.md §2): stored share bytes evaluated in
  // place against a power table built once per point.
  auto field = *gf::Field::Make(static_cast<uint32_t>(state.range(0)));
  gf::Ring ring(field);
  Random rng(2);
  std::string packed = ring.Serialize(RandomElem(ring, &rng));
  gf::PowerTable powers = ring.Powers(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.EvalAt(powers, packed));
  }
}
BENCHMARK(BM_RingEvalPacked)->Arg(29)->Arg(83)->Arg(257);

void BM_RingEvalGrid(benchmark::State& state) {
  // The server's grid read (DESIGN.md §6): one stored share unpacked once
  // and evaluated at the k = 5 points of a strict-equality grid, against
  // tables built once per request. Compare with 5 × BM_RingEvalPacked.
  auto field = *gf::Field::Make(static_cast<uint32_t>(state.range(0)));
  gf::Ring ring(field);
  Random rng(2);
  std::string packed = ring.Serialize(RandomElem(ring, &rng));
  std::vector<gf::PowerTable> tables;
  for (gf::Elem t : {3, 5, 7, 11, 13}) tables.push_back(ring.Powers(t));
  gf::RingElem unpacked;
  std::vector<gf::Elem> out(tables.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.EvalAtPoints(tables, packed, &unpacked, out.data()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RingEvalGrid)->Arg(83);

void BM_RingSerializeRoundTrip(benchmark::State& state) {
  // Packs and unpacks one share: the codec work a share fetch repeats per
  // share on each side of the wire.
  auto field = *gf::Field::Make(83);
  gf::Ring ring(field);
  Random rng(7);
  gf::RingElem f = RandomElem(ring, &rng);
  for (auto _ : state) {
    std::string packed = ring.Serialize(f);
    benchmark::DoNotOptimize(ring.Deserialize(packed));
  }
}
BENCHMARK(BM_RingSerializeRoundTrip);

void BM_RingMulConvolution(benchmark::State& state) {
  // Coefficient-domain product: O(n^2).
  auto field = *gf::Field::Make(83);
  gf::Ring ring(field);
  Random rng(3);
  gf::RingElem a = RandomElem(ring, &rng);
  gf::RingElem b = RandomElem(ring, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Mul(a, b));
  }
}
BENCHMARK(BM_RingMulConvolution);

void BM_RingMulPointwise(benchmark::State& state) {
  // Evaluation-domain product: O(n) once transformed.
  auto field = *gf::Field::Make(83);
  gf::Ring ring(field);
  gf::Evaluator evaluator(ring);
  Random rng(4);
  gf::EvalVector a = evaluator.Forward(RandomElem(ring, &rng));
  gf::EvalVector b = evaluator.Forward(RandomElem(ring, &rng));
  for (auto _ : state) {
    gf::EvalVector c = a;
    evaluator.PointwiseMulInto(&c, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RingMulPointwise);

void BM_DftInverse(benchmark::State& state) {
  // The per-node cost the evaluation-domain encoder pays before storage.
  auto field = *gf::Field::Make(83);
  gf::Ring ring(field);
  gf::Evaluator evaluator(ring);
  Random rng(5);
  gf::EvalVector evals = evaluator.Forward(RandomElem(ring, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Inverse(evals));
  }
}
BENCHMARK(BM_DftInverse);

void BM_PrgClientShare(benchmark::State& state) {
  auto field = *gf::Field::Make(83);
  gf::Ring ring(field);
  prg::Prg prg(prg::Seed::FromUint64(6));
  uint64_t pre = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prg.ClientShare(ring, ++pre));
  }
}
BENCHMARK(BM_PrgClientShare);

void BM_ChaChaBlock(benchmark::State& state) {
  // One 64-byte block: the cost of a position jump that lands mid-block.
  std::array<uint8_t, prg::kChaChaKeyBytes> key{};
  std::array<uint8_t, prg::kChaChaBlockBytes> block;
  uint64_t counter = 0;
  for (auto _ : state) {
    prg::ChaCha20Block(key, ++counter, 7, &block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * prg::kChaChaBlockBytes);
}
BENCHMARK(BM_ChaChaBlock);

void BM_ChaChaLanes(benchmark::State& state) {
  // Four blocks in one lane call: a stream refill (or one block of four
  // frontier nonces).
  std::array<uint8_t, prg::kChaChaKeyBytes> key{};
  std::array<uint8_t, prg::kChaChaLaneBytes> blocks;
  uint64_t counter = 0;
  for (auto _ : state) {
    counter += 4;
    prg::ChaCha20Lanes(key, {counter, counter + 1, counter + 2, counter + 3},
                       {7, 7, 7, 7}, &blocks);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetBytesProcessed(state.iterations() * prg::kChaChaLaneBytes);
}
BENCHMARK(BM_ChaChaLanes);

void BM_PrgMaskSums(benchmark::State& state) {
  // The client's aggregate mask removal over a 155-node frontier × 7 words
  // (one selected column across 7 group values of a 77-tag map): the
  // ledger agg workload's mean frontier.
  prg::Prg prg(prg::Seed::FromUint64(6));
  std::vector<uint64_t> nonces;
  for (uint64_t pre = 1; nonces.size() < 155; pre += 13) nonces.push_back(pre);
  std::vector<size_t> offsets;
  for (size_t w = 0; w < 7; ++w) offsets.push_back((3 * 77 + 11 * w) * 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prg.FrontierMaskSums(
        prg::Prg::MaskStream::kAggColumns, 0, nonces, offsets, 4));
  }
}
BENCHMARK(BM_PrgMaskSums);

void BM_EncodeDocument(benchmark::State& state) {
  // End-to-end encoder; the arg adds the §9 verification track (PRG-bound:
  // two more mask words per aggregate word).
  xmark::GeneratorOptions gen;
  gen.target_bytes = 64 << 10;
  std::string xml = xmark::GenerateAuctionDocument(gen).xml;
  auto field = *gf::Field::Make(83);
  gf::Ring ring(field);
  auto doc = *xml::ParseDocument(xml);
  std::vector<std::string> names;
  {
    std::set<std::string> seen;
    xml::ForEachElement(doc.root(), [&](const xml::Node& node) {
      if (seen.insert(node.name).second) names.push_back(node.name);
    });
  }
  auto map = *mapping::TagMap::FromNames(names, field);
  encode::EncodeOptions options;
  options.verify_aggregate = state.range(0) == 1;
  uint64_t nodes = 0;
  for (auto _ : state) {
    storage::MemoryNodeStore store;
    encode::Encoder encoder(ring, map, prg::Prg(prg::Seed::FromUint64(7)),
                            &store, options);
    auto result = encoder.EncodeString(xml);
    benchmark::DoNotOptimize(result);
    nodes = result->node_count;
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_EncodeDocument)
    ->ArgNames({"verify_aggregate"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ssdb

BENCHMARK_MAIN();
