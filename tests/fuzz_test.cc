// Randomized property tests over the whole pipeline:
//  * XML writer/parser round-trip on random trees;
//  * random queries on random documents: strict engine results must equal
//    the plaintext ground truth exactly, non-strict must be a superset —
//    for both engines, across many (document, query) pairs;
//  * the RPC request decoder: random, truncated, and oversized frames fed
//    to RpcServer::HandleRequest must yield error frames, never crashes or
//    hangs (what an untrusted client can throw at a concurrent server,
//    DESIGN.md §7);
//  * the verified-aggregation reply path (DESIGN.md §9): truncated,
//    bit-flipped, random and oversized proof-bearing frames must end in an
//    error or a verification failure, never a crash or a silently wrong
//    answer.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/advanced_engine.h"
#include "query/ground_truth.h"
#include "query/xpath.h"
#include "query/simple_engine.h"
#include "rpc/channel.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "shard/catalog.h"
#include "shard/router.h"
#include "storage/mutation.h"
#include "test_helpers.h"
#include "util/random.h"
#include "xmark/generator.h"
#include "xml/writer.h"

namespace ssdb {
namespace {

using query::MatchMode;
using query::Step;

// Small tag alphabet so that random documents have repeated tags, nesting
// of a tag inside itself, and dead branches — the interesting cases.
const char* kTags[] = {"a", "b", "c", "d", "e"};
constexpr size_t kTagCount = 5;

void BuildRandomTree(Random* rng, int depth, int max_depth,
                     std::string* out) {
  const char* tag = kTags[rng->Uniform(kTagCount)];
  *out += "<";
  *out += tag;
  *out += ">";
  if (depth < max_depth) {
    uint64_t children = rng->Uniform(4);  // 0..3
    for (uint64_t i = 0; i < children; ++i) {
      BuildRandomTree(rng, depth + 1, max_depth, out);
    }
  }
  *out += "</";
  *out += tag;
  *out += ">";
}

std::string RandomDocument(Random* rng) {
  std::string out;
  BuildRandomTree(rng, 0, 4 + static_cast<int>(rng->Uniform(2)), &out);
  return out;
}

query::Query RandomQuery(Random* rng) {
  query::Query q;
  size_t steps = 1 + rng->Uniform(4);
  for (size_t i = 0; i < steps; ++i) {
    Step step;
    step.axis = rng->Bernoulli(0.4) ? Step::Axis::kDescendant
                                    : Step::Axis::kChild;
    double kind_roll = rng->NextDouble();
    if (kind_roll < 0.15) {
      step.kind = Step::Kind::kWildcard;
    } else if (kind_roll < 0.25 && i > 0) {
      step.kind = Step::Kind::kParent;
    } else {
      step.kind = Step::Kind::kName;
      step.name = kTags[rng->Uniform(kTagCount)];
    }
    // Occasional single-step predicate.
    if (rng->Bernoulli(0.2) && step.kind == Step::Kind::kName) {
      Step pred;
      pred.axis = rng->Bernoulli(0.5) ? Step::Axis::kDescendant
                                      : Step::Axis::kChild;
      pred.kind = Step::Kind::kName;
      pred.name = kTags[rng->Uniform(kTagCount)];
      step.predicate.push_back(std::move(pred));
    }
    q.steps.push_back(std::move(step));
  }
  q.text = query::QueryToString(q);
  return q;
}

TEST(FuzzTest, WriterParserRoundTrip) {
  Random rng(2025);
  for (int trial = 0; trial < 200; ++trial) {
    std::string xml = RandomDocument(&rng);
    auto doc = xml::ParseDocument(xml);
    ASSERT_TRUE(doc.ok()) << xml;
    std::string written = xml::WriteDocument(*doc);
    auto doc2 = xml::ParseDocument(written);
    ASSERT_TRUE(doc2.ok()) << written;
    EXPECT_EQ(xml::WriteDocument(*doc2), written);
    EXPECT_EQ(doc2->ElementCount(), doc->ElementCount());
  }
}

TEST(FuzzTest, RandomQueriesMatchGroundTruth) {
  Random rng(777);
  int non_trivial = 0;
  for (int doc_trial = 0; doc_trial < 8; ++doc_trial) {
    auto db = testing_helpers::BuildTestDb(RandomDocument(&rng));
    query::SimpleEngine simple(db->client.get(), &db->map);
    query::AdvancedEngine advanced(db->client.get(), &db->map);

    for (int query_trial = 0; query_trial < 20; ++query_trial) {
      query::Query q = RandomQuery(&rng);
      auto truth = query::EvaluateGroundTruth(q, db->doc);
      ASSERT_TRUE(truth.ok()) << q.text;
      std::set<uint32_t> expected(truth->begin(), truth->end());
      if (!expected.empty()) ++non_trivial;

      for (query::QueryEngine* engine :
           {static_cast<query::QueryEngine*>(&simple),
            static_cast<query::QueryEngine*>(&advanced)}) {
        auto strict = engine->Execute(q, MatchMode::kEquality, nullptr);
        ASSERT_TRUE(strict.ok()) << q.text;
        std::set<uint32_t> actual;
        for (const auto& node : *strict) actual.insert(node.pre);
        EXPECT_EQ(actual, expected)
            << engine->name() << " strict diverged on " << q.text;

        auto loose = engine->Execute(q, MatchMode::kContainment, nullptr);
        ASSERT_TRUE(loose.ok()) << q.text;
        std::set<uint32_t> loose_set;
        for (const auto& node : *loose) loose_set.insert(node.pre);
        for (uint32_t pre : expected) {
          EXPECT_TRUE(loose_set.count(pre) > 0)
              << engine->name() << " non-strict lost " << pre << " on "
              << q.text;
        }
      }
    }
  }
  // The corpus must actually exercise matches, not just empty results.
  EXPECT_GT(non_trivial, 20);
}

TEST(FuzzTest, EncoderHandlesAdversarialShapes) {
  // Degenerate but legal documents: deep chains, wide fans, self-nesting.
  std::string deep;
  for (int i = 0; i < 60; ++i) deep += "<a>";
  for (int i = 0; i < 60; ++i) deep += "</a>";
  auto db1 = testing_helpers::BuildTestDb(deep);
  EXPECT_EQ(db1->encode_result.node_count, 60u);
  EXPECT_EQ(db1->encode_result.max_depth, 60u);
  // The root of a 60-deep chain of <a> contains a (with multiplicity 60):
  // reduction wraps the degree but evaluations survive.
  auto root = db1->client->Root();
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(*db1->client->ContainsValue(*root, *db1->map.Lookup("a")));
  EXPECT_EQ(*db1->client->RecoverOwnValue(*root), *db1->map.Lookup("a"));

  std::string wide = "<a>";
  for (int i = 0; i < 300; ++i) wide += "<b/>";
  wide += "</a>";
  auto db2 = testing_helpers::BuildTestDb(wide);
  EXPECT_EQ(db2->encode_result.node_count, 301u);
  auto root2 = db2->client->Root();
  ASSERT_TRUE(root2.ok());
  // Equality test with 300 children still recovers the root tag.
  EXPECT_EQ(*db2->client->RecoverOwnValue(*root2), *db2->map.Lookup("a"));
}

TEST(FuzzTest, QueryParserNeverCrashesOnGarbage) {
  Random rng(13);
  const char charset[] = "/abc*[].\"()， ";
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage;
    size_t len = rng.Uniform(24);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(charset[rng.Uniform(sizeof(charset) - 1)]);
    }
    // Must return a Status, never crash; parse success is fine too.
    auto parsed = query::ParseQuery(garbage);
    if (parsed.ok()) {
      EXPECT_FALSE(parsed->steps.empty());
    }
  }
}

// Every frame must produce a well-formed response frame: an ok envelope
// for the (rare) random frame that decodes to a valid request, an error
// envelope for everything else. No crash, no hang, no empty reply.
TEST(FuzzTest, RpcRequestDecoderNeverCrashesOnGarbage) {
  auto db = testing_helpers::BuildTestDb(testing_helpers::SmallAuctionXml());
  rpc::RpcServer server(db->ring, db->server.get());
  Random rng(4242);

  auto check = [&](const std::string& frame) {
    std::string response = server.HandleRequest(frame);
    ASSERT_FALSE(response.empty());
    // DecodeResponse must parse the envelope either way; a transported
    // error Status is the expected outcome for garbage.
    auto decoded = rpc::DecodeResponse(response);
    if (!decoded.ok()) {
      EXPECT_FALSE(decoded.status().message().empty());
    }
  };

  // Purely random frames over all byte values, short and long.
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng.Uniform(trial % 5 == 0 ? 512 : 24);
    std::string frame;
    frame.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      frame.push_back(static_cast<char>(rng.Uniform(256)));
    }
    check(frame);
  }

  // Truncations of every valid request, at every prefix length.
  rpc::Request request;
  request.pre = 3;
  request.post = 9;
  request.cursor = 1;
  request.batch = 4;
  request.point = 5;
  request.pres = {1, 2, 3};
  request.points = {4, 5};
  request.agg_columns = 0x15;  // kAggregate/kAggregateBatch fields
  request.value_indexes = {0, 2};
  request.doc_id = "doc-x";  // kCatalogResolve field
  request.txn = 1;           // mutation fields (ops 24..26, DESIGN.md §12)
  request.phase = rpc::MutationPhase::kPrepare;
  request.plan = "not a plan";
  request.posts = {9, 8, 7};  // kDescendantsBatch roots (DESIGN.md §6)
  // One past kEvalGrid (30): the last valid opcode plus an invalid probe.
  for (uint8_t op = 0; op <= 31; ++op) {
    request.op = static_cast<rpc::Op>(op);
    std::string valid = rpc::EncodeRequest(request);
    for (size_t cut = 0; cut <= valid.size(); ++cut) {
      check(valid.substr(0, cut));
    }
  }

  // Oversized batch counts: varints claiming 2^40..2^62 elements must be
  // rejected at decode, not allocated (would OOM or hang the worker).
  for (int shift = 40; shift <= 62; ++shift) {
    // Batch opcodes, including the mutation planner's column fetch (27),
    // the set-at-a-time structure reads (28, 29) and the point grid (30),
    // whose point count comes first.
    for (uint8_t op : {8, 12, 14, 15, 16, 17, 18, 19, 27, 28, 29, 30}) {
      std::string frame;
      frame.push_back(static_cast<char>(op));
      // kEvalAtBatch/kEvalPointsBatch carry a point/pre varint before the
      // count; kDescendantsBatch a resume pre; the aggregate ops (16..19)
      // a column-mask byte (+ a value index for the scalar forms); for the
      // others the count comes first.
      if (op == 8 || op == 12) frame.push_back(1);
      if (op == 28) frame.push_back(1);
      if (op >= 16 && op <= 19) frame.push_back(0x01);
      if (op == 16 || op == 18) frame.push_back(0);
      uint64_t huge = uint64_t{1} << shift;
      while (huge >= 0x80) {
        frame.push_back(static_cast<char>(0x80 | (huge & 0x7f)));
        huge >>= 7;
      }
      frame.push_back(static_cast<char>(huge));
      std::string response = server.HandleRequest(frame);
      ASSERT_FALSE(response.empty());
      EXPECT_FALSE(rpc::DecodeResponse(response).ok());
    }
  }

  // Aggregate frames with wild parameters (DESIGN.md §8): random column
  // masks (including invalid bits), out-of-range value indexes, and absent
  // pres must produce an ok or error envelope — never a crash — and valid
  // folds must stay exact after the barrage.
  constexpr rpc::Op kAggOps[] = {
      rpc::Op::kAggregate, rpc::Op::kAggregateBatch,
      rpc::Op::kAggregateVerified, rpc::Op::kAggregateBatchVerified};
  for (int trial = 0; trial < 500; ++trial) {
    rpc::Request agg_request;
    agg_request.op = kAggOps[rng.Uniform(4)];
    agg_request.agg_columns = static_cast<uint8_t>(rng.Uniform(256));
    size_t groups = 1 + rng.Uniform(4);
    for (size_t g = 0; g < groups; ++g) {
      agg_request.value_indexes.push_back(
          static_cast<uint32_t>(rng.Uniform(64)));
    }
    size_t frontier = rng.Uniform(6);
    for (size_t i = 0; i < frontier; ++i) {
      agg_request.pres.push_back(static_cast<uint32_t>(rng.Uniform(4096)));
    }
    check(rpc::EncodeRequest(agg_request));
  }

  // The garbage barrage must not have corrupted the server: a normal
  // request still round-trips, and no cursors leaked from random frames
  // that happened to decode as kOpenCursor.
  rpc::Request probe;
  probe.op = rpc::Op::kNodeCount;
  auto after = rpc::DecodeResponse(server.HandleRequest(
      rpc::EncodeRequest(probe)));
  ASSERT_TRUE(after.ok());
  db->server->EndSession(filter::SessionId{0});
  EXPECT_EQ(db->server->OpenCursorCount(), 0u);
}

// Point-grid frames (op 30, DESIGN.md §6) are checked whole before the
// server allocates a reply or reads a row: no points, point 0, a repeated
// point, more points than F_q has, a point outside F_q, and a count bomb
// whose lists each fit the frame but whose pres × points product exceeds
// the reply cap all answer an error. A valid grid answers every pre at
// every point, exactly as EvalAtBatch does point by point.
TEST(FuzzTest, GridFramesAreCheckedBeforeWork) {
  auto db = testing_helpers::BuildTestDb(testing_helpers::SmallAuctionXml());
  rpc::RpcServer server(db->ring, db->server.get());
  auto put_varint = [](std::string* out, uint64_t v) {
    while (v >= 0x80) {
      out->push_back(static_cast<char>(0x80 | (v & 0x7f)));
      v >>= 7;
    }
    out->push_back(static_cast<char>(v));
  };
  // Op 30, the points, then `pres` copies of pre 1.
  auto grid_frame = [&](const std::vector<uint64_t>& points, uint64_t pres) {
    std::string frame(1, static_cast<char>(rpc::Op::kEvalGrid));
    put_varint(&frame, points.size());
    for (uint64_t point : points) put_varint(&frame, point);
    put_varint(&frame, pres);
    frame.append(pres, '\x01');
    return frame;
  };
  auto rejected = [&](const std::string& frame) {
    return !rpc::DecodeResponse(server.HandleRequest(frame)).ok();
  };

  std::vector<uint64_t> many;
  for (uint64_t v = 1; v <= filter::kMaxGridPoints + 1; ++v) many.push_back(v);
  std::vector<uint64_t> thousand(many.begin(), many.begin() + 1000);
  EXPECT_TRUE(rejected(grid_frame({}, 3)));
  EXPECT_TRUE(rejected(grid_frame({0, 4}, 3)));
  EXPECT_TRUE(rejected(grid_frame({4, 9, 4}, 3)));
  EXPECT_TRUE(rejected(grid_frame(many, 1)));
  EXPECT_TRUE(rejected(grid_frame({4, 83}, 3)));  // outside F_83
  // 1000 points × 5000 pres = 5M values > kMaxGridValues, in a 7 KB frame.
  ASSERT_GT(1000u * 5000u, filter::kMaxGridValues);
  EXPECT_TRUE(rejected(grid_frame(thousand, 5000)));
  // The same checks guard the server entry point behind the decoder.
  EXPECT_FALSE(db->server->EvalGrid({1}, {}).ok());
  EXPECT_FALSE(db->server->EvalGrid({1}, {5, 5}).ok());
  EXPECT_FALSE(db->server->EvalGrid({1}, {90}).ok());
  EXPECT_FALSE(
      db->server->EvalGrid(std::vector<uint32_t>(5000, 1),
                           std::vector<gf::Elem>(thousand.begin(),
                                                 thousand.end()))
          .ok());

  // A valid grid, one pre absent from the store: an error, never a value.
  EXPECT_FALSE(db->server->EvalGrid({1, 999999}, {4}).ok());
  const std::vector<uint32_t> pres = {3, 1, 2, 3};
  const std::vector<gf::Elem> points = {7, 2, 82};
  auto grid = db->server->EvalGrid(pres, points);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  ASSERT_EQ(grid->size(), pres.size() * points.size());
  for (size_t j = 0; j < points.size(); ++j) {
    auto column = db->server->EvalAtBatch(pres, points[j]);
    ASSERT_TRUE(column.ok());
    for (size_t i = 0; i < pres.size(); ++i) {
      EXPECT_EQ((*grid)[i * points.size() + j], (*column)[i]);
    }
  }
  // The base-class body (what a decorator forwarding only EvalAtBatch
  // answers) agrees.
  auto looped = db->server->filter::ServerFilter::EvalGrid(pres, points);
  ASSERT_TRUE(looped.ok());
  EXPECT_EQ(*looped, *grid);
}

// The set-at-a-time structure reads (DESIGN.md §6) under wild parameters:
// out-of-range, nested and repeated roots, forged posts, resume points
// anywhere, out-of-range pres. Every reply is an error or a page of at most
// kDescendantsPage nodes strictly after the resume pre, so no request can
// make the server ship the whole document in one frame.
TEST(FuzzTest, StructureBatchOpsStayBounded) {
  std::string xml = "<r>";
  for (int i = 0; i < 9000; ++i) xml += i % 3 == 0 ? "<a><b/></a>" : "<b/>";
  xml += "</r>";
  auto db = testing_helpers::BuildTestDb(xml);
  const uint64_t nodes = *db->store->NodeCount();
  ASSERT_GT(nodes, filter::kDescendantsPage);
  rpc::RpcServer server(db->ring, db->server.get());
  Random rng(2829);

  size_t full_pages = 0;
  for (int trial = 0; trial < 400; ++trial) {
    rpc::Request request;
    request.op = rpc::Op::kDescendantsBatch;
    request.pre = static_cast<uint32_t>(
        rng.Bernoulli(0.3) ? 0 : rng.Uniform(nodes + 50));
    size_t roots = rng.Uniform(6);
    for (size_t i = 0; i < roots; ++i) {
      bool real = rng.Bernoulli(0.6);
      uint32_t pre = static_cast<uint32_t>(real ? 1 + rng.Uniform(nodes)
                                                : rng.Uniform(1u << 31));
      request.pres.push_back(pre);
      request.posts.push_back(static_cast<uint32_t>(
          rng.Bernoulli(0.5) ? nodes + 1 : rng.Uniform(1u << 31)));
    }
    std::string response = server.HandleRequest(rpc::EncodeRequest(request));
    auto payload = rpc::DecodeResponse(response);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    std::string_view view = *payload;
    auto page = rpc::ConsumeNodeMetas(&view);
    ASSERT_TRUE(page.ok());
    ASSERT_LE(page->size(), filter::kDescendantsPage);
    if (page->size() == filter::kDescendantsPage) ++full_pages;
    uint32_t last = request.pre;
    for (const filter::NodeMeta& node : *page) {
      ASSERT_GT(node.pre, last);
      last = node.pre;
    }
  }
  EXPECT_GT(full_pages, 0u) << "the cap was never exercised";

  // kNodesBatch: a pre outside the store is an error, never a made-up node.
  for (int trial = 0; trial < 200; ++trial) {
    rpc::Request request;
    request.op = rpc::Op::kNodesBatch;
    bool in_range = true;
    size_t count = rng.Uniform(8);
    for (size_t i = 0; i < count; ++i) {
      uint32_t pre = static_cast<uint32_t>(rng.Uniform(nodes + 20));
      in_range = in_range && pre >= 1 && pre <= nodes;
      request.pres.push_back(pre);
    }
    auto payload = rpc::DecodeResponse(
        server.HandleRequest(rpc::EncodeRequest(request)));
    ASSERT_EQ(payload.ok(), in_range) << payload.status().ToString();
    if (!in_range) continue;
    std::string_view view = *payload;
    auto metas = rpc::ConsumeNodeMetas(&view);
    ASSERT_TRUE(metas.ok());
    ASSERT_EQ(metas->size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ((*metas)[i].pre, request.pres[i]);
    }
  }

  // Roots whose pre and post lists disagree in length are a corrupt frame.
  std::string frame = rpc::EncodeRequest([] {
    rpc::Request request;
    request.op = rpc::Op::kDescendantsBatch;
    request.pres = {1, 2};
    request.posts = {9};
    return request;
  }());
  EXPECT_FALSE(rpc::DecodeResponse(server.HandleRequest(frame)).ok());
}

// The mutation ops (24..26, DESIGN.md §12) under the decoder barrage. The
// extra stake beyond "never crash": a mutation frame the server rejects —
// truncated, count-bombed, or carrying a corrupt plan — must leave the
// slice exactly as it was. No version bump, no pending txn, no node moved:
// an error frame must never cost a silent partial write.
TEST(FuzzTest, MutationOpsNeverCorruptStateOnGarbage) {
  auto db = testing_helpers::BuildTestDb(testing_helpers::SmallAuctionXml());
  rpc::RpcServer server(db->ring, db->server.get());
  Random rng(9119);

  auto put_varint = [](std::string* out, uint64_t v) {
    while (v >= 0x80) {
      out->push_back(static_cast<char>(0x80 | (v & 0x7f)));
      v >>= 7;
    }
    out->push_back(static_cast<char>(v));
  };
  auto expect_untouched = [&](const char* when) {
    auto states = db->server->MutationStates();
    ASSERT_TRUE(states.ok()) << when;
    for (const storage::MutationState& st : *states) {
      EXPECT_EQ(st.version, 0u) << when;
      EXPECT_EQ(st.pending_txn, 0u) << when;
    }
    auto count = db->store->NodeCount();
    ASSERT_TRUE(count.ok()) << when;
    EXPECT_EQ(*count, db->encode_result.node_count) << when;
  };
  expect_untouched("before the barrage");

  constexpr rpc::Op kMutationOps[] = {rpc::Op::kInsert, rpc::Op::kUpdate,
                                      rpc::Op::kDelete};
  constexpr storage::MutationKind kKinds[] = {storage::MutationKind::kInsert,
                                              storage::MutationKind::kUpdate,
                                              storage::MutationKind::kDelete};

  // A structurally valid (if vacuous) plan per op, so the frames exercise
  // the full decode path; every proper truncation must yield an error frame.
  for (int i = 0; i < 3; ++i) {
    storage::MutationPlan plan;
    plan.kind = kKinds[i];
    plan.base_version = 0;
    plan.next_nonce = prg::kFirstMutationNonce + 1;
    rpc::Request request;
    request.op = kMutationOps[i];
    request.txn = 1;
    request.phase = rpc::MutationPhase::kPrepare;
    request.plan = storage::EncodeMutationPlan(plan);
    std::string valid = rpc::EncodeRequest(request);
    for (size_t cut = 0; cut < valid.size(); ++cut) {
      std::string response = server.HandleRequest(valid.substr(0, cut));
      ASSERT_FALSE(response.empty());
      EXPECT_FALSE(rpc::DecodeResponse(response).ok())
          << "op " << static_cast<int>(kMutationOps[i]) << " cut " << cut;
    }
    expect_untouched("after truncated prepares");

    // The full frame prepares; a commit frame for a *different* txn must be
    // refused without disturbing the prepared one (an abort of an unknown
    // txn is a defined no-op); then abort the prepared txn.
    ASSERT_TRUE(rpc::DecodeResponse(server.HandleRequest(valid)).ok());
    rpc::Request wrong;
    wrong.op = kMutationOps[i];
    wrong.txn = 55;
    wrong.phase = rpc::MutationPhase::kCommit;
    EXPECT_FALSE(
        rpc::DecodeResponse(server.HandleRequest(rpc::EncodeRequest(wrong)))
            .ok());
    {
      auto states = db->server->MutationStates();
      ASSERT_TRUE(states.ok());
      EXPECT_EQ((*states)[0].pending_txn, 1u);  // prepared txn undisturbed
    }
    rpc::Request abort_request;
    abort_request.op = kMutationOps[i];
    abort_request.txn = 1;
    abort_request.phase = rpc::MutationPhase::kAbort;
    ASSERT_TRUE(
        rpc::DecodeResponse(server.HandleRequest(rpc::EncodeRequest(
            abort_request)))
            .ok());
    expect_untouched("after abort");

    // A plan whose kind disagrees with the op must be rejected at prepare —
    // a frame can never smuggle a delete inside an "update".
    rpc::Request smuggled = request;
    smuggled.op = kMutationOps[(i + 1) % 3];
    EXPECT_FALSE(
        rpc::DecodeResponse(server.HandleRequest(rpc::EncodeRequest(smuggled)))
            .ok());
    expect_untouched("after kind/op mismatch");
  }

  // Count bombs inside the plan: an upsert count claiming 2^40..2^62 rows
  // must be rejected at decode, never sized into a vector.
  for (int shift = 40; shift <= 62; ++shift) {
    std::string bomb;
    put_varint(&bomb, static_cast<uint64_t>(storage::MutationKind::kUpdate));
    put_varint(&bomb, 0);                            // base_version
    put_varint(&bomb, prg::kFirstMutationNonce + 1);  // next_nonce
    put_varint(&bomb, 1);                            // erase_lo
    put_varint(&bomb, 0);                            // erase_hi
    put_varint(&bomb, 0);                            // shift_pre_gt
    put_varint(&bomb, 0);                            // zigzag shift_delta
    put_varint(&bomb, uint64_t{1} << shift);         // upsert-count bomb
    rpc::Request request;
    request.op = rpc::Op::kUpdate;
    request.txn = 1;
    request.phase = rpc::MutationPhase::kPrepare;
    request.plan = bomb;
    std::string response = server.HandleRequest(rpc::EncodeRequest(request));
    ASSERT_FALSE(response.empty());
    EXPECT_FALSE(rpc::DecodeResponse(response).ok());
  }
  expect_untouched("after count bombs");

  // Random parameters through the real encoder: arbitrary txns, phases and
  // plan bytes. Prepares that happen to decode are aborted right away; no
  // frame may commit anything (version stays 0).
  for (int trial = 0; trial < 500; ++trial) {
    rpc::Request request;
    request.op = kMutationOps[rng.Uniform(3)];
    request.txn = rng.Uniform(4);
    request.phase = static_cast<rpc::MutationPhase>(rng.Uniform(3));
    if (request.phase == rpc::MutationPhase::kPrepare) {
      size_t len = rng.Uniform(48);
      for (size_t i = 0; i < len; ++i) {
        request.plan.push_back(static_cast<char>(rng.Uniform(256)));
      }
    }
    std::string response = server.HandleRequest(rpc::EncodeRequest(request));
    ASSERT_FALSE(response.empty());
    auto states = db->server->MutationStates();
    ASSERT_TRUE(states.ok());
    for (const storage::MutationState& st : *states) {
      EXPECT_EQ(st.version, 0u);
      if (st.pending_txn != 0) {
        rpc::Request abort_request;
        abort_request.op = rpc::Op::kUpdate;
        abort_request.txn = st.pending_txn;
        abort_request.phase = rpc::MutationPhase::kAbort;
        ASSERT_TRUE(rpc::DecodeResponse(
                        server.HandleRequest(rpc::EncodeRequest(abort_request)))
                        .ok());
      }
    }
  }
  expect_untouched("after random mutation frames");

  // The barrage over, the document still answers exactly.
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*db->client->RecoverOwnValue(*root), *db->map.Lookup("site"));
}

// Shard-catalog wire codec (DESIGN.md §10) under the same adversarial
// treatment ops 16–19 get above: truncations at every prefix, single-bit
// flips, purely random frames, and varints claiming absurd entry/slice
// counts. Decoding must reject cleanly before allocating; and whenever a
// mutated catalog still decodes AND still routes, the merged corpus totals
// must match ground truth — a flipped bit may break routing, it must never
// silently change an answer.
TEST(FuzzTest, ShardCatalogCodecNeverCrashesOrMisroutes) {
  // A tiny real corpus the semantic check can route against.
  gf::Field field = *gf::Field::Make(83);
  mapping::TagMap map = *core::EncryptedXmlDatabase::TagMapForDtd(
      xmark::AuctionDtd(), field, false);
  xmark::GeneratorOptions gen;
  gen.target_bytes = 4 << 10;
  gen.seed = 5;
  prg::Seed seed = prg::Seed::FromUint64(313);
  core::DatabaseOptions options;
  options.backend = core::Backend::kMemory;
  options.servers = 2;
  auto db = core::EncryptedXmlDatabase::Encode(
      xmark::GenerateAuctionDocument(gen).xml, map, seed, options);
  ASSERT_TRUE(db.ok());
  uint64_t truth = (*db)
                       ->Query("count(/site//person)",
                               core::EngineKind::kAdvanced,
                               query::MatchMode::kEquality)
                       ->aggregate.Total();

  shard::ShardCatalog catalog;
  shard::ShardEntry entry;
  entry.doc_id = "doc";
  entry.group = 0;
  entry.slices = {"mem://doc/0", "mem://doc/1"};
  ASSERT_TRUE(catalog.Add(entry).ok());
  std::map<std::string, std::vector<filter::ServerFilter*>> backends;
  backends["doc"] = {(*db)->slice_filter(0), (*db)->slice_filter(1)};
  std::map<std::string, prg::Seed> seeds;
  seeds.emplace("doc", seed);

  auto query = query::ParseQuery("count(/site//person)");
  ASSERT_TRUE(query.ok());
  auto route_matches_truth = [&](const shard::ShardCatalog& mutated) {
    core::CorpusOptions copts;
    auto router = shard::Router::FromBackends(mutated, &map, seed, seeds,
                                              copts, backends);
    if (!router.ok()) return;  // flipped ids/slices: fine, it refused
    auto corpus =
        (*router)->QueryCorpus(*query, query::MatchMode::kEquality);
    if (!corpus.ok()) return;
    EXPECT_EQ(corpus->aggregate.Total(), truth);
  };

  std::string wire = shard::EncodeCatalog(catalog);

  // Truncations at every prefix length must reject, never crash.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(shard::DecodeCatalog(wire.substr(0, cut)).ok());
  }

  // Every single-bit flip: reject, or decode to a catalog that either
  // fails to route or routes to the true totals.
  for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::string flipped = wire;
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    auto decoded = shard::DecodeCatalog(flipped);
    if (decoded.ok()) route_matches_truth(*decoded);
  }

  // Purely random frames.
  Random rng(1717);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng.Uniform(trial % 5 == 0 ? 256 : 24);
    std::string frame;
    frame.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      frame.push_back(static_cast<char>(rng.Uniform(256)));
    }
    auto decoded = shard::DecodeCatalog(frame);
    if (decoded.ok()) route_matches_truth(*decoded);
    shard::DecodeEntry(frame);  // must not crash; outcome is irrelevant
  }

  // Oversized counts: a varint claiming 2^40..2^62 entries (or slices)
  // must be rejected up front — the decoder may never size a vector from
  // an unvalidated count (would OOM before the truncation is noticed).
  for (int shift = 40; shift <= 62; ++shift) {
    uint64_t huge = uint64_t{1} << shift;
    std::string counted;
    uint64_t value = huge;
    while (value >= 0x80) {
      counted.push_back(static_cast<char>(0x80 | (value & 0x7f)));
      value >>= 7;
    }
    counted.push_back(static_cast<char>(value));
    std::string catalog_frame;
    catalog_frame.push_back(1);  // version
    catalog_frame += counted;    // entry-count bomb
    EXPECT_FALSE(shard::DecodeCatalog(catalog_frame).ok());
    // An entry whose slice count is huge: valid doc id, then the bomb.
    std::string entry_frame;
    entry_frame.push_back(3);
    entry_frame += "doc";
    entry_frame.push_back(0);  // group
    entry_frame += counted;
    EXPECT_FALSE(shard::DecodeEntry(entry_frame).ok());
  }

  // The unmutated wire still round-trips after the barrage.
  auto survivor = shard::DecodeCatalog(wire);
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor->entries(), catalog.entries());
  route_matches_truth(*survivor);
}

// Proof-bearing aggregate replies (DESIGN.md §9) under an adversarial
// transport: the verified-aggregation client is fed truncated, bit-flipped,
// random and oversized reply frames through a scripted channel. Every
// attempt must end in an error or a verification failure — an ok result
// must carry the true totals. Never a crash, never a silent accept.
TEST(FuzzTest, VerifiedAggregateReplyDecoderNeverAcceptsGarbage) {
  // One-shot channel: ignores requests, answers the first Receive with the
  // scripted frame and fails afterwards.
  class ScriptedChannel : public rpc::Channel {
   public:
    explicit ScriptedChannel(std::string reply) : reply_(std::move(reply)) {}
    Status Send(std::string_view) override { return Status::OK(); }
    StatusOr<std::string> Receive() override {
      if (delivered_) return Status::Internal("scripted reply exhausted");
      delivered_ = true;
      return reply_;
    }
    void Close() override {}
    uint64_t bytes_sent() const override { return 0; }
    uint64_t bytes_received() const override { return 0; }
    uint64_t messages_sent() const override { return 0; }

   private:
    std::string reply_;
    bool delivered_ = false;
  };

  auto db = testing_helpers::BuildTestDb(testing_helpers::SmallAuctionXml());
  agg::Spec spec;
  spec.columns = agg::ColBit(agg::Col::kEqualSelf) |
                 agg::ColBit(agg::Col::kEqualDesc);
  spec.value_count = static_cast<uint32_t>(db->map.size());
  spec.value_indexes = {0, 1};
  spec.pres = {1};
  auto truth = db->client->AggregateVerified(spec);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  auto attempt = [&](const std::string& frame) {
    auto channel = std::make_unique<ScriptedChannel>(frame);
    rpc::RemoteServerFilter remote(db->ring, std::move(channel));
    filter::ClientFilter client(db->ring, prg::Prg(db->seed), &remote);
    auto result = client.AggregateVerified(spec);
    if (result.ok()) {
      EXPECT_EQ(result->totals, truth->totals) << "silently wrong answer";
    }
    return result.ok();
  };

  // The genuine reply, produced by a real server for this exact spec.
  rpc::RpcServer server(db->ring, db->server.get());
  rpc::Request request;
  request.op = rpc::Op::kAggregateBatchVerified;
  request.agg_columns = spec.columns;
  request.value_indexes = spec.value_indexes;
  request.pres = spec.pres;
  std::string genuine = server.HandleRequest(rpc::EncodeRequest(request));
  ASSERT_TRUE(attempt(genuine)) << "honest reply must verify";

  // Every proper truncation of the genuine frame.
  for (size_t cut = 0; cut < genuine.size(); ++cut) {
    attempt(genuine.substr(0, cut));
  }

  // Every single-bit corruption of the genuine frame.
  for (size_t byte = 0; byte < genuine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string frame = genuine;
      frame[byte] ^= static_cast<char>(1u << bit);
      attempt(frame);
    }
  }

  // Random frames, half of them wearing a valid ok-envelope byte.
  Random rng(1889);
  for (int trial = 0; trial < 300; ++trial) {
    std::string frame;
    size_t len = rng.Uniform(96);
    frame.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      frame.push_back(static_cast<char>(rng.Uniform(256)));
    }
    if (!frame.empty() && rng.Bernoulli(0.5)) frame[0] = 0x01;
    attempt(frame);
  }

  // Oversized counts: an ok envelope whose entry (or per-entry word) count
  // varint claims 2^40..2^62 elements must be rejected, not allocated.
  for (int shift = 40; shift <= 62; ++shift) {
    for (bool nested : {false, true}) {
      std::string frame;
      frame.push_back(0x01);       // ok envelope
      if (nested) frame.push_back(0x01);  // one entry, huge word count
      uint64_t huge = uint64_t{1} << shift;
      while (huge >= 0x80) {
        frame.push_back(static_cast<char>(0x80 | (huge & 0x7f)));
        huge >>= 7;
      }
      frame.push_back(static_cast<char>(huge));
      EXPECT_FALSE(attempt(frame));
    }
  }
}

TEST(FuzzTest, SaxParserNeverCrashesOnGarbage) {
  Random rng(17);
  const char charset[] = "<>ab/\"=' !&;-?[]";
  class NullHandler : public xml::SaxHandler {
   public:
    Status StartElement(std::string_view,
                        const xml::AttributeList&) override {
      return Status::OK();
    }
    Status EndElement(std::string_view) override { return Status::OK(); }
    Status Characters(std::string_view) override { return Status::OK(); }
  };
  for (int trial = 0; trial < 1000; ++trial) {
    std::string garbage;
    size_t len = rng.Uniform(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(charset[rng.Uniform(sizeof(charset) - 1)]);
    }
    NullHandler handler;
    xml::SaxParser parser;
    parser.Parse(garbage, &handler).ok();  // must not crash
  }
}

}  // namespace
}  // namespace ssdb
