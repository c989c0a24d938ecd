// Secure aggregation subsystem (DESIGN.md §8): COUNT/SUM/EXISTS/GROUP-BY
// answers over an xmark document must match the materialized query path and
// the plaintext ground truth for m = 1, 2, 4 servers under both match
// modes; aggregate round trips must be O(query steps) and independent of
// the candidate-set size; the per-server response payload must be
// O(groups), not O(candidates); and a single server's transcript must
// contain only masked partials (tamper evidence analogous to
// multi_server_test.cc).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agg/aggregation.h"
#include "agg/columns.h"
#include "core/database.h"
#include "fault_injection.h"
#include "query/ground_truth.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "test_helpers.h"
#include "xmark/generator.h"

namespace ssdb {
namespace {

using agg::Result;
using query::Aggregate;
using query::MatchMode;

constexpr uint32_t kServerCounts[] = {1, 2, 4};
constexpr MatchMode kModes[] = {MatchMode::kContainment,
                                MatchMode::kEquality};

std::string CorpusXml(uint64_t target_bytes = 20 << 10) {
  xmark::GeneratorOptions gen;
  gen.target_bytes = target_bytes;
  gen.seed = 77;
  return xmark::GenerateAuctionDocument(gen).xml;
}

// Element rows of the annotated DOM, for plaintext reference aggregates.
struct DomRow {
  uint32_t pre = 0;
  uint32_t post = 0;
  std::string name;
};

std::vector<DomRow> DomRows(const xml::Document& doc) {
  std::vector<DomRow> rows;
  xml::ForEachElement(doc.root(), [&](const xml::Node& node) {
    rows.push_back({node.pre, node.post, node.name});
  });
  return rows;
}

// Occurrences of `tag` in the subtree of the node with the given pre/post
// (descendant-or-self), straight off the plaintext.
uint64_t Occurrences(const std::vector<DomRow>& rows, uint32_t pre,
                     uint32_t post, const std::string& tag) {
  uint64_t count = 0;
  for (const DomRow& row : rows) {
    if (row.pre >= pre && row.post <= post && row.name == tag) ++count;
  }
  return count;
}

class AggTest : public ::testing::Test {
 protected:
  AggTest()
      : field_(*gf::Field::Make(83)),
        map_(*core::EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                       field_, false)),
        seed_(prg::Seed::FromUint64(2718)),
        xml_(CorpusXml()) {
    auto doc = xml::ParseDocument(xml_);
    SSDB_CHECK(doc.ok());
    doc_ = std::move(*doc);
    xml::AnnotatePrePost(&doc_);
    rows_ = DomRows(doc_);
  }

  std::unique_ptr<core::EncryptedXmlDatabase> Encode(uint32_t servers) {
    core::DatabaseOptions options;
    options.backend = core::Backend::kMemory;
    options.servers = servers;
    auto db = core::EncryptedXmlDatabase::Encode(xml_, map_, seed_, options);
    SSDB_CHECK(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  gf::Field field_;
  mapping::TagMap map_;
  prg::Seed seed_;
  std::string xml_;
  xml::Document doc_;
  std::vector<DomRow> rows_;
};

// Queries covering both axes, single-step paths, wildcards, and deep
// descents on the xmark structure.
const char* kPaths[] = {
    "/site",
    "//item",
    "/site/people/person",
    "/site//person/name",
    "//open_auction/bidder",
    "/site/regions/*",
    "//person//city",
    "/site/*",
};

TEST_F(AggTest, CountExistsSumMatchMaterializedForAllServerCounts) {
  for (uint32_t servers : kServerCounts) {
    auto db = Encode(servers);
    for (const char* path : kPaths) {
      for (MatchMode mode : kModes) {
        for (core::EngineKind engine :
             {core::EngineKind::kSimple, core::EngineKind::kAdvanced}) {
          auto parsed = query::ParseQuery(path);
          ASSERT_TRUE(parsed.ok()) << path;
          auto materialized = db->QueryParsed(*parsed, engine, mode);
          ASSERT_TRUE(materialized.ok()) << path;

          auto count = db->Query(std::string("count(") + path + ")", engine,
                                 mode);
          ASSERT_TRUE(count.ok()) << count.status().ToString() << " " << path;
          EXPECT_TRUE(count->is_aggregate);
          bool wildcard_final = parsed->steps.back().kind ==
                                query::Step::Kind::kWildcard;
          if (wildcard_final && mode == MatchMode::kContainment) {
            // Containment group-by groups overlap (a subtree contains many
            // tags), so the check is per group: how many result nodes
            // contain each tag — not a partition of the result set.
            for (size_t g = 0; g < count->aggregate.values.size(); ++g) {
              uint64_t expected = 0;
              for (const auto& node : materialized->nodes) {
                if (Occurrences(rows_, node.pre, node.post,
                                count->aggregate.group_names[g]) > 0) {
                  ++expected;
                }
              }
              EXPECT_EQ(count->aggregate.values[g], expected)
                  << "count(" << path << ") group "
                  << count->aggregate.group_names[g] << " m=" << servers;
            }
          } else {
            EXPECT_EQ(count->aggregate.Total(), materialized->nodes.size())
                << "count(" << path << ") m=" << servers << " "
                << query::MatchModeName(mode);
          }

          auto exists = db->Query(std::string("exists(") + path + ")",
                                  engine, mode);
          ASSERT_TRUE(exists.ok()) << path;
          EXPECT_EQ(exists->aggregate.Exists(),
                    !materialized->nodes.empty())
              << "exists(" << path << ") m=" << servers;

          auto sum =
              db->Query(std::string("sum(") + path + ")", engine, mode);
          ASSERT_TRUE(sum.ok()) << sum.status().ToString() << " " << path;
          // Reference: Σ over the same-mode materialized result of the
          // plaintext subtree occurrences of each group's tag. In equality
          // mode every match contributes exactly its own occurrence, so
          // sum == count by construction (DESIGN.md §8).
          if (mode == MatchMode::kEquality) {
            EXPECT_EQ(sum->aggregate.Total(), count->aggregate.Total())
                << "sum(" << path << ") strict m=" << servers;
          } else {
            ASSERT_EQ(sum->aggregate.values.size(),
                      sum->aggregate.group_names.size());
            for (size_t g = 0; g < sum->aggregate.values.size(); ++g) {
              uint64_t expected = 0;
              for (const auto& node : materialized->nodes) {
                expected += Occurrences(rows_, node.pre, node.post,
                                        sum->aggregate.group_names[g]);
              }
              EXPECT_EQ(sum->aggregate.values[g], expected)
                  << "sum(" << path << ") group "
                  << sum->aggregate.group_names[g] << " m=" << servers;
            }
          }
        }
      }
    }
  }
}

TEST_F(AggTest, StrictCountMatchesGroundTruth) {
  auto db = Encode(2);
  for (const char* path : kPaths) {
    auto parsed = query::ParseQuery(path);
    ASSERT_TRUE(parsed.ok()) << path;
    auto truth = query::EvaluateGroundTruth(*parsed, doc_);
    ASSERT_TRUE(truth.ok()) << path;
    auto count = db->Query(std::string("count(") + path + ")",
                           core::EngineKind::kAdvanced, MatchMode::kEquality);
    ASSERT_TRUE(count.ok()) << path;
    EXPECT_EQ(count->aggregate.Total(), truth->size()) << path;
  }
}

TEST_F(AggTest, GroupByHistogramMatchesPerTagOwnership) {
  auto db = Encode(2);
  auto parsed = query::ParseQuery("count(/site/*)");
  ASSERT_TRUE(parsed.ok());
  auto grouped = db->QueryParsed(*parsed, core::EngineKind::kSimple,
                                 MatchMode::kEquality);
  ASSERT_TRUE(grouped.ok());
  EXPECT_TRUE(grouped->aggregate.group_by);
  EXPECT_EQ(grouped->aggregate.values.size(), map_.size());
  EXPECT_EQ(grouped->stats.result_size, map_.size());

  // Plaintext histogram of /site children's own tags.
  std::map<std::string, uint64_t> expected;
  auto materialized = db->Query("/site/*", core::EngineKind::kSimple,
                                MatchMode::kEquality);
  ASSERT_TRUE(materialized.ok());
  std::map<uint32_t, std::string> name_of;
  for (const DomRow& row : rows_) name_of[row.pre] = row.name;
  for (const auto& node : materialized->nodes) {
    ++expected[name_of[node.pre]];
  }
  uint64_t nonzero_groups = 0;
  for (size_t g = 0; g < grouped->aggregate.values.size(); ++g) {
    const std::string& name = grouped->aggregate.group_names[g];
    uint64_t want = expected.count(name) ? expected[name] : 0;
    EXPECT_EQ(grouped->aggregate.values[g], want) << name;
    if (want != 0) ++nonzero_groups;
  }
  EXPECT_GT(nonzero_groups, 2u);  // /site has several distinct child tags
  EXPECT_EQ(grouped->aggregate.Total(), materialized->nodes.size());
}

TEST_F(AggTest, FallbackPathsStayExact) {
  auto db = Encode(2);
  for (MatchMode mode : kModes) {
    // Final step with a predicate: outside the column algebra.
    auto materialized = db->Query("/site/people/person[address]",
                                  core::EngineKind::kSimple, mode);
    ASSERT_TRUE(materialized.ok());
    auto count = db->Query("count(/site/people/person[address])",
                           core::EngineKind::kSimple, mode);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->aggregate.Total(), materialized->nodes.size());

    auto sum = db->Query("sum(/site/people/person[address])",
                         core::EngineKind::kSimple, mode);
    ASSERT_TRUE(sum.ok());
    uint64_t expected = 0;
    for (const auto& node : materialized->nodes) {
      expected += mode == MatchMode::kEquality
                      ? 1
                      : Occurrences(rows_, node.pre, node.post, "person");
    }
    EXPECT_EQ(sum->aggregate.Total(), expected);

    // '..' final step: count works, sum is rejected cleanly.
    auto parent_count = db->Query("count(/site/people/person/..)",
                                  core::EngineKind::kSimple, mode);
    ASSERT_TRUE(parent_count.ok());
    auto parent_materialized = db->Query("/site/people/person/..",
                                         core::EngineKind::kSimple, mode);
    ASSERT_TRUE(parent_materialized.ok());
    EXPECT_EQ(parent_count->aggregate.Total(),
              parent_materialized->nodes.size());
    EXPECT_FALSE(db->Query("sum(/site/people/person/..)",
                           core::EngineKind::kSimple, mode)
                     .ok());
  }
}

TEST_F(AggTest, UnmappedTagAggregatesToZero) {
  auto db = Encode(1);
  auto count = db->Query("count(/site/no_such_tag)",
                         core::EngineKind::kSimple, MatchMode::kEquality);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->aggregate.Total(), 0u);
  EXPECT_FALSE(count->aggregate.Exists());
}

TEST_F(AggTest, CoveringSetDropsNestedNodes) {
  // site(1) > people(2) > person(3); person nested under both.
  std::vector<filter::NodeMeta> nodes = {
      {5, 2, 2},   // some sibling subtree
      {1, 10, 0},  // root: covers everything
      {2, 9, 1},   // nested in root
      {5, 2, 2},   // duplicate
  };
  std::vector<filter::NodeMeta> covering = filter::CoveringSet(nodes);
  ASSERT_EQ(covering.size(), 1u);
  EXPECT_EQ(covering[0].pre, 1u);

  // Disjoint siblings all survive.
  std::vector<filter::NodeMeta> siblings = {{2, 3, 1}, {5, 6, 1}, {8, 9, 1}};
  EXPECT_EQ(filter::CoveringSet(siblings).size(), 3u);
}

// Remote deployment: aggregate round trips are O(query steps) and the
// response payload is O(groups) — both independent of the candidate count.
TEST_F(AggTest, RemoteAggregateIsOneExchangeAndOGroupsBytes) {
  for (const uint64_t target_bytes : {uint64_t{8} << 10, uint64_t{40} << 10}) {
    xmark::GeneratorOptions gen;
    gen.target_bytes = target_bytes;
    gen.seed = 9;
    std::string xml = xmark::GenerateAuctionDocument(gen).xml;

    core::DatabaseOptions options;
    options.backend = core::Backend::kMemory;
    auto served = core::EncryptedXmlDatabase::Encode(xml, map_, seed_,
                                                     options);
    ASSERT_TRUE(served.ok());

    rpc::ChannelPair pair = rpc::CreateInProcessChannelPair();
    rpc::Channel* client_channel = pair.client.get();
    rpc::ServerThread server_thread((*served)->ring(),
                                    (*served)->server_filter(),
                                    std::move(pair.server));
    std::vector<std::unique_ptr<rpc::Channel>> channels;
    channels.push_back(std::move(pair.client));
    auto remote = core::EncryptedXmlDatabase::ConnectRemoteMulti(
        std::move(channels), map_, seed_, 83, 1);
    ASSERT_TRUE(remote.ok());

    // Materialized baseline: bytes grow with the candidate set.
    auto fetch = (*remote)->Query("//item", core::EngineKind::kSimple,
                                  MatchMode::kContainment);
    ASSERT_TRUE(fetch.ok());
    uint64_t fetch_received = client_channel->bytes_received();

    uint64_t before_received = fetch_received;
    auto count = (*remote)->Query("count(//item)", core::EngineKind::kSimple,
                                  MatchMode::kContainment);
    ASSERT_TRUE(count.ok());
    uint64_t agg_received = client_channel->bytes_received() -
                            before_received;
    EXPECT_EQ(count->aggregate.Total(), fetch->nodes.size());

    // count(//item) is a single-step aggregate: the root and the step
    // come off the skeleton loaded at open, so the query is the one
    // partial-aggregate exchange, whatever the document size.
    EXPECT_EQ(count->stats.eval.round_trips, 1u)
        << "target_bytes=" << target_bytes;
    EXPECT_EQ(count->stats.eval.aggregate_ops, 1u);
    EXPECT_EQ(count->stats.result_size, 1u);
    // Response = one masked word (plus envelope); far below the
    // materialized transfer and independent of the candidate count.
    EXPECT_LT(agg_received, 64u);
    EXPECT_GT(fetch->nodes.size(), 10u);

    // Group-by: one word per mapped tag, still one exchange.
    before_received = client_channel->bytes_received();
    auto grouped = (*remote)->Query("count(//*)", core::EngineKind::kSimple,
                                    MatchMode::kEquality);
    ASSERT_TRUE(grouped.ok());
    uint64_t grouped_received = client_channel->bytes_received() -
                                before_received;
    EXPECT_EQ(grouped->stats.eval.round_trips, 1u);
    EXPECT_LT(grouped_received, 64u + 8u * map_.size());
    // Every element has exactly one tag: strict group-by over all
    // descendants-or-self of the root partitions the document.
    EXPECT_EQ(grouped->aggregate.Total(),
              (*served)->encode_result().node_count);

    // A remote client talks through a fan-out; with one channel its only
    // backend is the RemoteServerFilter.
    auto* fanout =
        static_cast<filter::MultiServerFilter*>((*remote)->server_filter());
    auto shutdown =
        static_cast<rpc::RemoteServerFilter*>(fanout->backend(0))->Shutdown();
    ASSERT_TRUE(shutdown.ok());
  }
}

TEST_F(AggTest, SingleServerPartialsAreMaskedAndTamperEvident) {
  auto db = Encode(2);
  agg::Spec spec;
  spec.columns = agg::ColBit(agg::Col::kContainSelf) |
                 agg::ColBit(agg::Col::kContainDesc);
  spec.pres = {1};  // the root: fold over the whole document
  auto item = map_.Lookup("item");
  ASSERT_TRUE(item.ok());
  auto index = map_.ValueIndex(*item);
  ASSERT_TRUE(index.ok());
  spec.value_indexes = {*index};
  spec.value_count = static_cast<uint32_t>(map_.size());

  // The true count: nodes whose subtree contains an item.
  spec.value_count = static_cast<uint32_t>(map_.size());
  auto combined = db->client_filter()->Aggregate(spec);
  ASSERT_TRUE(combined.ok());
  uint64_t truth = 0;
  for (const DomRow& row : rows_) {
    if (Occurrences(rows_, row.pre, row.post, "item") > 0) ++truth;
  }
  EXPECT_EQ((*combined)[0], truth);

  // Each slice's partial alone is a masked word, not the answer — and two
  // different seeds mask the same data differently while combining to the
  // same truth.
  std::vector<agg::Word> partials;
  for (size_t i = 0; i < 2; ++i) {
    auto partial = db->slice_filter(i)->PartialAggregate(spec);
    ASSERT_TRUE(partial.ok());
    partials.push_back((*partial)[0]);
    EXPECT_NE(static_cast<uint64_t>((*partial)[0]), truth)
        << "slice " << i << " partial equals the plaintext answer";
  }

  prg::Seed other_seed = prg::Seed::FromUint64(999);
  core::DatabaseOptions options;
  options.backend = core::Backend::kMemory;
  options.servers = 2;
  auto other = core::EncryptedXmlDatabase::Encode(xml_, map_, other_seed,
                                                  options);
  ASSERT_TRUE(other.ok());
  auto other_combined = (*other)->client_filter()->Aggregate(spec);
  ASSERT_TRUE(other_combined.ok());
  EXPECT_EQ((*other_combined)[0], truth);
  for (size_t i = 0; i < 2; ++i) {
    auto partial = (*other)->slice_filter(i)->PartialAggregate(spec);
    ASSERT_TRUE(partial.ok());
    EXPECT_NE((*partial)[0], partials[i])
        << "slice " << i << " partial did not change with the seed";
  }

  // Tamper evidence: perturb one slice's partials (via the shared harness,
  // tests/fault_injection.h) and the combined aggregate no longer matches
  // the materialized count — the client's cross-check catches a lying
  // server. Identification needs the §9 track (verified_agg_test.cc).
  testing_helpers::FaultConfig config;
  config.fault = testing_helpers::Fault::kAddOne;
  config.on_aggregate = true;
  testing_helpers::TamperingServerFilter tampered(db->ring(),
                                                  db->slice_filter(1),
                                                  config);
  filter::MultiServerFilter fanout(db->ring(),
                                   {db->slice_filter(0), &tampered});
  filter::ClientFilter client(db->ring(), prg::Prg(seed_), &fanout);
  auto tampered_total = client.Aggregate(spec);
  ASSERT_TRUE(tampered_total.ok());
  EXPECT_NE((*tampered_total)[0], truth);
  EXPECT_EQ(static_cast<agg::Word>((*tampered_total)[0]),
            static_cast<agg::Word>(truth + 1));
}

TEST_F(AggTest, DatabaseWithoutAggregateColumnsFailsCleanly) {
  core::DatabaseOptions options;
  options.backend = core::Backend::kMemory;
  options.encode.aggregate_columns = false;
  auto db = core::EncryptedXmlDatabase::Encode(xml_, map_, seed_, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->encode_result().agg_bytes, 0u);

  // Plain queries still work...
  auto plain = (*db)->Query("/site/people/person", core::EngineKind::kSimple,
                            MatchMode::kEquality);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->nodes.empty());

  // ...but aggregates report the missing columns instead of guessing.
  auto count = (*db)->Query("count(//item)", core::EngineKind::kSimple,
                            MatchMode::kEquality);
  EXPECT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AggTest, AggregateOpsRejectMalformedSpecs) {
  auto db = Encode(1);
  filter::ServerFilter* server = db->server_filter();

  agg::Spec spec;
  spec.pres = {1};
  spec.value_indexes = {0};
  spec.columns = 0;  // no columns selected
  EXPECT_FALSE(server->PartialAggregate(spec).ok());

  spec.columns = 0x80;  // outside the seven defined columns
  EXPECT_FALSE(server->PartialAggregate(spec).ok());

  spec.columns = agg::ColBit(agg::Col::kEqualSelf);
  spec.value_indexes = {static_cast<uint32_t>(map_.size()) + 5};
  EXPECT_FALSE(server->PartialAggregate(spec).ok());

  spec.value_indexes = {};
  EXPECT_FALSE(server->PartialAggregate(spec).ok());
}

}  // namespace
}  // namespace ssdb
