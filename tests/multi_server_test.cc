// Multi-server share fan-out (DESIGN.md §5): slice algebra, query-result
// consistency for m = 1, 2, 4, straggler round-trip accounting over real
// channels, byte-identical m = 1 wire behaviour, and tamper evidence when
// one server's share slice is modified.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "filter/multi_server_filter.h"
#include "query/ground_truth.h"
#include "fault_injection.h"
#include "rpc/multi_session.h"
#include "rpc/server.h"
#include "test_helpers.h"
#include "xmark/generator.h"

namespace ssdb {
namespace {

constexpr uint32_t kServerCounts[] = {1, 2, 4};

std::string CorpusXml() {
  xmark::GeneratorOptions gen;
  gen.target_bytes = 20 << 10;
  gen.seed = 77;
  return xmark::GenerateAuctionDocument(gen).xml;
}

StatusOr<std::unique_ptr<core::EncryptedXmlDatabase>> EncodeWithServers(
    const std::string& xml, const mapping::TagMap& map, const prg::Seed& seed,
    uint32_t servers) {
  core::DatabaseOptions options;
  options.backend = core::Backend::kMemory;
  options.servers = servers;
  return core::EncryptedXmlDatabase::Encode(xml, map, seed, options);
}

class MultiServerTest : public ::testing::Test {
 protected:
  MultiServerTest()
      : field_(*gf::Field::Make(83)),
        ring_(field_),
        map_(*core::EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                       field_, false)),
        seed_(prg::Seed::FromUint64(2718)),
        xml_(CorpusXml()) {}

  gf::Field field_;
  gf::Ring ring_;
  mapping::TagMap map_;
  prg::Seed seed_;
  std::string xml_;
};

TEST_F(MultiServerTest, SliceSumsEqualClassicServerShare) {
  // For every node, the sum of the m slices must equal the m = 1 server
  // share — the additive split refines the classic one without changing
  // what the client reconstructs.
  auto single = EncodeWithServers(xml_, map_, seed_, 1);
  ASSERT_TRUE(single.ok());
  uint64_t nodes = *(*single)->store()->NodeCount();
  ASSERT_GT(nodes, 100u);

  for (uint32_t servers : {2u, 4u}) {
    auto multi = EncodeWithServers(xml_, map_, seed_, servers);
    ASSERT_TRUE(multi.ok());
    for (uint32_t pre = 1; pre <= nodes; ++pre) {
      auto classic_row = (*single)->store()->GetByPre(pre);
      ASSERT_TRUE(classic_row.ok());
      gf::RingElem classic = *ring_.Deserialize(classic_row->share);

      gf::RingElem sum = ring_.Zero();
      for (uint32_t i = 0; i < servers; ++i) {
        auto row = (*multi)->slice_store(i)->GetByPre(pre);
        ASSERT_TRUE(row.ok());
        // Structure columns are replicated to every slice.
        EXPECT_EQ(row->post, classic_row->post);
        EXPECT_EQ(row->parent, classic_row->parent);
        ring_.AddInto(&sum, *ring_.Deserialize(row->share));
      }
      ASSERT_EQ(sum, classic) << "pre=" << pre << " m=" << servers;
    }
  }
}

TEST_F(MultiServerTest, QueryResultsIdenticalAcrossServerCounts) {
  auto doc = *xml::ParseDocument(xml_);
  xml::AnnotatePrePost(&doc);

  const char* queries[] = {
      "/site/regions/europe/item",
      "/site//europe//item",
      "/site/*/person//city",
      "//bidder/date",
  };
  for (const char* text : queries) {
    auto parsed = query::ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    auto truth = query::EvaluateGroundTruth(*parsed, doc);
    ASSERT_TRUE(truth.ok());
    std::set<uint32_t> expected(truth->begin(), truth->end());

    for (uint32_t servers : kServerCounts) {
      auto db = EncodeWithServers(xml_, map_, seed_, servers);
      ASSERT_TRUE(db.ok());
      for (core::EngineKind engine :
           {core::EngineKind::kSimple, core::EngineKind::kAdvanced}) {
        auto result = (*db)->QueryParsed(*parsed, engine,
                                         query::MatchMode::kEquality);
        ASSERT_TRUE(result.ok()) << text << " m=" << servers;
        std::set<uint32_t> actual;
        for (const auto& node : result->nodes) actual.insert(node.pre);
        EXPECT_EQ(actual, expected) << text << " m=" << servers;
      }
    }
  }
}

TEST_F(MultiServerTest, FanOutRoundTripsMatchSingleServerCase) {
  // The acceptance invariant: per-step round trips under concurrent m = 2
  // fan-out equal the m = 1 case; the raw per-server counters each equal
  // the single-server count.
  const std::string text = "/site/*/person//city";
  auto parsed = *query::ParseQuery(text);

  auto run_remote = [&](uint32_t servers, query::QueryStats* stats) {
    auto db = EncodeWithServers(xml_, map_, seed_, servers);
    SSDB_CHECK(db.ok());
    std::vector<std::unique_ptr<filter::ServerFilter>> slice_filters;
    std::vector<std::unique_ptr<rpc::ServerThread>> server_threads;
    std::vector<std::unique_ptr<rpc::Channel>> client_channels;
    for (uint32_t i = 0; i < servers; ++i) {
      rpc::ChannelPair pair = rpc::CreateInProcessChannelPair();
      slice_filters.push_back(std::make_unique<filter::LocalServerFilter>(
          ring_, (*db)->slice_store(i)));
      server_threads.push_back(std::make_unique<rpc::ServerThread>(
          ring_, slice_filters.back().get(), std::move(pair.server)));
      client_channels.push_back(std::move(pair.client));
    }
    auto session = *rpc::MultiServerSession::FromChannels(
        ring_, std::move(client_channels));
    filter::ClientFilter client(ring_, prg::Prg(seed_), session->filter());
    query::AdvancedEngine engine(&client, &map_);
    auto result = engine.Execute(parsed, query::MatchMode::kEquality, stats);
    SSDB_CHECK(result.ok());
    SSDB_CHECK_OK(session->Shutdown());
    return result->size();
  };

  query::QueryStats one, two;
  size_t results_one = run_remote(1, &one);
  size_t results_two = run_remote(2, &two);

  EXPECT_EQ(results_one, results_two);
  EXPECT_GT(one.eval.round_trips, 0u);
  EXPECT_EQ(two.eval.round_trips, one.eval.round_trips);
  ASSERT_EQ(two.eval.per_server_round_trips.size(), 2u);
  // The primary serves structure + shares and matches the m = 1 count; the
  // second server only sees the fanned-out share exchanges.
  EXPECT_EQ(two.eval.per_server_round_trips[0], one.eval.round_trips);
  EXPECT_GT(two.eval.per_server_round_trips[1], 0u);
  EXPECT_LT(two.eval.per_server_round_trips[1],
            two.eval.per_server_round_trips[0]);
  EXPECT_GT(two.eval.straggler_seconds, 0.0);
}

TEST_F(MultiServerTest, SingleServerSessionIsByteIdenticalOnTheWire) {
  // A 1-channel MultiServerSession must move exactly the same bytes as a
  // plain RemoteServerFilter: the m = 1 path adds nothing to the wire.
  const std::string text = "/site//europe//item";
  auto parsed = *query::ParseQuery(text);

  auto run = [&](bool use_session) {
    auto db = EncodeWithServers(xml_, map_, seed_, 1);
    SSDB_CHECK(db.ok());
    rpc::ChannelPair pair = rpc::CreateInProcessChannelPair();
    filter::LocalServerFilter slice(ring_, (*db)->store());
    rpc::ServerThread server_thread(ring_, &slice, std::move(pair.server));
    uint64_t bytes = 0;
    if (use_session) {
      std::vector<std::unique_ptr<rpc::Channel>> channels;
      channels.push_back(std::move(pair.client));
      auto session =
          *rpc::MultiServerSession::FromChannels(ring_, std::move(channels));
      filter::ClientFilter client(ring_, prg::Prg(seed_), session->filter());
      query::AdvancedEngine engine(&client, &map_);
      SSDB_CHECK(engine.Execute(parsed, query::MatchMode::kEquality,
                                nullptr).ok());
      bytes = session->bytes_on_wire();
      SSDB_CHECK_OK(session->Shutdown());
    } else {
      rpc::RemoteServerFilter remote(ring_, std::move(pair.client));
      filter::ClientFilter client(ring_, prg::Prg(seed_), &remote);
      query::AdvancedEngine engine(&client, &map_);
      SSDB_CHECK(engine.Execute(parsed, query::MatchMode::kEquality,
                                nullptr).ok());
      bytes = remote.channel().bytes_sent() +
              remote.channel().bytes_received();
      SSDB_CHECK_OK(remote.Shutdown());
    }
    return bytes;
  };

  uint64_t direct = run(false);
  uint64_t via_session = run(true);
  EXPECT_GT(direct, 0u);
  EXPECT_EQ(via_session, direct);
}

TEST_F(MultiServerTest, TamperedSliceIsDetectedByFullVerification) {
  // The "one compromised host modifies its slice" scenario, built from the
  // shared fault-injection harness (tests/fault_injection.h).
  auto db = EncodeWithServers(xml_, map_, seed_, 2);
  ASSERT_TRUE(db.ok());
  filter::LocalServerFilter slice0(ring_, (*db)->slice_store(0));
  filter::LocalServerFilter slice1(ring_, (*db)->slice_store(1));
  testing_helpers::FaultConfig config;
  config.fault = testing_helpers::Fault::kAddOne;
  config.on_eval = true;
  config.on_share = true;
  testing_helpers::TamperingServerFilter tampered(ring_, &slice1, config);

  filter::MultiServerFilter fanout(ring_, {&slice0, &tampered});
  filter::ClientFilter client(ring_, prg::Prg(seed_), &fanout);
  client.set_full_verification(true);

  auto root = client.Root();
  ASSERT_TRUE(root.ok());
  auto recovered = client.RecoverOwnValue(*root);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
      << recovered.status().ToString();
  EXPECT_GT(tampered.faults_injected(), 0u);

  // Control: the untampered fan-out recovers the root's tag under the same
  // full-verification mode.
  filter::MultiServerFilter honest(ring_, {&slice0, &slice1});
  filter::ClientFilter honest_client(ring_, prg::Prg(seed_), &honest);
  honest_client.set_full_verification(true);
  auto honest_root = honest_client.Root();
  ASSERT_TRUE(honest_root.ok());
  auto honest_value = honest_client.RecoverOwnValue(*honest_root);
  ASSERT_TRUE(honest_value.ok()) << honest_value.status().ToString();
  EXPECT_EQ(*honest_value, *map_.Lookup("site"));
}

TEST_F(MultiServerTest, TamperedGridIsDetectedWithoutFullVerification) {
  // Default mode checks each strict test at the grid's other points: one
  // slice adding 1 to every grid value it returns must turn a strict query
  // into Corruption, never into a wrong answer. The simple engine's strict
  // steps use equality only, and every candidate below has children: a
  // leaf's polynomial is x - t, so a constant added to its values is a
  // consistent shift that no check at any point can see.
  auto db = EncodeWithServers(xml_, map_, seed_, 2);
  ASSERT_TRUE(db.ok());
  testing_helpers::FaultConfig config;
  config.fault = testing_helpers::Fault::kAddOne;
  config.on_eval = true;
  testing_helpers::TamperingServerFilter tampered(
      ring_, (*db)->slice_filter(1), config);
  auto client = core::EncryptedXmlDatabase::FromFilters(
      {(*db)->slice_filter(0), &tampered}, map_, seed_, 83, 1);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto doc = *xml::ParseDocument(xml_);
  xml::AnnotatePrePost(&doc);
  for (const char* text : {"/site/people/person", "/site/regions/europe/item",
                           "/site/open_auctions/open_auction/bidder"}) {
    auto parsed = query::ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    const uint64_t before = tampered.faults_injected();
    auto result = (*client)->QueryParsed(*parsed, core::EngineKind::kSimple,
                                         query::MatchMode::kEquality);
    EXPECT_GT(tampered.faults_injected(), before) << text;
    if (result.ok()) {
      std::vector<uint32_t> actual;
      for (const auto& node : result->nodes) actual.push_back(node.pre);
      EXPECT_EQ(actual, *query::EvaluateGroundTruth(*parsed, doc)) << text;
    }
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << text << ": " << result.status().ToString();
  }

  // Control: the honest slice answers every query exactly.
  for (const char* text :
       {"/site/people/person", "/site/regions/europe/item"}) {
    auto parsed = query::ParseQuery(text);
    auto result = (*db)->QueryParsed(*parsed, core::EngineKind::kSimple,
                                     query::MatchMode::kEquality);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->nodes.size(),
              query::EvaluateGroundTruth(*parsed, doc)->size());
  }
}

TEST_F(MultiServerTest, ParentStepsNeedNoStructureFromThePrimary) {
  // '..' used to ask the primary for the parents (NodesBatch), and a
  // primary lost mid-step once gave a short answer. Parents now come off
  // the skeleton the client loaded at open (DESIGN.md §6), so a primary
  // that loses its structure plane afterwards changes no answer.
  auto db = EncodeWithServers(xml_, map_, seed_, 2);
  ASSERT_TRUE(db.ok());
  testing_helpers::TamperingServerFilter primary(
      ring_, (*db)->slice_filter(0), testing_helpers::FaultConfig{});
  std::vector<filter::ServerFilter*> slices = {&primary,
                                               (*db)->slice_filter(1)};
  std::vector<std::unique_ptr<rpc::ServerThread>> servers;
  std::vector<std::unique_ptr<rpc::Channel>> channels;
  for (filter::ServerFilter* slice : slices) {
    rpc::ChannelPair pair = rpc::CreateInProcessChannelPair();
    servers.push_back(std::make_unique<rpc::ServerThread>(
        ring_, slice, std::move(pair.server)));
    channels.push_back(std::move(pair.client));
  }
  auto client = core::EncryptedXmlDatabase::ConnectRemoteMulti(
      std::move(channels), map_, seed_, 83, 1);
  ASSERT_TRUE(client.ok());
  primary.config().skeleton = testing_helpers::SkeletonFault::kFail;

  auto doc = xml::ParseDocument(xml_);
  ASSERT_TRUE(doc.ok());
  xml::AnnotatePrePost(&*doc);
  for (const char* text : {"//address/../name", "/site/people/person/.."}) {
    auto parsed = query::ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    for (core::EngineKind engine :
         {core::EngineKind::kSimple, core::EngineKind::kAdvanced}) {
      auto result = (*client)->QueryParsed(*parsed, engine,
                                           query::MatchMode::kEquality);
      ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
      std::vector<uint32_t> actual;
      for (const filter::NodeMeta& node : result->nodes) {
        actual.push_back(node.pre);
      }
      EXPECT_EQ(actual, *query::EvaluateGroundTruth(*parsed, *doc)) << text;
    }
  }
  EXPECT_EQ(primary.faults_injected(), 0u);

  // Only the root may drop out of '..': it has no parent.
  auto root_parent = (*client)->Query("/site/..", core::EngineKind::kSimple,
                                      query::MatchMode::kContainment);
  ASSERT_TRUE(root_parent.ok()) << root_parent.status().ToString();
  EXPECT_TRUE(root_parent->nodes.empty());
}

TEST_F(MultiServerTest, StragglerCountersAreConsistentUnderConcurrency) {
  // Regression (TSan): round_trips_ / straggler_seconds_ used to be plain
  // fields updated by concurrent fan-out calls — a data race, and drops of
  // whole increments under contention. Hammer one shared fan-out from
  // several threads while others read the counters mid-flight.
  auto db = EncodeWithServers(xml_, map_, seed_, 2);
  ASSERT_TRUE(db.ok());
  filter::LocalServerFilter slice0(ring_, (*db)->slice_store(0));
  filter::LocalServerFilter slice1(ring_, (*db)->slice_store(1));
  filter::MultiServerFilter fanout(ring_, {&slice0, &slice1});

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        uint64_t trips = fanout.RoundTrips();
        double seconds = fanout.StragglerSeconds();
        // Monotone and never garbage/torn.
        if (trips < last || seconds < 0.0) failures.fetch_add(1);
        last = trips;
      }
    });
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        if (!fanout.Root().ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : writers) thread.join();
  done.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  // Every call is one straggler round trip; none may be lost to a race.
  EXPECT_EQ(fanout.RoundTrips(),
            static_cast<uint64_t>(kThreads) * kCallsPerThread);
  EXPECT_GE(fanout.StragglerSeconds(), 0.0);
}

}  // namespace
}  // namespace ssdb
