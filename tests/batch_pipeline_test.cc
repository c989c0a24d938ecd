// Regression coverage for the batched evaluation pipeline: a query step
// costs a bounded number of server round trips regardless of candidate-set
// size — child, '//', '//*', '..' and predicate steps alike, on both engines
// and modes, measured over real unix-domain sockets (m = 1 and m = 2); the
// paged DescendantsBatch op answers exactly across pages, nested roots and
// resume points; and the scalar matching APIs remain exact wrappers over
// the batch path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "query/advanced_engine.h"
#include "query/simple_engine.h"
#include "rpc/client.h"
#include "rpc/concurrent_server.h"
#include "rpc/server.h"
#include "rpc/socket_channel.h"
#include "test_helpers.h"
#include "util/file_util.h"

namespace ssdb {
namespace {

using testing_helpers::BuildTestDb;
using testing_helpers::SmallAuctionXml;
using testing_helpers::TestDb;

// A flat document whose candidate sets grow with `persons` while the query
// shape (step count) stays fixed.
std::string WideXml(int persons) {
  std::string xml = "<site><people>";
  for (int i = 0; i < persons; ++i) {
    xml += "<person><address><city>X</city></address></person>";
  }
  xml += "</people></site>";
  return xml;
}

// Serves `db` over a unix socket on a background thread and runs `body`
// with a connected RemoteServerFilter.
void WithRemote(TestDb* db,
                const std::function<void(rpc::RemoteServerFilter*)>& body) {
  std::string path = "/tmp/ssdb_batch_test_" + std::to_string(::getpid()) +
                     "_" + std::to_string(reinterpret_cast<uintptr_t>(db)) +
                     ".sock";
  auto listener = rpc::UnixServerSocket::Listen(path);
  ASSERT_TRUE(listener.ok());
  std::thread server_thread([&] {
    auto channel = (*listener)->Accept();
    if (!channel.ok()) return;
    rpc::RpcServer server(db->ring, db->server.get());
    server.Serve(channel->get());
  });
  auto channel = rpc::ConnectUnix(path);
  ASSERT_TRUE(channel.ok());
  rpc::RemoteServerFilter remote(db->ring, std::move(*channel));
  body(&remote);
  ASSERT_TRUE(remote.Shutdown().ok());
  server_thread.join();
  ::unlink(path.c_str());
}

// Round trips consumed by one query, measured at the wire.
uint64_t MeasureTrips(TestDb* db, rpc::RemoteServerFilter* remote,
                      query::QueryEngine* engine, const std::string& text,
                      query::MatchMode mode, size_t* result_size = nullptr,
                      query::QueryStats* stats_out = nullptr) {
  auto parsed = query::ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << text;
  uint64_t before = remote->round_trips();
  query::QueryStats stats;
  auto result = engine->Execute(*parsed, mode, &stats);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  if (result_size != nullptr) *result_size = result->size();
  if (stats_out != nullptr) *stats_out = stats;
  (void)db;
  return remote->round_trips() - before;
}

const char* kPrefixQueries[] = {
    "/site",
    "/site/people",
    "/site/people/person",
    "/site/people/person/address",
    "/site/people/person/address/city",
};

TEST(BatchPipelineTest, RoundTripsScaleWithStepsNotCandidates) {
  // The same 5-step containment query over documents with 8x different
  // candidate counts must cost the *identical* number of wire round trips,
  // and that number must be small and linear in the step count.
  std::vector<uint64_t> trips_by_size;
  std::vector<size_t> results_by_size;
  for (int persons : {5, 40}) {
    auto db = BuildTestDb(WideXml(persons));
    WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
      filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
      query::SimpleEngine engine(&client, &db->map);
      size_t results = 0;
      query::QueryStats stats;
      uint64_t trips = MeasureTrips(db.get(), remote, &engine,
                                    kPrefixQueries[4],
                                    query::MatchMode::kContainment, &results,
                                    &stats);
      trips_by_size.push_back(trips);
      results_by_size.push_back(results);
      // The engine-visible counter agrees with the wire.
      EXPECT_EQ(stats.eval.round_trips, trips);
      EXPECT_GT(stats.eval.batched_evaluations, 0u);
    });
  }
  ASSERT_EQ(trips_by_size.size(), 2u);
  EXPECT_EQ(trips_by_size[0], trips_by_size[1])
      << "round trips must not depend on candidate-set size";
  EXPECT_EQ(results_by_size[0], 5u);
  EXPECT_EQ(results_by_size[1], 40u);

  // Simple engine, child steps only: Root + one eval batch for the first
  // step + (children batch + eval batch) per later step = 2s round trips
  // for an s-step query.
  constexpr uint64_t kSteps = 5;
  EXPECT_LE(trips_by_size[0], 2 * kSteps);
}

TEST(BatchPipelineTest, RoundTripsGrowLinearlyWithQueryLength) {
  auto db = BuildTestDb(WideXml(16));
  WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
    filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
    query::SimpleEngine engine(&client, &db->map);
    uint64_t previous = 0;
    for (size_t i = 0; i < std::size(kPrefixQueries); ++i) {
      uint64_t trips = MeasureTrips(db.get(), remote, &engine,
                                    kPrefixQueries[i],
                                    query::MatchMode::kContainment);
      EXPECT_LE(trips, 2 * (i + 1)) << kPrefixQueries[i];
      if (i > 0) {
        // Each extra step costs a bounded constant number of trips.
        EXPECT_LE(trips, previous + 2) << kPrefixQueries[i];
      }
      previous = trips;
    }
  });
}

TEST(BatchPipelineTest, AdvancedEngineTripsIndependentOfCandidates) {
  std::vector<uint64_t> trips_by_size;
  for (int persons : {5, 40}) {
    auto db = BuildTestDb(WideXml(persons));
    WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
      filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
      query::AdvancedEngine engine(&client, &db->map);
      trips_by_size.push_back(
          MeasureTrips(db.get(), remote, &engine, kPrefixQueries[4],
                       query::MatchMode::kContainment));
    });
  }
  ASSERT_EQ(trips_by_size.size(), 2u);
  EXPECT_EQ(trips_by_size[0], trips_by_size[1]);
}

TEST(BatchPipelineTest, EqualityModeTripsIndependentOfCandidates) {
  std::vector<uint64_t> trips_by_size;
  std::vector<size_t> results_by_size;
  for (int persons : {4, 24}) {
    auto db = BuildTestDb(WideXml(persons));
    WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
      filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
      query::SimpleEngine engine(&client, &db->map);
      size_t results = 0;
      trips_by_size.push_back(
          MeasureTrips(db.get(), remote, &engine, "/site/people/person",
                       query::MatchMode::kEquality, &results));
      results_by_size.push_back(results);
    });
  }
  ASSERT_EQ(trips_by_size.size(), 2u);
  EXPECT_EQ(trips_by_size[0], trips_by_size[1])
      << "equality batching must be per step, not per candidate";
  EXPECT_EQ(results_by_size[0], 4u);
  EXPECT_EQ(results_by_size[1], 24u);
}

TEST(BatchPipelineTest, ScalarMethodsMatchBatchPath) {
  auto db = BuildTestDb(SmallAuctionXml());
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  auto children = db->client->Children(*root);
  ASSERT_TRUE(children.ok());
  std::vector<filter::NodeMeta> nodes = *children;
  nodes.push_back(*root);

  for (const char* name : {"person", "city", "site", "open_auction"}) {
    gf::Elem value = *db->map.Lookup(name);
    auto batch = db->client->ContainsValueBatch(nodes, value);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      auto scalar = db->client->ContainsValue(nodes[i], value);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(*scalar, (*batch)[i] != 0) << name << " pre=" << nodes[i].pre;
    }

    auto eq_batch = db->client->EqualsValueBatch(nodes, value);
    ASSERT_TRUE(eq_batch.ok());
    for (size_t i = 0; i < nodes.size(); ++i) {
      auto scalar = db->client->EqualsValue(nodes[i], value);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(*scalar, (*eq_batch)[i] != 0) << name;
    }
  }

  // Multi-value containment: batch mask equals per-node ContainsAllValues.
  std::vector<gf::Elem> values = {*db->map.Lookup("person"),
                                  *db->map.Lookup("city")};
  auto all_mask = db->client->ContainsAllValuesBatch(nodes, values);
  ASSERT_TRUE(all_mask.ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto scalar = db->client->ContainsAllValues(nodes[i], values);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(*scalar, (*all_mask)[i] != 0);
  }
}

TEST(BatchPipelineTest, RecoverOwnValueBatchDeduplicatesShares) {
  auto db = BuildTestDb(SmallAuctionXml());
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  auto children = db->client->Children(*root);
  ASSERT_TRUE(children.ok());

  // Overlapping candidates: the root plus its children; the children's
  // shares are needed both as candidates and as the root's child set.
  std::vector<filter::NodeMeta> nodes = *children;
  nodes.push_back(*root);
  db->client->stats().Reset();
  auto values = db->client->RecoverOwnValueBatch(nodes);
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto scalar = db->client->RecoverOwnValue(nodes[i]);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(*scalar, (*values)[i]);
  }
}

TEST(BatchPipelineTest, EnginesAgreeLocalAndRemoteBothModes) {
  auto db = BuildTestDb(SmallAuctionXml());
  const char* queries[] = {"/site//city", "/site/people/person",
                           "//person/address", "/site/*/person"};
  for (const char* text : queries) {
    auto parsed = query::ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    for (auto mode :
         {query::MatchMode::kContainment, query::MatchMode::kEquality}) {
      // Local reference.
      query::SimpleEngine local_simple(db->client.get(), &db->map);
      query::AdvancedEngine local_advanced(db->client.get(), &db->map);
      auto local_s = local_simple.Execute(*parsed, mode, nullptr);
      auto local_a = local_advanced.Execute(*parsed, mode, nullptr);
      ASSERT_TRUE(local_s.ok() && local_a.ok()) << text;
      EXPECT_EQ(*local_s, *local_a) << text;

      WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
        filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
        query::SimpleEngine remote_simple(&client, &db->map);
        query::AdvancedEngine remote_advanced(&client, &db->map);
        auto remote_s = remote_simple.Execute(*parsed, mode, nullptr);
        auto remote_a = remote_advanced.Execute(*parsed, mode, nullptr);
        ASSERT_TRUE(remote_s.ok() && remote_a.ok()) << text;
        EXPECT_EQ(*remote_s, *local_s) << text;
        EXPECT_EQ(*remote_a, *local_a) << text;
      });
    }
  }
}

// Serves `xml` as m = 2 share slices from concurrent servers over unix
// sockets and returns the round trips each (query, engine, mode) costs.
std::vector<uint64_t> TripsOverTwoSockets(
    const std::string& xml, const std::vector<std::string>& queries) {
  auto map = *mapping::TagMap::FromNames(
      {"site", "people", "person", "address", "city"}, *gf::Field::Make(83));
  const prg::Seed seed = prg::Seed::FromUint64(5);
  core::DatabaseOptions options;
  options.servers = 2;
  auto served = core::EncryptedXmlDatabase::Encode(xml, map, seed, options);
  SSDB_CHECK(served.ok());
  TempDir dir("batch_sockets");
  std::vector<std::unique_ptr<rpc::ConcurrentServer>> servers;
  std::vector<std::unique_ptr<rpc::Channel>> channels;
  for (size_t i = 0; i < 2; ++i) {
    std::string path = dir.FilePath("s" + std::to_string(i) + ".sock");
    auto listener = rpc::UnixServerSocket::Listen(path);
    SSDB_CHECK(listener.ok());
    servers.push_back(std::make_unique<rpc::ConcurrentServer>(
        (*served)->ring(), (*served)->slice_filter(i), std::move(*listener)));
    SSDB_CHECK_OK(servers.back()->Start());
    auto channel = rpc::ConnectUnix(path);
    SSDB_CHECK(channel.ok());
    channels.push_back(std::move(*channel));
  }
  auto client = core::EncryptedXmlDatabase::ConnectRemoteMulti(
      std::move(channels), map, seed, 83, 1);
  SSDB_CHECK(client.ok());
  std::vector<uint64_t> trips;
  for (const std::string& text : queries) {
    for (core::EngineKind engine :
         {core::EngineKind::kSimple, core::EngineKind::kAdvanced}) {
      for (query::MatchMode mode :
           {query::MatchMode::kContainment, query::MatchMode::kEquality}) {
        auto result = (*client)->Query(text, engine, mode);
        EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
        trips.push_back(result.ok() ? result->stats.eval.round_trips : 0);
      }
    }
  }
  return trips;
}

TEST(BatchPipelineTest, EveryAxisCostsTheSameTripsAtAnyCandidateCount) {
  // Simple '//' (first and later steps), '//*' on both engines, '..' and
  // predicates that stay below their origin: each costs a fixed number of
  // exchanges per step, so 8x the candidates must cost exactly the same
  // round trips.
  const std::vector<std::string> queries = {
      "/site//city",
      "//city",
      "/site/people//*",
      "//city/../..",
      "/site/people/person/address/..",
      "/site/people/person[address/city]",
      "/site/people/person[//city]/address",
      "/site/people/person[address/city/..]",
      "/site/*[person/address]//city",
  };
  std::vector<uint64_t> small = TripsOverTwoSockets(WideXml(5), queries);
  std::vector<uint64_t> large = TripsOverTwoSockets(WideXml(40), queries);
  ASSERT_EQ(small.size(), large.size());
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], large[i])
        << queries[i / 4] << (i % 4 < 2 ? " simple" : " advanced")
        << (i % 2 == 0 ? " non-strict" : " strict");
    EXPECT_GT(small[i], 0u);
    // A handful of exchanges per step, never one per candidate.
    EXPECT_LE(small[i], 30u) << queries[i / 4];
  }
}

// Nine nested names, three branches deep: the shape of the ledger's
// chain9 class.
std::string ChainXml() {
  std::string xml = "<c0>";
  for (int branch = 0; branch < 3; ++branch) {
    for (int i = 1; i < 9; ++i) xml += "<c" + std::to_string(i) + ">";
    for (int i = 8; i >= 1; --i) xml += "</c" + std::to_string(i) + ">";
  }
  return xml + "</c0>";
}

TEST(BatchPipelineTest, LookaheadCostsOneExchangePerStep) {
  // The advanced engine's look-ahead asks for every later name in one
  // grid, so a chain query run that way costs no more round trips than
  // the simple engine's strict run (children + grid per step).
  auto db = BuildTestDb(ChainXml());
  const std::string chain = "/c0/c1/c2/c3/c4/c5/c6/c7/c8";
  WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
    filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
    query::SimpleEngine simple(&client, &db->map);
    query::AdvancedEngine advanced(&client, &db->map);
    size_t strict_results = 0;
    size_t contain_results = 0;
    const uint64_t strict = MeasureTrips(db.get(), remote, &simple, chain,
                                         query::MatchMode::kEquality,
                                         &strict_results);
    const uint64_t lookahead = MeasureTrips(
        db.get(), remote, &advanced, chain, query::MatchMode::kContainment,
        &contain_results);
    EXPECT_LE(lookahead, strict);
    EXPECT_EQ(strict_results, 3u);
    EXPECT_EQ(contain_results, 3u);
  });
}

TEST(BatchPipelineTest, StrictGridMovesFieldElementsNotShares) {
  // A strict test ships each distinct node once per slice: its pre out and
  // kGridPoints one-byte values back (p = 83), plus a constant per frame.
  auto db = BuildTestDb(WideXml(40));
  WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
    filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
    auto people = (*client.Children(*client.Root()))[0];
    auto persons = *client.Children(people);
    ASSERT_EQ(persons.size(), 40u);
    auto moved = [&] {
      return remote->channel().bytes_sent() +
             remote->channel().bytes_received();
    };
    // The children exchange alone, measured on its own.
    uint64_t start = moved();
    auto children = client.ChildrenBatch(persons);
    ASSERT_TRUE(children.ok());
    const uint64_t children_bytes = moved() - start;

    uint64_t budget = 0;
    for (size_t i = 0; i < persons.size(); ++i) {
      for (const filter::NodeMeta& node : {persons[i], (*children)[i][0]}) {
        budget += (node.pre < 128 ? 1 : node.pre < 16384 ? 2 : 3) +
                  filter::ClientFilter::kGridPoints;
      }
    }
    constexpr uint64_t kFrameOverhead = 32;  // both frames of one exchange
    start = moved();
    const uint64_t trips_before = remote->round_trips();
    auto equal = client.EqualsValueBatch(persons, *db->map.Lookup("person"));
    ASSERT_TRUE(equal.ok()) << equal.status().ToString();
    EXPECT_EQ(*equal, std::vector<uint8_t>(persons.size(), 1));
    EXPECT_EQ(remote->round_trips() - trips_before, 2u);
    EXPECT_LE(moved() - start - children_bytes, budget + kFrameOverhead);
    EXPECT_EQ(client.stats().shares_fetched, 0u);
  });
}

TEST(BatchPipelineTest, FallbackAnswersExactlyForOneMoreExchange) {
  // The hub's children hold all 81 mapped tags, every non-zero value of
  // F_83 but the spare, so its child product vanishes at all 5 drawn points
  // with probability C(81,5)/C(82,5) ≈ 0.94 per grid. Such a test fetches
  // whole vectors in one more exchange and still answers exactly; a draw
  // that hits the spare value answers from the grid alone.
  std::string xml = "<r><hub><r/><hub/><leaf/>";
  for (int i = 0; i < 78; ++i) xml += "<t" + std::to_string(i) + "/>";
  xml += "</hub><leaf/></r>";
  auto db = BuildTestDb(xml);
  ASSERT_EQ(db->map.size(), 81u);
  WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
    filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
    auto top = *client.Children(*client.Root());
    ASSERT_EQ(top.size(), 2u);
    const gf::Elem hub = *db->map.Lookup("hub");
    size_t fallbacks = 0;
    for (int round = 0; round < 8; ++round) {
      const uint64_t trips_before = remote->round_trips();
      const uint64_t shares_before = client.stats().shares_fetched;
      auto equal = client.EqualsValueBatch(top, hub);
      ASSERT_TRUE(equal.ok()) << equal.status().ToString();
      EXPECT_EQ(*equal, (std::vector<uint8_t>{1, 0}));
      const bool fell_back = client.stats().shares_fetched > shares_before;
      if (fell_back) {
        // The hub and its 81 children, whole; the leaf stayed on the grid.
        EXPECT_EQ(client.stats().shares_fetched - shares_before, 82u);
        ++fallbacks;
      }
      EXPECT_EQ(remote->round_trips() - trips_before, fell_back ? 3u : 2u);
    }
    EXPECT_GT(fallbacks, 0u);
  });
}

// Pages through DescendantsBatch and returns every node; `pages` counts
// the requests.
std::vector<filter::NodeMeta> DrainPages(
    filter::ServerFilter* server, const std::vector<filter::NodeMeta>& roots,
    bool base_class, size_t* pages) {
  std::vector<filter::NodeMeta> all;
  uint32_t resume_after = 0;
  *pages = 0;
  for (;;) {
    ++*pages;
    auto page = base_class ? server->filter::ServerFilter::DescendantsBatch(
                                 roots, resume_after)
                           : server->DescendantsBatch(roots, resume_after);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) return all;
    all.insert(all.end(), page->begin(), page->end());
    if (page->size() < filter::kDescendantsPage) return all;
    resume_after = page->back().pre;
  }
}

// The proper descendants of each root in `sorted_roots` (disjoint, sorted
// by pre), read straight from the store.
std::vector<filter::NodeMeta> ScanAll(
    storage::NodeStore* store,
    const std::vector<filter::NodeMeta>& sorted_roots) {
  std::vector<filter::NodeMeta> out;
  for (const filter::NodeMeta& root : sorted_roots) {
    EXPECT_TRUE(store
                    ->ScanDescendants(root.pre, root.post,
                                      [&](const storage::NodeRow& row) {
                                        out.push_back(filter::MetaOf(row));
                                        return true;
                                      })
                    .ok());
  }
  return out;
}

TEST(BatchPipelineTest, DescendantsBatchPagesNestedAndDuplicateRoots) {
  // 6000 persons x 3 nodes: the root's subtree fills three pages.
  auto db = BuildTestDb(WideXml(6000));
  auto root = *db->client->Root();
  auto people = (*db->client->Children(root))[0];
  auto persons = *db->client->Children(people);
  ASSERT_EQ(persons.size(), 6000u);

  const std::vector<filter::NodeMeta> whole = ScanAll(db->store.get(), {root});
  ASSERT_GT(whole.size(), 2 * filter::kDescendantsPage);
  // Every person, in reverse order and some twice: disjoint roots whose
  // union spans two pages.
  std::vector<filter::NodeMeta> reversed(persons.rbegin(), persons.rend());
  reversed.insert(reversed.end(), persons.begin(), persons.begin() + 100);
  const std::vector<filter::NodeMeta> below_persons =
      ScanAll(db->store.get(), persons);
  ASSERT_GT(below_persons.size(), filter::kDescendantsPage);

  for (bool base_class : {false, true}) {
    size_t pages = 0;
    EXPECT_EQ(DrainPages(db->server.get(),
                         {people, root, people, persons[0], root}, base_class,
                         &pages),
              whole)
        << "base=" << base_class;
    EXPECT_EQ(pages, 3u);
    EXPECT_EQ(DrainPages(db->server.get(), reversed, base_class, &pages),
              below_persons)
        << "base=" << base_class;
    EXPECT_EQ(pages, 2u);

    // Resuming at or past the last node ends the walk.
    for (uint32_t resume : {whole.back().pre, 1u << 30}) {
      auto past =
          base_class
              ? db->server->filter::ServerFilter::DescendantsBatch({root},
                                                                   resume)
              : db->server->DescendantsBatch({root}, resume);
      ASSERT_TRUE(past.ok());
      EXPECT_TRUE(past->empty()) << "resume=" << resume;
    }
  }
  // The cursor-built default drains or closes every cursor it opens.
  EXPECT_EQ(db->server->OpenCursorCount(), 0u);

  // NodesBatch: the local override and the GetNode-loop default agree.
  std::vector<uint32_t> pres = {whole[3].pre, root.pre, whole[1].pre};
  auto local = db->server->NodesBatch(pres);
  auto looped = db->server->filter::ServerFilter::NodesBatch(pres);
  ASSERT_TRUE(local.ok() && looped.ok());
  EXPECT_EQ(*local, *looped);
  EXPECT_EQ((*local)[1], root);
  EXPECT_FALSE(db->server->NodesBatch({whole.back().pre + 1000}).ok());
}

TEST(BatchPipelineTest, DescendantsLargerThanOnePageCostOneTripPerPage) {
  // 2800 persons x 3 nodes: more descendants than one page holds.
  auto db = BuildTestDb(WideXml(2800));
  WithRemote(db.get(), [&](rpc::RemoteServerFilter* remote) {
    filter::ClientFilter client(db->ring, prg::Prg(db->seed), remote);
    auto root = client.Root();
    ASSERT_TRUE(root.ok());
    uint64_t before = remote->round_trips();
    auto all = client.DescendantsBatch({*root, *root});
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ(remote->round_trips() - before, 2u);
    ASSERT_EQ(all->size(), 2800u * 3 + 1);
    ASSERT_GT(all->size(), filter::kDescendantsPage);
    for (size_t i = 0; i < all->size(); ++i) {
      ASSERT_EQ((*all)[i].pre, root->pre + 1 + i);
    }
  });
}

// Records the roots each DescendantsBatch request carries.
class RootRecordingFilter : public filter::LocalServerFilter {
 public:
  using LocalServerFilter::LocalServerFilter;
  StatusOr<std::vector<filter::NodeMeta>> DescendantsBatch(
      const std::vector<filter::NodeMeta>& roots,
      uint32_t resume_after) override {
    root_counts.push_back(roots.size());
    return LocalServerFilter::DescendantsBatch(roots, resume_after);
  }
  std::vector<size_t> root_counts;
};

TEST(BatchPipelineTest, ManyRootsTravelInBoundedWindows) {
  // 9000 covering roots: more than one request may carry.
  auto db = BuildTestDb(WideXml(9000));
  RootRecordingFilter server(db->ring, db->store.get());
  filter::ClientFilter client(db->ring, prg::Prg(db->seed), &server);
  auto root = *client.Root();
  auto people = (*client.Children(root))[0];
  auto persons = *client.Children(people);
  ASSERT_EQ(persons.size(), 9000u);

  auto below = client.DescendantsBatch(persons);
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  EXPECT_EQ(*below, ScanAll(db->store.get(), persons));
  // 18000 nodes are three pages. The first request holds one window of
  // roots; a full page of 2 nodes per person ends inside person
  // 4095 (then 8191), so each later request starts at that person.
  const size_t half = filter::kDescendantsPage / 2;
  EXPECT_EQ(server.root_counts,
            (std::vector<size_t>{filter::kDescendantsPage, 9000 - (half - 1),
                                 9000 - (2 * half - 1)}));

  // Leaf roots have no descendants: one request per window, all empty.
  std::vector<filter::NodeMeta> cities;
  for (size_t i = 1; i < below->size(); i += 2) cities.push_back((*below)[i]);
  server.root_counts.clear();
  auto none = client.DescendantsBatch(cities);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(server.root_counts.size(), 2u);
}

}  // namespace
}  // namespace ssdb
