// Full-pipeline integration: disk storage + unix-socket RPC + both query
// engines + both matching rules, verified against plaintext ground truth —
// the complete fig. 3 architecture in one test binary.

#include <gtest/gtest.h>

#include <unistd.h>

#include <set>
#include <thread>

#include "core/database.h"
#include "query/ground_truth.h"
#include "rpc/socket_channel.h"
#include "storage/table.h"
#include "test_helpers.h"
#include "util/file_util.h"
#include "xmark/generator.h"

namespace ssdb {
namespace {

TEST(IntegrationTest, FullPipelineOverUnixSocketAgainstGroundTruth) {
  // 1. Generate a synthetic auction document.
  xmark::GeneratorOptions gen;
  gen.target_bytes = 30 << 10;
  gen.seed = 99;
  auto generated = xmark::GenerateAuctionDocument(gen);

  // 2. Server side: encode onto disk.
  TempDir dir("integration");
  auto field = *gf::Field::Make(83);
  auto map = *core::EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                       field, false);
  prg::Seed seed = prg::Seed::FromUint64(31415);
  core::DatabaseOptions options;
  options.backend = core::Backend::kDisk;
  options.disk_path = dir.FilePath("server.ssdb");
  auto server_db =
      core::EncryptedXmlDatabase::Encode(generated.xml, map, seed, options);
  ASSERT_TRUE(server_db.ok()) << server_db.status().ToString();

  // 3. Serve over a unix socket on a background thread.
  std::string socket_path =
      "/tmp/ssdb_integration_" + std::to_string(::getpid()) + ".sock";
  auto listener = rpc::UnixServerSocket::Listen(socket_path);
  ASSERT_TRUE(listener.ok());
  std::thread server_thread([&] {
    auto channel = (*listener)->Accept();
    if (!channel.ok()) return;
    (*server_db)->Serve(channel->get());
  });

  // 4. Client side: connect with only the seed + map.
  auto channel = rpc::ConnectUnix(socket_path);
  ASSERT_TRUE(channel.ok());
  std::vector<std::unique_ptr<rpc::Channel>> channels;
  channels.push_back(std::move(*channel));
  auto client_db = core::EncryptedXmlDatabase::ConnectRemoteMulti(
      std::move(channels), map, seed, 83, 1);
  ASSERT_TRUE(client_db.ok());

  // 5. Ground truth on the plaintext DOM.
  auto doc = *xml::ParseDocument(generated.xml);
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

    for (core::EngineKind engine :
         {core::EngineKind::kSimple, core::EngineKind::kAdvanced}) {
      auto result = (*client_db)
                        ->QueryParsed(*parsed, engine,
                                      query::MatchMode::kEquality);
      ASSERT_TRUE(result.ok()) << text;
      std::set<uint32_t> actual;
      for (const auto& node : result->nodes) actual.insert(node.pre);
      EXPECT_EQ(actual, expected)
          << text << " engine="
          << (engine == core::EngineKind::kSimple ? "simple" : "advanced");
    }
  }

  // 6. Shut the server down cleanly by closing the client channel: the
  // ClientFilter owns it via the db; dropping the db closes the channel.
  client_db->reset();
  server_thread.join();
}

TEST(IntegrationTest, ReopenedDiskDatabaseStillAnswers) {
  TempDir dir("integration_reopen");
  std::string db_path = dir.FilePath("db.ssdb");
  auto field = *gf::Field::Make(83);
  auto map = *core::EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                       field, false);
  prg::Seed seed = prg::Seed::FromUint64(8);

  xmark::GeneratorOptions gen;
  gen.target_bytes = 15 << 10;
  auto generated = xmark::GenerateAuctionDocument(gen);

  size_t person_count = 0;
  {
    core::DatabaseOptions options;
    options.backend = core::Backend::kDisk;
    options.disk_path = db_path;
    auto db = core::EncryptedXmlDatabase::Encode(generated.xml, map, seed,
                                                 options);
    ASSERT_TRUE(db.ok());
    auto result = (*db)->Query("/site/people/person",
                               core::EngineKind::kAdvanced,
                               query::MatchMode::kEquality);
    ASSERT_TRUE(result.ok());
    person_count = result->nodes.size();
    ASSERT_GT(person_count, 0u);
  }

  // Reopen the raw store and query through a fresh filter stack — the
  // database file alone (plus seed + map) is sufficient.
  auto store = storage::DiskNodeStore::Open(db_path);
  ASSERT_TRUE(store.ok());
  gf::Ring ring(field);
  filter::LocalServerFilter server(ring, store->get());
  filter::ClientFilter client(ring, prg::Prg(seed), &server);
  query::AdvancedEngine engine(&client, &map);
  auto parsed = query::ParseQuery("/site/people/person");
  ASSERT_TRUE(parsed.ok());
  auto result = engine.Execute(*parsed, query::MatchMode::kEquality, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), person_count);
}

}  // namespace
}  // namespace ssdb
