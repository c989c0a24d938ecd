#include <gtest/gtest.h>

#include "core/database.h"
#include "test_helpers.h"
#include "util/file_util.h"
#include "xmark/generator.h"

namespace ssdb::core {
namespace {

using testing_helpers::SmallAuctionXml;

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : field_(*gf::Field::Make(83)),
        seed_(prg::Seed::FromUint64(2024)) {}

  mapping::TagMap MapForXmark(bool trie = false) {
    auto map = EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                  field_, trie);
    SSDB_CHECK(map.ok()) << map.status().ToString();
    return std::move(*map);
  }

  gf::Field field_;
  prg::Seed seed_;
};

TEST_F(CoreTest, TagMapForDtdCoversElementsAndAlphabet) {
  // Plain: the 77 DTD elements fit F_83. With the trie alphabet (37 more)
  // they cannot — that combination needs a larger field.
  EXPECT_EQ(MapForXmark().size(), 77u);
  auto too_small = EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                      field_, true);
  EXPECT_FALSE(too_small.ok());
  auto bigger = *gf::Field::Make(127);
  auto with_trie = EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(),
                                                      bigger, true);
  ASSERT_TRUE(with_trie.ok());
  EXPECT_EQ(with_trie->size(), 77u + 37u);
}

TEST_F(CoreTest, EncodeAndQueryMemoryBackend) {
  auto map = MapForXmark();
  xmark::GeneratorOptions gen;
  gen.target_bytes = 40 << 10;
  auto generated = xmark::GenerateAuctionDocument(gen);

  DatabaseOptions options;
  auto db = EncryptedXmlDatabase::Encode(generated.xml, map, seed_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GT((*db)->encode_result().node_count, 100u);

  auto result = (*db)->Query("/site/people/person", EngineKind::kAdvanced,
                             query::MatchMode::kEquality);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->nodes.size(), generated.person_count);
  EXPECT_GT(result->stats.eval.evaluations, 0u);

  // Both engines and both modes agree on result membership of true hits.
  auto simple = (*db)->Query("/site/people/person", EngineKind::kSimple,
                             query::MatchMode::kEquality);
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple->nodes.size(), result->nodes.size());
}

TEST_F(CoreTest, EncodeAndQueryDiskBackend) {
  TempDir dir("core_disk");
  auto map = MapForXmark();
  xmark::GeneratorOptions gen;
  gen.target_bytes = 20 << 10;
  auto generated = xmark::GenerateAuctionDocument(gen);

  DatabaseOptions options;
  options.backend = Backend::kDisk;
  options.disk_path = dir.FilePath("auction.ssdb");
  auto db = EncryptedXmlDatabase::Encode(generated.xml, map, seed_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  auto result = (*db)->Query("//bidder/date", EngineKind::kAdvanced,
                             query::MatchMode::kEquality);
  ASSERT_TRUE(result.ok());
  auto memory_db = EncryptedXmlDatabase::Encode(generated.xml, map, seed_,
                                                DatabaseOptions{});
  ASSERT_TRUE(memory_db.ok());
  auto memory_result = (*memory_db)
                           ->Query("//bidder/date", EngineKind::kAdvanced,
                                   query::MatchMode::kEquality);
  ASSERT_TRUE(memory_result.ok());
  ASSERT_EQ(result->nodes.size(), memory_result->nodes.size());
  for (size_t i = 0; i < result->nodes.size(); ++i) {
    EXPECT_EQ(result->nodes[i].pre, memory_result->nodes[i].pre);
  }
}

TEST_F(CoreTest, RemoteClientOverInProcessChannel) {
  auto map = MapForXmark();
  xmark::GeneratorOptions gen;
  gen.target_bytes = 20 << 10;
  auto generated = xmark::GenerateAuctionDocument(gen);

  auto server_db =
      EncryptedXmlDatabase::Encode(generated.xml, map, seed_, {});
  ASSERT_TRUE(server_db.ok());

  rpc::ChannelPair pair = rpc::CreateInProcessChannelPair();
  rpc::ServerThread server_thread((*server_db)->ring(),
                                  (*server_db)->server_filter(),
                                  std::move(pair.server));

  std::vector<std::unique_ptr<rpc::Channel>> channels;
  channels.push_back(std::move(pair.client));
  auto client_db = EncryptedXmlDatabase::ConnectRemoteMulti(
      std::move(channels), map, seed_, 83, 1);
  ASSERT_TRUE(client_db.ok());

  auto remote_result =
      (*client_db)
          ->Query("/site/*/person//city", EngineKind::kAdvanced,
                  query::MatchMode::kEquality);
  ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();
  auto local_result =
      (*server_db)
          ->Query("/site/*/person//city", EngineKind::kAdvanced,
                  query::MatchMode::kEquality);
  ASSERT_TRUE(local_result.ok());
  ASSERT_EQ(remote_result->nodes.size(), local_result->nodes.size());
  for (size_t i = 0; i < remote_result->nodes.size(); ++i) {
    EXPECT_EQ(remote_result->nodes[i].pre, local_result->nodes[i].pre);
  }
}

TEST_F(CoreTest, TrieDatabaseAnswersContainsQueries) {
  auto bigger = *gf::Field::Make(127);
  auto map = EncryptedXmlDatabase::TagMapForDtd(xmark::AuctionDtd(), bigger,
                                                true);
  ASSERT_TRUE(map.ok());

  DatabaseOptions options;
  options.p = 127;
  options.encode.trie = true;
  auto db = EncryptedXmlDatabase::Encode(
      "<people><person><name>Joan Johnson</name></person>"
      "<person><name>Mary Smith</name></person></people>",
      *map, seed_, options);
  // "people/person/name" are DTD tags; trie chars are in the map.
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto result =
      (*db)->Query("/people/person/name[contains(text(), \"Joan\")]",
                   EngineKind::kAdvanced, query::MatchMode::kEquality);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->nodes.size(), 1u);
}

TEST_F(CoreTest, SealedDatabaseRevealsMatchesEndToEnd) {
  // Query for cities, then reveal the matched nodes' plaintext — over RPC,
  // so the server only ever ships ciphertext.
  auto map = MapForXmark();
  DatabaseOptions options;
  options.encode.seal_content = true;
  auto server_db = EncryptedXmlDatabase::Encode(
      "<site><people>"
      "<person><address><city>Amsterdam</city></address></person>"
      "<person><address><city>Berlin</city></address></person>"
      "</people></site>",
      map, seed_, options);
  ASSERT_TRUE(server_db.ok());

  rpc::ChannelPair pair = rpc::CreateInProcessChannelPair();
  rpc::ServerThread server_thread((*server_db)->ring(),
                                  (*server_db)->server_filter(),
                                  std::move(pair.server));
  std::vector<std::unique_ptr<rpc::Channel>> channels;
  channels.push_back(std::move(pair.client));
  auto client_db = EncryptedXmlDatabase::ConnectRemoteMulti(
      std::move(channels), map, seed_, 83, 1);
  ASSERT_TRUE(client_db.ok());

  auto result = (*client_db)
                    ->Query("//city", EngineKind::kAdvanced,
                            query::MatchMode::kEquality);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->nodes.size(), 2u);
  std::vector<std::string> cities;
  for (const auto& node : result->nodes) {
    auto revealed = (*client_db)->client_filter()->Reveal(node);
    ASSERT_TRUE(revealed.ok()) << revealed.status().ToString();
    EXPECT_EQ(revealed->name, "city");
    cities.push_back(revealed->text);
  }
  EXPECT_EQ(cities, (std::vector<std::string>{"Amsterdam", "Berlin"}));
}

TEST_F(CoreTest, ErrorsSurfaceCleanly) {
  auto map = MapForXmark();
  DatabaseOptions disk_no_path;
  disk_no_path.backend = Backend::kDisk;
  EXPECT_FALSE(
      EncryptedXmlDatabase::Encode("<site/>", map, seed_, disk_no_path)
          .ok());

  auto db = EncryptedXmlDatabase::Encode("<site/>", map, seed_, {});
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->Query("not-a-query", EngineKind::kSimple,
                            query::MatchMode::kEquality)
                   .ok());
}

}  // namespace
}  // namespace ssdb::core
