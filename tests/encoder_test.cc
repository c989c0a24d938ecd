#include <gtest/gtest.h>

#include "gf/poly.h"
#include "gf/share.h"
#include "test_helpers.h"
#include "xmark/generator.h"

namespace ssdb::encode {
namespace {

using testing_helpers::BuildTestDb;
using testing_helpers::SmallAuctionXml;

// Recomputes a node's true (reduced) polynomial from the DOM, bottom-up.
gf::RingElem TruePoly(const gf::Ring& ring, const mapping::TagMap& map,
                      const xml::Node& node) {
  gf::RingElem poly = ring.XMinus(*map.Lookup(node.name));
  for (const auto& child : node.children) {
    if (!child->IsElement()) continue;
    poly = ring.Mul(poly, TruePoly(ring, map, *child));
  }
  return poly;
}

void CheckNode(const testing_helpers::TestDb& db, const xml::Node& node) {
  auto row = db.store->GetByPre(node.pre);
  ASSERT_TRUE(row.ok()) << "pre=" << node.pre;
  EXPECT_EQ(row->post, node.post);
  EXPECT_EQ(row->parent, node.parent_pre);
  // client share (PRG) + stored server share == true polynomial.
  prg::Prg prg(db.seed);
  gf::RingElem client = prg.ClientShare(db.ring, node.pre);
  auto server = db.ring.Deserialize(row->share);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(gf::Combine(db.ring, client, *server),
            TruePoly(db.ring, db.map, node))
      << "node " << node.name << " pre=" << node.pre;
  for (const auto& child : node.children) {
    if (child->IsElement()) CheckNode(db, *child);
  }
}

TEST(EncoderTest, PrePostParentAndSharesMatchDom) {
  auto db = BuildTestDb(SmallAuctionXml());
  EXPECT_EQ(db->encode_result.node_count, db->doc.ElementCount());
  CheckNode(*db, *db->doc.root());
}

// Byte pins: the digest of every row of every slice (and the byte counters)
// of fixed-seed encodes. Any change to a share, mask, column or seal draw
// moves one of these; a refactor of the encoder must leave all of them.
uint64_t EncodeDigest(uint32_t m, bool aggregates, bool verify, bool seal,
                      bool trie) {
  auto fixture = BuildTestDb(SmallAuctionXml(), 83, trie);
  std::vector<std::unique_ptr<storage::MemoryNodeStore>> stores;
  std::vector<storage::NodeStore*> targets;
  for (uint32_t i = 0; i < m; ++i) {
    stores.push_back(std::make_unique<storage::MemoryNodeStore>());
    targets.push_back(stores.back().get());
  }
  EncodeOptions options;
  options.trie = trie;
  options.aggregate_columns = aggregates;
  options.verify_aggregate = verify;
  options.seal_content = seal;
  Encoder encoder(fixture->ring, fixture->map,
                  prg::Prg(prg::Seed::FromUint64(11)), targets, options);
  auto result = encoder.EncodeString(SmallAuctionXml());
  SSDB_CHECK(result.ok()) << result.status().ToString();

  testing_helpers::RowDigest digest;
  digest.Add(result->node_count);
  digest.Add(result->max_depth);
  digest.Add(result->share_bytes);
  digest.Add(result->agg_bytes);
  digest.Add(result->verify_bytes);
  for (auto& store : stores) {
    for (uint32_t pre = 1; pre <= result->node_count; ++pre) {
      auto row = store->GetByPre(pre);
      SSDB_CHECK(row.ok()) << row.status().ToString();
      digest.AddRow(*row);
    }
  }
  return digest.value();
}

TEST(EncoderTest, StoredRowsArePinned) {
  struct Case {
    uint32_t m;
    bool aggregates, verify, seal, trie;
    uint64_t digest;
  };
  const Case cases[] = {
      {1, true, false, false, false, 0xcb1bd8623c46ef8eull},
      {1, true, false, true, false, 0x2b86a9d1af4eda19ull},
      {1, true, true, false, false, 0x8c226a03a24c3bafull},
      {1, true, true, true, false, 0x9bce9c41be6eacaeull},
      {2, true, false, false, false, 0xaa9576afa5c11a12ull},
      {2, true, false, true, false, 0x1c25662f3380df0dull},
      {2, true, true, false, false, 0x68913d3c2e16910bull},
      {2, true, true, true, false, 0x6655f68f73b5679eull},
      {2, false, false, true, false, 0x80367f9f38d464acull},
      {2, true, true, true, true, 0xf5524ff5033ed7b7ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(EncodeDigest(c.m, c.aggregates, c.verify, c.seal, c.trie),
              c.digest)
        << "m=" << c.m << " aggregates=" << c.aggregates
        << " verify=" << c.verify << " seal=" << c.seal << " trie=" << c.trie;
  }
}

TEST(EncoderTest, FailsOnUnmappedTag) {
  auto field = *gf::Field::Make(83);
  auto map = *mapping::TagMap::FromNames({"a"}, field);
  gf::Ring ring(field);
  storage::MemoryNodeStore store;
  Encoder encoder(ring, map, prg::Prg(prg::Seed::FromUint64(1)), &store);
  EXPECT_FALSE(encoder.EncodeString("<a><unmapped/></a>").ok());
}

TEST(EncoderTest, FailsOnNonEmptyStore) {
  auto field = *gf::Field::Make(83);
  auto map = *mapping::TagMap::FromNames({"a"}, field);
  gf::Ring ring(field);
  storage::MemoryNodeStore store;
  Encoder encoder(ring, map, prg::Prg(prg::Seed::FromUint64(1)), &store);
  ASSERT_TRUE(encoder.EncodeString("<a/>").ok());
  EXPECT_FALSE(encoder.EncodeString("<a/>").ok());
}

TEST(EncoderTest, TrieModeEncodesTextAsNodes) {
  std::string xml = "<name>Jo</name>";
  // Non-trie: 1 node. Trie: name + j + o + _end_ = 4 nodes.
  auto plain = BuildTestDb(xml);
  EXPECT_EQ(plain->encode_result.node_count, 1u);
  auto trie_db = BuildTestDb(xml, 83, /*trie=*/true);
  EXPECT_EQ(trie_db->encode_result.node_count, 4u);
  // Numbering still matches the (transformed) DOM.
  CheckNode(*trie_db, *trie_db->doc.root());
}

TEST(EncoderTest, ShareBytesMatchRingSize) {
  auto db = BuildTestDb(SmallAuctionXml());
  EXPECT_EQ(db->encode_result.share_bytes,
            db->encode_result.node_count * db->ring.serialized_bytes());
}

TEST(EncoderTest, SealedPayloadsRoundTrip) {
  // §4 extension: name + direct text sealed under the seed, opaque to the
  // server, revealed exactly by the client.
  auto field = *gf::Field::Make(83);
  auto map = *mapping::TagMap::FromNames({"person", "name", "age"}, field);
  gf::Ring ring(field);
  prg::Seed seed = prg::Seed::FromUint64(55);
  storage::MemoryNodeStore store;
  EncodeOptions options;
  options.seal_content = true;
  Encoder encoder(ring, map, prg::Prg(seed), &store, options);
  ASSERT_TRUE(
      encoder
          .EncodeString(
              "<person><name>Joan Johnson</name><age>30</age></person>")
          .ok());

  // Server-visible bytes must not contain the plaintext.
  auto row = store.GetByPre(2);
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(row->sealed.empty());
  EXPECT_EQ(row->sealed.find("Joan"), std::string::npos);
  EXPECT_EQ(row->sealed.find("name"), std::string::npos);

  filter::LocalServerFilter server(ring, &store);
  filter::ClientFilter client(ring, prg::Prg(seed), &server);
  auto node = client.GetNode(2);
  ASSERT_TRUE(node.ok());
  auto revealed = client.Reveal(*node);
  ASSERT_TRUE(revealed.ok()) << revealed.status().ToString();
  EXPECT_EQ(revealed->name, "name");
  EXPECT_EQ(revealed->text, "Joan Johnson");

  auto root_revealed = client.Reveal(*client.Root());
  ASSERT_TRUE(root_revealed.ok());
  EXPECT_EQ(root_revealed->name, "person");
  EXPECT_EQ(root_revealed->text, "");

  // A wrong seed yields garbage, not the plaintext.
  filter::ClientFilter wrong(ring, prg::Prg(prg::Seed::FromUint64(56)),
                             &server);
  auto garbage = wrong.Reveal(*node);
  if (garbage.ok()) {
    EXPECT_NE(garbage->text, "Joan Johnson");
  }
}

TEST(EncoderTest, UnsealedDatabaseRefusesReveal) {
  auto db = BuildTestDb(SmallAuctionXml());
  auto root = db->client->Root();
  ASSERT_TRUE(root.ok());
  auto revealed = db->client->Reveal(*root);
  EXPECT_FALSE(revealed.ok());
  EXPECT_EQ(revealed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EncoderTest, XmarkDocumentEncodesCleanly) {
  xmark::GeneratorOptions options;
  options.target_bytes = 40 << 10;
  auto generated = xmark::GenerateAuctionDocument(options);
  auto db = BuildTestDb(generated.xml);
  EXPECT_EQ(db->encode_result.node_count, db->doc.ElementCount());
  EXPECT_GT(db->encode_result.node_count, 100u);
  // Spot-check a person node's share reconstructs.
  CheckNode(*db, *db->doc.root()->children[0]);
}

}  // namespace
}  // namespace ssdb::encode
