// Shared fixtures: build a fully-encoded in-memory database (plus annotated
// DOM and ground-truth machinery) from an XML string.

#ifndef SSDB_TESTS_TEST_HELPERS_H_
#define SSDB_TESTS_TEST_HELPERS_H_

#include <memory>
#include <set>
#include <string>

#include "encode/encoder.h"
#include "filter/client_filter.h"
#include "filter/server_filter.h"
#include "gf/ring.h"
#include "mapping/tag_map.h"
#include "prg/prg.h"
#include "storage/memory_backend.h"
#include "trie/trie_xml.h"
#include "util/logging.h"
#include "xml/dom.h"

namespace ssdb::testing_helpers {

// A row with only the fixed columns and a share set; the blob fields and
// the nonce keep their defaults.
inline storage::NodeRow MakeRow(uint32_t pre, uint32_t post, uint32_t parent,
                                std::string share) {
  storage::NodeRow row;
  row.pre = pre;
  row.post = post;
  row.parent = parent;
  row.share = std::move(share);
  return row;
}

// FNV-1a over stored rows and counters: a byte pin of what the encoder and
// the mutation planner write (every field of every row, lengths included).
class RowDigest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) AddByte(static_cast<uint8_t>(value >> (8 * i)));
  }
  void AddBytes(const std::string& bytes) {
    Add(bytes.size());
    for (char c : bytes) AddByte(static_cast<uint8_t>(c));
  }
  void AddRow(const storage::NodeRow& row) {
    Add(row.pre);
    Add(row.post);
    Add(row.parent);
    Add(row.nonce);
    AddBytes(row.share);
    AddBytes(row.agg);
    AddBytes(row.verify);
    AddBytes(row.sealed);
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct TestDb {
  gf::Field field;
  gf::Ring ring;
  mapping::TagMap map;
  prg::Seed seed;
  xml::Document doc;  // AnnotatePrePost'ed (trie-transformed if requested)
  std::unique_ptr<storage::MemoryNodeStore> store;
  std::unique_ptr<filter::LocalServerFilter> server;
  std::unique_ptr<filter::ClientFilter> client;
  encode::EncodeResult encode_result;

  TestDb(gf::Field f, mapping::TagMap m)
      : field(f), ring(f), map(std::move(m)), seed(prg::Seed::FromUint64(7)) {}
};

// Tag names appearing in a document, in first-appearance order.
inline std::vector<std::string> CollectNames(const xml::Document& doc) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  xml::ForEachElement(doc.root(), [&](const xml::Node& node) {
    if (seen.insert(node.name).second) names.push_back(node.name);
  });
  return names;
}

inline std::unique_ptr<TestDb> BuildTestDb(const std::string& xml,
                                           uint32_t p = 83,
                                           bool trie = false) {
  auto field_or = gf::Field::Make(p);
  SSDB_CHECK(field_or.ok());

  auto doc_or = xml::ParseDocument(xml);
  SSDB_CHECK(doc_or.ok()) << doc_or.status().ToString();
  xml::Document doc = std::move(*doc_or);
  if (trie) {
    trie::TransformDocument(&doc);
  }
  xml::AnnotatePrePost(&doc);

  std::vector<std::string> names = CollectNames(doc);
  if (trie) {
    std::set<std::string> present(names.begin(), names.end());
    for (const auto& label : trie::TrieAlphabet()) {
      if (present.insert(label).second) names.push_back(label);
    }
  }
  auto map_or = mapping::TagMap::FromNames(names, *field_or);
  SSDB_CHECK(map_or.ok()) << map_or.status().ToString();

  auto db = std::make_unique<TestDb>(*field_or, std::move(*map_or));
  db->doc = std::move(doc);
  db->store = std::make_unique<storage::MemoryNodeStore>();

  encode::EncodeOptions options;
  options.trie = trie;
  // Memory-backed fixtures carry the §9 verification track so any test can
  // exercise verified aggregation; disk encodes keep the default (off).
  options.verify_aggregate = true;
  encode::Encoder encoder(db->ring, db->map, prg::Prg(db->seed),
                          db->store.get(), options);
  auto result = encoder.EncodeString(xml);
  SSDB_CHECK(result.ok()) << result.status().ToString();
  db->encode_result = *result;

  db->server = std::make_unique<filter::LocalServerFilter>(db->ring,
                                                           db->store.get());
  db->client = std::make_unique<filter::ClientFilter>(
      db->ring, prg::Prg(db->seed), db->server.get());
  return db;
}

// A small but structurally rich auction-flavoured document used across
// filter/engine tests (two persons with cities, auctions with bidders).
inline std::string SmallAuctionXml() {
  return R"(<site>
  <regions>
    <europe>
      <item><name>clock</name><description><text>old clock</text></description></item>
    </europe>
    <asia>
      <item><name>vase</name><description><text>ming vase</text></description></item>
    </asia>
  </regions>
  <people>
    <person>
      <name>Joan Johnson</name>
      <address><street>Main St</street><city>Amsterdam</city><country>NL</country></address>
    </person>
    <person>
      <name>John Smith</name>
      <address><street>Oak Ave</street><city>Berlin</city><country>DE</country></address>
    </person>
    <person>
      <name>Mary Miller</name>
    </person>
  </people>
  <open_auctions>
    <open_auction>
      <bidder><date>01/02/2003</date><time>10:15</time></bidder>
      <bidder><date>02/03/2003</date><time>11:30</time></bidder>
      <current>12.50</current>
    </open_auction>
    <open_auction>
      <current>99.99</current>
    </open_auction>
  </open_auctions>
</site>)";
}

}  // namespace ssdb::testing_helpers

#endif  // SSDB_TESTS_TEST_HELPERS_H_
