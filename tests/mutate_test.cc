// Mutable documents (DESIGN.md §12): secret-shared two-phase
// INSERT/UPDATE/DELETE.
//
//  * Equivalence: a mutated database must be indistinguishable — structure,
//    recovered tag values, sealed payloads, aggregate answers — from a fresh
//    encode of the post-mutation document, at every server split m.
//  * Proportionality: MutateStats must scale with the touched subtree and
//    its root path, never with the document (the §12 cost contract).
//  * Atomicity: a failed prepare leaves every slice byte-identical to the
//    committed version; a crash between the phases is healed by recovery —
//    commit iff any slice committed — on the real disk backend, journal and
//    all.
//  * Capacity: the side column store lifts the old ~140-tag cap of the
//    4 KiB heap row, so a 1000-tag map encodes, queries, mutates and
//    reopens on disk.
//  * Column-blind reads: share and structure reads never touch the column
//    store; GetColumns is its only reader, before and after a mutation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/options.h"
#include "agg/columns.h"
#include "encode/reshare.h"
#include "fault_injection.h"
#include "filter/client_filter.h"
#include "filter/multi_server_filter.h"
#include "filter/server_filter.h"
#include "filter/skeleton.h"
#include "gf/field.h"
#include "gf/ring.h"
#include "mapping/tag_map.h"
#include "prg/prg.h"
#include "prg/seed.h"
#include "query/ground_truth.h"
#include "rpc/concurrent_server.h"
#include "rpc/socket_channel.h"
#include "shard/catalog.h"
#include "shard/router.h"
#include "storage/mutation.h"
#include "storage/node_store.h"
#include "storage/table.h"
#include "test_helpers.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "xml/dom.h"

namespace ssdb {
namespace {

using core::Backend;
using core::DatabaseOptions;
using core::EncryptedXmlDatabase;
using core::EngineKind;
using query::MatchMode;

// A small library document with known pre numbers:
//   lib=1 shelfA=2 book=3 title=4 book=5 title=6 shelfB=7 box=8 coin=9
constexpr char kLibXml[] =
    "<lib><shelfA><book><title>t1</title></book>"
    "<book><title>t2</title></book></shelfA>"
    "<shelfB><box><coin>c1</coin></box></shelfB></lib>";

// kLibXml after UPDATE pre=8: box re-tagged to book.
constexpr char kLibBoxRetagged[] =
    "<lib><shelfA><book><title>t1</title></book>"
    "<book><title>t2</title></book></shelfA>"
    "<shelfB><book><coin>c1</coin></book></shelfB></lib>";

// Tag map covering every element name of every given document.
mapping::TagMap MapFor(const std::vector<std::string>& xmls,
                       const gf::Field& field) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const std::string& xml : xmls) {
    auto doc = xml::ParseDocument(xml);
    SSDB_CHECK(doc.ok()) << doc.status().ToString();
    xml::ForEachElement(doc->root(), [&](const xml::Node& node) {
      if (seen.insert(node.name).second) names.push_back(node.name);
    });
  }
  auto map = mapping::TagMap::FromNames(names, field);
  SSDB_CHECK(map.ok()) << map.status().ToString();
  return std::move(*map);
}

// Everything a client can learn about one node; two databases holding the
// same document must produce identical snapshots whatever their seeds,
// nonces, or server split.
struct NodeState {
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t parent = 0;
  gf::Elem value = 0;  // recovered own tag value (the equality test)
  std::string name;    // sealed payload (sealed databases only)
  std::string text;
};

std::vector<NodeState> Snapshot(filter::ClientFilter* client, bool sealed) {
  std::vector<NodeState> out;
  auto root = client->Root();
  SSDB_CHECK(root.ok()) << root.status().ToString();
  std::vector<filter::NodeMeta> stack{*root};
  while (!stack.empty()) {
    filter::NodeMeta meta = stack.back();
    stack.pop_back();
    NodeState state;
    state.pre = meta.pre;
    state.post = meta.post;
    state.parent = meta.parent;
    auto value = client->RecoverOwnValue(meta);
    SSDB_CHECK(value.ok()) << "pre " << meta.pre << ": "
                           << value.status().ToString();
    state.value = *value;
    if (sealed) {
      auto revealed = client->Reveal(meta);
      SSDB_CHECK(revealed.ok()) << "pre " << meta.pre << ": "
                                << revealed.status().ToString();
      state.name = revealed->name;
      state.text = revealed->text;
    }
    out.push_back(state);
    auto children = client->Children(meta);
    SSDB_CHECK(children.ok()) << children.status().ToString();
    for (const filter::NodeMeta& child : *children) stack.push_back(child);
  }
  std::sort(out.begin(), out.end(),
            [](const NodeState& a, const NodeState& b) { return a.pre < b.pre; });
  return out;
}

void ExpectSameDocument(const std::vector<NodeState>& got,
                        const std::vector<NodeState>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pre, want[i].pre) << "node " << i;
    EXPECT_EQ(got[i].post, want[i].post) << "pre " << got[i].pre;
    EXPECT_EQ(got[i].parent, want[i].parent) << "pre " << got[i].pre;
    EXPECT_EQ(got[i].value, want[i].value) << "pre " << got[i].pre;
    EXPECT_EQ(got[i].name, want[i].name) << "pre " << got[i].pre;
    EXPECT_EQ(got[i].text, want[i].text) << "pre " << got[i].pre;
  }
}

class MutateTest : public ::testing::Test {
 protected:
  MutateTest() : field_(*gf::Field::Make(83)), seed_(prg::Seed::FromUint64(7)) {}

  std::unique_ptr<EncryptedXmlDatabase> MakeDb(const std::string& xml,
                                               const mapping::TagMap& map,
                                               uint32_t servers, bool seal) {
    DatabaseOptions options;
    options.servers = servers;
    options.encode.seal_content = seal;
    options.encode.verify_aggregate = true;
    auto db = EncryptedXmlDatabase::Encode(xml, map, seed_, options);
    SSDB_CHECK(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  uint64_t Count(EncryptedXmlDatabase* db, const std::string& q) {
    auto result = db->Query(q, EngineKind::kAdvanced, MatchMode::kEquality);
    SSDB_CHECK(result.ok()) << q << ": " << result.status().ToString();
    return result->aggregate.Total();
  }

  gf::Field field_;
  prg::Seed seed_;
};

// UPDATE re-tag at m = 1, 2, 4: the mutated database must match a fresh
// encode of the post-mutation document node-for-node, and §8 aggregates —
// with the §9 proofs checked — must answer for the new document.
TEST_F(MutateTest, UpdateRetagMatchesFreshEncode) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  for (uint32_t m : {1u, 2u, 4u}) {
    SCOPED_TRACE("servers=" + std::to_string(m));
    auto db = MakeDb(kLibXml, map, m, /*seal=*/true);
    db->aggregation_engine()->set_verify(true);
    ASSERT_EQ(Count(db.get(), "count(/lib//book)"), 2u);
    ASSERT_EQ(Count(db.get(), "count(/lib//box)"), 1u);

    auto result = db->Update(8, "book", std::nullopt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->version, 1u);
    EXPECT_EQ(result->stats.path_nodes, 3u);     // box, shelfB, lib
    EXPECT_EQ(result->stats.subtree_nodes, 1u);  // UPDATE touches one node

    EXPECT_EQ(Count(db.get(), "count(/lib//book)"), 3u);
    EXPECT_EQ(Count(db.get(), "count(/lib//box)"), 0u);

    auto expected = MakeDb(kLibBoxRetagged, map, 1, /*seal=*/true);
    ExpectSameDocument(Snapshot(db->client_filter(), true),
                       Snapshot(expected->client_filter(), true));
  }
}

// Text-only UPDATE takes the fast path: no sibling polynomial is fetched
// (the tree is unchanged), only the root path re-shares and re-seals.
TEST_F(MutateTest, UpdateTextOnlySkipsSiblingFetch) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);

  auto result = db->Update(4, "", std::optional<std::string>("T-ONE"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.children_fetched, 0u);
  EXPECT_EQ(result->stats.path_nodes, 4u);  // title, book, shelfA, lib

  auto node = db->client_filter()->GetNode(4);
  ASSERT_TRUE(node.ok());
  auto revealed = db->client_filter()->Reveal(*node);
  ASSERT_TRUE(revealed.ok()) << revealed.status().ToString();
  EXPECT_EQ(revealed->name, "title");
  EXPECT_EQ(revealed->text, "T-ONE");

  db->aggregation_engine()->set_verify(true);
  EXPECT_EQ(Count(db.get(), "count(/lib//book)"), 2u);

  constexpr char kAfter[] =
      "<lib><shelfA><book><title>T-ONE</title></book>"
      "<book><title>t2</title></book></shelfA>"
      "<shelfB><box><coin>c1</coin></box></shelfB></lib>";
  auto expected = MakeDb(kAfter, map, 1, /*seal=*/true);
  ExpectSameDocument(Snapshot(db->client_filter(), true),
                     Snapshot(expected->client_filter(), true));
}

TEST_F(MutateTest, RejectsInvalidMutations) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/false);

  // Neither tag nor text changes.
  EXPECT_EQ(db->Update(4, "", std::nullopt).status().code(),
            StatusCode::kInvalidArgument);
  // Text edit on a database encoded without sealed content.
  EXPECT_EQ(db->Update(4, "", std::optional<std::string>("x")).status().code(),
            StatusCode::kFailedPrecondition);
  // A tag outside the map (the key material does not cover it).
  EXPECT_EQ(db->Update(8, "pamphlet", std::nullopt).status().code(),
            StatusCode::kInvalidArgument);
  // The document root cannot be deleted.
  EXPECT_EQ(db->Delete(1).status().code(), StatusCode::kInvalidArgument);
  // A fragment with no elements cannot be inserted.
  EXPECT_FALSE(db->Insert(2, "   ").ok());
  // A fragment using an unmapped tag is refused before any share moves.
  EXPECT_FALSE(db->Insert(2, "<pamphlet/>").ok());
  // No such node.
  EXPECT_FALSE(db->Update(99, "book", std::nullopt).ok());

  // Nothing above may have left a pending txn or advanced the version.
  auto states = db->server_filter()->MutationStates();
  ASSERT_TRUE(states.ok());
  for (const storage::MutationState& st : *states) {
    EXPECT_EQ(st.pending_txn, 0u);
    EXPECT_EQ(st.version, 0u);
  }
}

TEST_F(MutateTest, InsertMatchesFreshEncode) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);

  auto result = db->Insert(2, "<box><coin>c9</coin><coin>c10</coin></box>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->version, 1u);
  EXPECT_EQ(result->stats.subtree_nodes, 3u);  // box + 2 coins
  EXPECT_EQ(result->stats.path_nodes, 2u);     // shelfA, lib

  db->aggregation_engine()->set_verify(true);
  EXPECT_EQ(Count(db.get(), "count(/lib//coin)"), 3u);
  EXPECT_EQ(Count(db.get(), "count(/lib//box)"), 2u);

  constexpr char kAfter[] =
      "<lib><shelfA><book><title>t1</title></book>"
      "<book><title>t2</title></book>"
      "<box><coin>c9</coin><coin>c10</coin></box></shelfA>"
      "<shelfB><box><coin>c1</coin></box></shelfB></lib>";
  auto expected = MakeDb(kAfter, map, 1, /*seal=*/true);
  ExpectSameDocument(Snapshot(db->client_filter(), true),
                     Snapshot(expected->client_filter(), true));
}

TEST_F(MutateTest, DeleteMatchesFreshEncode) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);

  auto result = db->Delete(3);  // first book and its title
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->version, 1u);
  EXPECT_EQ(result->stats.subtree_nodes, 2u);
  EXPECT_EQ(result->stats.path_nodes, 2u);  // shelfA, lib

  db->aggregation_engine()->set_verify(true);
  EXPECT_EQ(Count(db.get(), "count(/lib//book)"), 1u);
  EXPECT_EQ(Count(db.get(), "count(/lib//title)"), 1u);

  constexpr char kAfter[] =
      "<lib><shelfA><book><title>t2</title></book></shelfA>"
      "<shelfB><box><coin>c1</coin></box></shelfB></lib>";
  auto expected = MakeDb(kAfter, map, 1, /*seal=*/true);
  ExpectSameDocument(Snapshot(db->client_filter(), true),
                     Snapshot(expected->client_filter(), true));
}

// Byte pins of the planner's output at m = 2 with sealing and the §9 track:
// the digest covers every upsert row of every slice plus the erase/shift
// window, nonce watermark and stats. The equivalence tests above check what
// a client can recover; these check the exact bytes the servers receive.
uint64_t PlanDigest(const encode::PlannedMutation& planned) {
  testing_helpers::RowDigest digest;
  digest.Add(planned.txn);
  digest.Add(planned.stats.path_nodes);
  digest.Add(planned.stats.subtree_nodes);
  digest.Add(planned.stats.children_fetched);
  digest.Add(planned.stats.reshared_bytes);
  for (const storage::MutationPlan& plan : planned.plans) {
    digest.Add(static_cast<uint64_t>(plan.kind));
    digest.Add(plan.base_version);
    digest.Add(plan.next_nonce);
    digest.Add(plan.erase_lo);
    digest.Add(plan.erase_hi);
    digest.Add(plan.shift_pre_gt);
    digest.Add(static_cast<uint64_t>(plan.shift_delta));
    digest.Add(plan.upserts.size());
    for (const storage::NodeRow& row : plan.upserts) digest.AddRow(row);
  }
  return digest.value();
}

TEST_F(MutateTest, PlansArePinned) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);
  encode::Mutator mutator(db->ring(), map, prg::Prg(seed_),
                          db->client_filter());
  auto pin = [](const StatusOr<encode::PlannedMutation>& planned) {
    SSDB_CHECK(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(planned->plans.size(), 2u);
    return PlanDigest(*planned);
  };
  EXPECT_EQ(pin(mutator.PlanInsert(2, "<box><coin>c9</coin><coin/></box>")),
            0x8c2d6a51085cf361ull);
  EXPECT_EQ(pin(mutator.PlanUpdate(8, "book", std::nullopt)),
            0x7d8f01a13cd43001ull);
  EXPECT_EQ(pin(mutator.PlanUpdate(4, "", std::string("T-ONE"))),
            0xbbf29ab0e0e4c803ull);
  EXPECT_EQ(pin(mutator.PlanDelete(3)), 0x1eb42f8f2061cec1ull);

  // After a committed insert the tail rows carry shifted pres and their
  // original nonces, and the root path carries mutation nonces.
  ASSERT_TRUE(db->Insert(2, "<box><coin>c9</coin></box>").ok());
  EXPECT_EQ(pin(mutator.PlanDelete(10)), 0x87fead8106efdf4full);
  EXPECT_EQ(pin(mutator.PlanUpdate(11, "title", std::string("x"))),
            0x75998ab615219a23ull);
  EXPECT_EQ(pin(mutator.PlanInsert(9, "<title>t3</title>")),
            0xdcc0c0bd461c5fdaull);
}

// Planning reads the slice states once, in BeginPlan, and the root path
// off the skeleton. A text-only UPDATE at m = 2 then costs 4 exchanges at
// any depth: MutationStates, FetchColumnsBatch and FetchSealedBatch for the
// path, and one FetchShareBatch for the path's shares.
TEST_F(MutateTest, PlanningReadsMutationStatesOnce) {
  // r=1 d1=2 ... d8=9 s=10: d8 sits at depth 8, s at depth 1.
  std::string deep = "<r>";
  for (int i = 1; i <= 8; ++i) deep += "<d" + std::to_string(i) + ">";
  deep += "x";
  for (int i = 8; i >= 1; --i) deep += "</d" + std::to_string(i) + ">";
  deep += "<s>y</s></r>";
  mapping::TagMap map = MapFor({deep}, field_);
  auto db = MakeDb(deep, map, 2, /*seal=*/true);
  encode::Mutator mutator(db->ring(), map, prg::Prg(seed_),
                          db->client_filter());
  for (uint32_t pre : {10u, 9u}) {
    const uint64_t before = db->server_filter()->RoundTrips();
    auto planned = mutator.PlanUpdate(pre, "", std::string("z"));
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(planned->stats.path_nodes, pre == 10 ? 2u : 9u);
    EXPECT_EQ(db->server_filter()->RoundTrips() - before, 4u) << "pre " << pre;
  }
}

// A primary that lies about one node's subtree size: it adds one to a
// kEqualDesc word of that node's column blob and answers everything else
// honestly.
class SubtreeSizeLiar : public testing_helpers::TamperingServerFilter {
 public:
  SubtreeSizeLiar(const gf::Ring& ring, filter::ServerFilter* inner,
                  uint32_t pre, size_t value_count)
      : TamperingServerFilter(ring, inner, {}),
        inner_(inner),
        pre_(pre),
        value_count_(value_count) {}

  StatusOr<std::vector<storage::ColumnBlobs>> FetchColumnsBatch(
      const std::vector<uint32_t>& pres) override {
    SSDB_ASSIGN_OR_RETURN(std::vector<storage::ColumnBlobs> cols,
                          inner_->FetchColumnsBatch(pres));
    for (size_t i = 0; i < pres.size(); ++i) {
      if (pres[i] != pre_) continue;
      const size_t w = agg::WordIndex(agg::Col::kEqualDesc, value_count_, 0);
      const agg::Word lie = agg::BlobWord(cols[i].agg, w) + 1;
      for (size_t b = 0; b < sizeof(agg::Word); ++b) {
        cols[i].agg[w * sizeof(agg::Word) + b] =
            static_cast<char>(lie >> (8 * b));
      }
    }
    return cols;
  }

 private:
  filter::ServerFilter* inner_;
  uint32_t pre_;
  size_t value_count_;
};

// The subtree size behind a DELETE's erase range and an INSERT's anchor is
// public (post − pre + depth + 1). A primary whose column blob claims
// another size is refused instead of steering every honest slice into
// erasing or shifting the wrong rows.
TEST_F(MutateTest, LyingPrimarySubtreeSizeIsRefused) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);
  SubtreeSizeLiar liar(db->ring(), db->slice_filter(0), /*pre=*/3,
                       map.size());
  filter::MultiServerFilter fanout(db->ring(), {&liar, db->slice_filter(1)});
  filter::ClientFilter lied_to_client(db->ring(), prg::Prg(seed_), &fanout);
  encode::Mutator lied_to(db->ring(), map, prg::Prg(seed_), &lied_to_client);

  for (const Status& status :
       {lied_to.PlanDelete(3).status(),
        lied_to.PlanInsert(3, "<title>t9</title>").status()}) {
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.message().find("server 0"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("pre 3"), std::string::npos)
        << status.ToString();
  }

  // Control: the honest deployment erases exactly book(3) and its title.
  encode::Mutator honest(db->ring(), map, prg::Prg(seed_),
                         db->client_filter());
  auto planned = honest.PlanDelete(3);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->plans[0].erase_lo, 3u);
  EXPECT_EQ(planned->plans[0].erase_hi, 4u);
}

// A chain of mutations: every commit bumps the version by one, and the end
// state matches one fresh encode of the final document.
TEST_F(MutateTest, MutationSequenceAdvancesVersions) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);

  auto insert = db->Insert(7, "<box><coin>cx</coin></box>");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert->version, 1u);
  auto update = db->Update(8, "book", std::nullopt);
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->version, 2u);
  auto erase = db->Delete(3);
  ASSERT_TRUE(erase.ok()) << erase.status().ToString();
  EXPECT_EQ(erase->version, 3u);

  db->aggregation_engine()->set_verify(true);
  EXPECT_EQ(Count(db.get(), "count(/lib//book)"), 2u);
  EXPECT_EQ(Count(db.get(), "count(/lib//coin)"), 2u);

  constexpr char kAfter[] =
      "<lib><shelfA><book><title>t2</title></book></shelfA>"
      "<shelfB><book><coin>c1</coin></book>"
      "<box><coin>cx</coin></box></shelfB></lib>";
  auto expected = MakeDb(kAfter, map, 1, /*seal=*/true);
  ExpectSameDocument(Snapshot(db->client_filter(), true),
                     Snapshot(expected->client_filter(), true));
}

// The §12 cost contract: the same mutation costs the same whether the
// document holds 9 nodes or ~50 — stats depend on the touched subtree and
// root path, not on document size.
TEST_F(MutateTest, MutationCostTracksSubtreeNotDocument) {
  // The big document differs only inside shelfB's box — off the mutation
  // paths used below.
  std::string big =
      "<lib><shelfA><book><title>t1</title></book>"
      "<book><title>t2</title></book></shelfA>"
      "<shelfB><box>";
  for (int i = 0; i < 40; ++i) big += "<coin>c</coin>";
  big += "</box></shelfB></lib>";
  mapping::TagMap map = MapFor({kLibXml}, field_);

  auto small_db = MakeDb(kLibXml, map, 1, /*seal=*/true);
  auto big_db = MakeDb(big, map, 1, /*seal=*/true);

  // Re-tag book(3) -> box: path and fanout are identical in both documents.
  auto small_up = small_db->Update(3, "box", std::nullopt);
  auto big_up = big_db->Update(3, "box", std::nullopt);
  ASSERT_TRUE(small_up.ok()) << small_up.status().ToString();
  ASSERT_TRUE(big_up.ok()) << big_up.status().ToString();
  EXPECT_EQ(small_up->stats.path_nodes, big_up->stats.path_nodes);
  EXPECT_EQ(small_up->stats.subtree_nodes, big_up->stats.subtree_nodes);
  EXPECT_EQ(small_up->stats.children_fetched, big_up->stats.children_fetched);
  EXPECT_EQ(small_up->stats.reshared_bytes, big_up->stats.reshared_bytes);

  // DELETE re-shares the root path only; its byte cost must not grow with
  // the deleted subtree (the subtree is erased, not rewritten).
  auto small_rm = MakeDb(kLibXml, map, 1, /*seal=*/true);
  auto big_rm = MakeDb(big, map, 1, /*seal=*/true);
  auto small_del = small_rm->Delete(8);
  auto big_del = big_rm->Delete(8);
  ASSERT_TRUE(small_del.ok()) << small_del.status().ToString();
  ASSERT_TRUE(big_del.ok()) << big_del.status().ToString();
  EXPECT_EQ(small_del->stats.subtree_nodes, 2u);
  EXPECT_EQ(big_del->stats.subtree_nodes, 41u);
  EXPECT_EQ(small_del->stats.path_nodes, big_del->stats.path_nodes);
  EXPECT_EQ(small_del->stats.reshared_bytes, big_del->stats.reshared_bytes);

  // INSERT cost grows with the fragment, not the document.
  auto ins_db = MakeDb(kLibXml, map, 1, /*seal=*/true);
  auto one = ins_db->Insert(7, "<box><coin>c</coin></box>");
  auto five = ins_db->Insert(7,
      "<box><coin>c</coin><coin>c</coin><coin>c</coin>"
      "<coin>c</coin><coin>c</coin></box>");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(five.ok()) << five.status().ToString();
  EXPECT_EQ(one->stats.subtree_nodes, 2u);
  EXPECT_EQ(five->stats.subtree_nodes, 6u);
  EXPECT_GT(five->stats.reshared_bytes, one->stats.reshared_bytes);
}

// A prepare that fails on one slice aborts on all of them: no version
// moves, no pending txn lingers, the document stays byte-for-byte intact —
// and the same mutation succeeds afterwards.
TEST_F(MutateTest, PrepareFailureAbortsCleanly) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);
  auto before = Snapshot(db->client_filter(), true);

  encode::Mutator mutator(db->ring(), map, prg::Prg(seed_),
                          db->client_filter());
  auto planned = mutator.PlanUpdate(8, "book", std::nullopt);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_EQ(planned->plans.size(), 2u);
  planned->plans[1].base_version = 7;  // slice 1 will refuse this plan

  Status prepared =
      db->server_filter()->PrepareMutation(planned->txn, planned->plans);
  EXPECT_FALSE(prepared.ok());
  (void)db->server_filter()->AbortMutation(planned->txn);

  auto states = db->server_filter()->MutationStates();
  ASSERT_TRUE(states.ok());
  for (const storage::MutationState& st : *states) {
    EXPECT_EQ(st.pending_txn, 0u);
    EXPECT_EQ(st.version, 0u);
  }
  ExpectSameDocument(Snapshot(db->client_filter(), true), before);

  auto retry = db->Update(8, "book", std::nullopt);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->version, 1u);
}

// RecoverMutations on the facade: a txn prepared everywhere but committed
// nowhere rolls back; a txn any slice committed rolls forward.
TEST_F(MutateTest, RecoverMutationsDecidesStalledTxns) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);
  auto before = Snapshot(db->client_filter(), true);

  // Idle recovery is a no-op.
  ASSERT_TRUE(db->RecoverMutations().ok());

  encode::Mutator mutator(db->ring(), map, prg::Prg(seed_),
                          db->client_filter());

  // Stall A: prepared on both slices, coordinator dies before any commit.
  auto planned = mutator.PlanDelete(3);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_TRUE(
      db->server_filter()->PrepareMutation(planned->txn, planned->plans).ok());
  ASSERT_TRUE(db->RecoverMutations().ok());
  auto states = db->server_filter()->MutationStates();
  ASSERT_TRUE(states.ok());
  for (const storage::MutationState& st : *states) {
    EXPECT_EQ(st.pending_txn, 0u);
    EXPECT_EQ(st.version, 0u);
  }
  ExpectSameDocument(Snapshot(db->client_filter(), true), before);

  // Stall B: prepared on both, committed on slice 0 only — the decision is
  // made, recovery must finish it on slice 1.
  auto planned2 = mutator.PlanDelete(3);
  ASSERT_TRUE(planned2.ok()) << planned2.status().ToString();
  ASSERT_TRUE(
      db->server_filter()->PrepareMutation(planned2->txn, planned2->plans).ok());
  ASSERT_TRUE(db->slice_filter(0)->CommitMutation(planned2->txn).ok());
  ASSERT_TRUE(db->RecoverMutations().ok());
  states = db->server_filter()->MutationStates();
  ASSERT_TRUE(states.ok());
  for (const storage::MutationState& st : *states) {
    EXPECT_EQ(st.pending_txn, 0u);
    EXPECT_EQ(st.version, 1u);
  }
  constexpr char kAfter[] =
      "<lib><shelfA><book><title>t2</title></book></shelfA>"
      "<shelfB><box><coin>c1</coin></box></shelfB></lib>";
  auto expected = MakeDb(kAfter, map, 1, /*seal=*/true);
  ExpectSameDocument(Snapshot(db->client_filter(), true),
                     Snapshot(expected->client_filter(), true));
}

// The headline crash test, on the real disk backend: kill the coordinator
// between the phases, restart the m servers from their files, and drive the
// journaled txn to one verdict on every slice.
TEST_F(MutateTest, CrashBetweenPhasesRecoversOnDisk) {
  TempDir dir("mutate_2pc");
  std::string base = dir.FilePath("doc.ssdb");
  mapping::TagMap map = MapFor({kLibXml}, field_);

  DatabaseOptions options;
  options.backend = Backend::kDisk;
  options.disk_path = base;
  options.servers = 2;
  options.encode.seal_content = true;
  options.encode.verify_aggregate = true;
  auto db_or = EncryptedXmlDatabase::Encode(kLibXml, map, seed_, options);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(*db_or);
  gf::Ring ring = db->ring();
  auto original = Snapshot(db->client_filter(), true);

  encode::Mutator mutator(ring, map, prg::Prg(seed_), db->client_filter());
  auto planned = mutator.PlanUpdate(8, "book", std::nullopt);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();

  // Phase one lands (and is journaled) on slice 0 only; then the
  // coordinator "crashes" before reaching slice 1.
  ASSERT_TRUE(db->slice_filter(0)
                  ->PrepareMutation(planned->txn, {planned->plans[0]})
                  .ok());
  db.reset();

  // What a restarted coordinator runs: reopen the slice files and drive
  // any undecided txn with EncryptedXmlDatabase::RecoverMutations.
  auto reopen = [&]() {
    auto reopened = EncryptedXmlDatabase::OpenSlices(
        {core::ShareSlicePath(base, 0, 2), core::ShareSlicePath(base, 1, 2)},
        map, seed_, 83, 1);
    SSDB_CHECK(reopened.ok()) << reopened.status().ToString();
    return std::move(*reopened);
  };

  {
    auto s = reopen();
    // The journaled prepare survived the restart on exactly one slice.
    auto states = s->server_filter()->MutationStates();
    ASSERT_TRUE(states.ok()) << states.status().ToString();
    uint64_t pending = 0;
    int undecided = 0;
    for (const storage::MutationState& st : *states) {
      pending = std::max(pending, st.pending_txn);
      if (st.pending_txn != 0) ++undecided;
    }
    EXPECT_EQ(pending, 1u);
    EXPECT_EQ(undecided, 1);

    // No slice committed, so recovery rolls the txn back everywhere and
    // every slice reconstructs the original document.
    ASSERT_TRUE(s->RecoverMutations().ok());
    states = s->server_filter()->MutationStates();
    ASSERT_TRUE(states.ok());
    for (const storage::MutationState& st : *states) {
      EXPECT_EQ(st.pending_txn, 0u);
      EXPECT_EQ(st.version, 0u);
    }
    ExpectSameDocument(Snapshot(s->client_filter(), true), original);

    // Round two: prepared everywhere, committed on slice 0, crash before
    // slice 1 hears the commit.
    encode::Mutator mutator2(ring, map, prg::Prg(seed_), s->client_filter());
    auto planned2 = mutator2.PlanUpdate(8, "book", std::nullopt);
    ASSERT_TRUE(planned2.ok()) << planned2.status().ToString();
    ASSERT_TRUE(
        s->server_filter()->PrepareMutation(planned2->txn, planned2->plans)
            .ok());
    ASSERT_TRUE(s->slice_filter(0)->CommitMutation(planned2->txn).ok());
  }  // crash: stores close with slice 1 still undecided

  {
    auto s = reopen();
    // Slice 0's commit is the verdict; recovery rolls slice 1 forward.
    ASSERT_TRUE(s->RecoverMutations().ok());
    auto states = s->server_filter()->MutationStates();
    ASSERT_TRUE(states.ok());
    for (const storage::MutationState& st : *states) {
      EXPECT_EQ(st.pending_txn, 0u);
      EXPECT_EQ(st.version, 1u);
    }
    auto expected = MakeDb(kLibBoxRetagged, map, 1, /*seal=*/true);
    ExpectSameDocument(Snapshot(s->client_filter(), true),
                       Snapshot(expected->client_filter(), true));
  }
}

// A slice filter that counts the skeleton pages it serves and can lose
// the next commits (DESIGN.md §12).
class SliceProbe : public filter::LocalServerFilter {
 public:
  using LocalServerFilter::LocalServerFilter;
  StatusOr<filter::SkeletonPage> Skeleton(uint32_t after_pre) override {
    skeleton_pages.fetch_add(1);
    return LocalServerFilter::Skeleton(after_pre);
  }
  Status CommitMutation(uint64_t txn) override {
    if (fail_commits > 0) {
      --fail_commits;
      return Status::Unavailable("commit lost");
    }
    return LocalServerFilter::CommitMutation(txn);
  }
  std::atomic<uint64_t> skeleton_pages{0};
  int fail_commits = 0;
};

// Runs `text` on `db` with the advanced engine and checks the answer
// against the plaintext oracle on `xml`.
void ExpectOracleAnswer(EncryptedXmlDatabase* db, const std::string& xml,
                        const std::string& text, MatchMode mode) {
  SCOPED_TRACE(text);
  auto doc = xml::ParseDocument(xml);
  ASSERT_TRUE(doc.ok());
  xml::AnnotatePrePost(&*doc);
  auto parsed = query::ParseQuery(text);
  ASSERT_TRUE(parsed.ok());
  auto truth = mode == MatchMode::kEquality
                   ? query::EvaluateGroundTruth(*parsed, *doc)
                   : query::EvaluateContainmentTruth(
                         *parsed, *doc, query::ContainmentRule::kLookahead);
  ASSERT_TRUE(truth.ok());
  auto result = db->QueryParsed(*parsed, EngineKind::kAdvanced, mode);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<uint32_t> actual;
  for (const filter::NodeMeta& node : result->nodes) {
    actual.push_back(node.pre);
  }
  EXPECT_EQ(actual, *truth);
}

// A client applies its own commits to its skeleton instead of fetching it
// again: after every INSERT, UPDATE and DELETE, and after RecoverMutations
// settles a commit that failed part-way, the held skeleton equals a fresh
// fetch field for field, nonces and version included — at m = 1 and 2, on
// memory and disk.
TEST_F(MutateTest, SkeletonFollowsOwnCommits) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  for (Backend backend : {Backend::kMemory, Backend::kDisk}) {
    for (uint32_t m : {1u, 2u}) {
      SCOPED_TRACE(std::string(backend == Backend::kDisk ? "disk" : "memory") +
                   " m=" + std::to_string(m));
      TempDir dir("mutate_skeleton");
      DatabaseOptions options;
      options.backend = backend;
      options.disk_path = dir.FilePath("doc.ssdb");
      options.servers = m;
      options.encode.seal_content = true;
      options.encode.verify_aggregate = true;
      auto served = EncryptedXmlDatabase::Encode(kLibXml, map, seed_, options);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      std::vector<std::unique_ptr<SliceProbe>> probes;
      std::vector<filter::ServerFilter*> slices;
      for (uint32_t i = 0; i < m; ++i) {
        probes.push_back(std::make_unique<SliceProbe>(
            (*served)->ring(), (*served)->slice_store(i)));
        slices.push_back(probes.back().get());
      }
      auto db = EncryptedXmlDatabase::FromFilters(slices, map, seed_, 83, 1);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      filter::ClientFilter* client = (*db)->client_filter();

      auto expect_current = [&](const std::string& step, uint64_t version) {
        auto fresh = filter::SkeletonCache::Fetch((*db)->server_filter());
        ASSERT_TRUE(fresh.ok()) << step << ": " << fresh.status().ToString();
        EXPECT_EQ(fresh->version(), version) << step;
        EXPECT_TRUE(client->skeleton() == *fresh) << step;
      };
      const uint64_t pages = probes[0]->skeleton_pages;
      ASSERT_TRUE((*db)->Insert(2, "<box><coin>c9</coin></box>").ok());
      expect_current("insert", 1);
      ASSERT_TRUE((*db)->Update(10, "book", std::nullopt).ok());
      expect_current("retag", 2);
      ASSERT_TRUE((*db)->Update(4, "", std::string("T-ONE")).ok());
      expect_current("text", 3);
      ASSERT_TRUE((*db)->Delete(3).ok());
      expect_current("delete", 4);
      // The commits fetched nothing; only the checks above did.
      EXPECT_EQ(probes[0]->skeleton_pages - pages, 4u);

      // The last slice loses the commit of DELETE box(5). At m = 2 slice 0
      // committed, so recovery commits slice 1 and applies this client's
      // own plan; at m = 1 no slice did, so recovery rolls it back. Either
      // way the skeleton settles with no fetch.
      probes[m - 1]->fail_commits = 1;
      EXPECT_FALSE((*db)->Delete(5).ok());
      const uint64_t before_recovery = probes[0]->skeleton_pages;
      ASSERT_TRUE((*db)->RecoverMutations().ok());
      EXPECT_EQ(probes[0]->skeleton_pages, before_recovery);
      expect_current("recover", m > 1 ? 5 : 4);
      auto count = (*db)->Query("count(//coin)", EngineKind::kAdvanced,
                                MatchMode::kEquality);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(count->aggregate.Total(), m > 1 ? 1u : 2u);
    }
  }
}

// Two clients on the same m = 2 socket servers: after one commits, the
// other's next query or plan is refused at the stale version, re-fetches
// its skeleton once and answers for the mutated document — never with a
// silently wrong answer, even for a query that reads no share at all.
TEST_F(MutateTest, SecondClientRefetchesOnceAfterAnotherCommits) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto served = MakeDb(kLibXml, map, 2, /*seal=*/true);
  TempDir dir("mutate_two_clients");
  std::vector<std::unique_ptr<SliceProbe>> probes;
  std::vector<std::unique_ptr<rpc::ConcurrentServer>> servers;
  std::vector<std::string> paths;
  for (size_t i = 0; i < 2; ++i) {
    probes.push_back(
        std::make_unique<SliceProbe>(served->ring(), served->slice_store(i)));
    paths.push_back(dir.FilePath("s" + std::to_string(i) + ".sock"));
    auto listener = rpc::UnixServerSocket::Listen(paths.back());
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    servers.push_back(std::make_unique<rpc::ConcurrentServer>(
        served->ring(), probes.back().get(), std::move(*listener)));
    ASSERT_TRUE(servers.back()->Start().ok());
  }
  auto connect = [&] {
    std::vector<std::unique_ptr<rpc::Channel>> channels;
    for (const std::string& path : paths) {
      auto channel = rpc::ConnectUnix(path);
      SSDB_CHECK(channel.ok()) << channel.status().ToString();
      channels.push_back(std::move(*channel));
    }
    auto db = EncryptedXmlDatabase::ConnectRemoteMulti(std::move(channels),
                                                       map, seed_, 83, 1);
    SSDB_CHECK(db.ok()) << db.status().ToString();
    return std::move(*db);
  };
  auto a = connect();
  auto b = connect();

  // Runs `text` on `db` and checks it against the plaintext oracle on
  // `xml`, and that it fetched exactly `refetches` skeleton pages.
  auto check = [&](EncryptedXmlDatabase* db, const std::string& xml,
                   const std::string& text, MatchMode mode,
                   uint64_t refetches) {
    const uint64_t pages = probes[0]->skeleton_pages;
    ExpectOracleAnswer(db, xml, text, mode);
    EXPECT_EQ(probes[0]->skeleton_pages - pages, refetches) << text;
  };

  // lib=1 shelfA=2 book=3 title=4 book=5 title=6 box=7 coin=8 shelfB=9
  // box=10 coin=11
  ASSERT_TRUE(a->Insert(2, "<box><coin>c9</coin></box>").ok());
  const std::string inserted =
      "<lib><shelfA><book><title>t1</title></book>"
      "<book><title>t2</title></book><box><coin>c9</coin></box></shelfA>"
      "<shelfB><box><coin>c1</coin></box></shelfB></lib>";
  check(b.get(), inserted, "/lib//coin", MatchMode::kEquality, 1);
  check(b.get(), inserted, "/lib//coin", MatchMode::kEquality, 0);
  check(a.get(), inserted, "/lib/*/box", MatchMode::kContainment, 0);

  // lib=1 shelfA=2 book=3 title=4 box=5 coin=6 shelfB=7 box=8 coin=9
  ASSERT_TRUE(a->Delete(3).ok());
  // B plans against the stale skeleton: refused, re-fetched, planned again.
  const uint64_t pages = probes[0]->skeleton_pages;
  auto retag = b->Update(8, "book", std::nullopt);
  ASSERT_TRUE(retag.ok()) << retag.status().ToString();
  EXPECT_EQ(retag->version, 3u);
  EXPECT_EQ(probes[0]->skeleton_pages - pages, 1u);
  const std::string retagged =
      "<lib><shelfA><book><title>t2</title></book>"
      "<box><coin>c9</coin></box></shelfA>"
      "<shelfB><book><coin>c1</coin></book></shelfB></lib>";
  check(b.get(), retagged, "/lib//book/coin", MatchMode::kEquality, 0);
  check(a.get(), retagged, "/lib//book/coin", MatchMode::kEquality, 1);

  // A query that reads no share sends nothing a server could refuse, so
  // the client asks for the version before it answers.
  ASSERT_TRUE(b->Insert(7, "<box/>").ok());
  const std::string appended =
      "<lib><shelfA><book><title>t2</title></book>"
      "<box><coin>c9</coin></box></shelfA>"
      "<shelfB><book><coin>c1</coin></book><box/></shelfB></lib>";
  check(a.get(), appended, "//*", MatchMode::kContainment, 1);
  check(a.get(), appended, "//*", MatchMode::kContainment, 0);
}

// In-process stacks carry no version stamps, so the planner's own check
// is what keeps a client from planning against a skeleton another client
// moved past: it re-fetches first, and the plan lands where it should.
TEST_F(MutateTest, PlanningOnAStaleSkeletonRefetchesFirst) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto served = MakeDb(kLibXml, map, 2, /*seal=*/true);
  auto open = [&] {
    auto db = EncryptedXmlDatabase::FromFilters(
        {served->slice_filter(0), served->slice_filter(1)}, map, seed_, 83,
        1);
    SSDB_CHECK(db.ok()) << db.status().ToString();
    return std::move(*db);
  };
  auto a = open();
  auto b = open();
  // lib=1 shelfA=2 book=3 title=4 book=5 title=6 box=7 coin=8 shelfB=9 ...
  ASSERT_TRUE(a->Insert(2, "<box><coin>c9</coin></box>").ok());
  // B's skeleton still has box at pre 8; the document has coin there.
  auto retag = b->Update(8, "book", std::nullopt);
  ASSERT_TRUE(retag.ok()) << retag.status().ToString();
  EXPECT_EQ(retag->version, 2u);
  constexpr char kAfter[] =
      "<lib><shelfA><book><title>t1</title></book>"
      "<book><title>t2</title></book><box><book>c9</book></box></shelfA>"
      "<shelfB><box><coin>c1</coin></box></shelfB></lib>";
  auto expected = MakeDb(kAfter, map, 1, /*seal=*/true);
  ExpectSameDocument(Snapshot(b->client_filter(), true),
                     Snapshot(expected->client_filter(), true));
}

// In-process stacks carry no version stamps, so the facade checks the
// primary's version after each query: a client whose skeleton another
// client moved past re-fetches once and answers for the mutated document,
// never from rows its skeleton does not describe.
TEST_F(MutateTest, InProcessQueryAfterAnotherCommitRefetchesOnce) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto served = MakeDb(kLibXml, map, 2, /*seal=*/true);
  std::vector<std::unique_ptr<SliceProbe>> probes;
  for (size_t i = 0; i < 2; ++i) {
    probes.push_back(
        std::make_unique<SliceProbe>(served->ring(), served->slice_store(i)));
  }
  auto open = [&] {
    auto db = EncryptedXmlDatabase::FromFilters(
        {probes[0].get(), probes[1].get()}, map, seed_, 83, 1);
    SSDB_CHECK(db.ok()) << db.status().ToString();
    return std::move(*db);
  };
  auto a = open();
  auto b = open();
  ASSERT_TRUE(a->Insert(2, "<box><coin>c9</coin></box>").ok());
  const std::string inserted =
      "<lib><shelfA><book><title>t1</title></book>"
      "<book><title>t2</title></book><box><coin>c9</coin></box></shelfA>"
      "<shelfB><box><coin>c1</coin></box></shelfB></lib>";
  const uint64_t pages = probes[0]->skeleton_pages;
  for (MatchMode mode : {MatchMode::kEquality, MatchMode::kContainment}) {
    ExpectOracleAnswer(b.get(), inserted, "/lib//coin", mode);
    ExpectOracleAnswer(b.get(), inserted, "/lib/shelfB/box/coin", mode);
  }
  EXPECT_EQ(probes[0]->skeleton_pages - pages, 1u);
  auto count = b->Query("count(//coin)", EngineKind::kAdvanced,
                        MatchMode::kEquality);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->aggregate.Total(), 2u);
}

// Mutations routed through the shard tier (DESIGN.md §10 + §12): the router
// plans on the owning group's stack, drives the two phases, and prefixes
// every error with the document and group — the §9 blame idiom.
TEST_F(MutateTest, RouterForwardsMutationsWithBlame) {
  mapping::TagMap map = MapFor({kLibXml}, field_);
  auto db = MakeDb(kLibXml, map, 2, /*seal=*/true);

  shard::ShardCatalog catalog;
  shard::ShardEntry entry;
  entry.doc_id = "doc-a";
  entry.group = 3;
  entry.slices = {"mem://doc-a/0", "mem://doc-a/1"};
  ASSERT_TRUE(catalog.Add(entry).ok());
  std::map<std::string, std::vector<filter::ServerFilter*>> backends;
  backends["doc-a"] = {db->slice_filter(0), db->slice_filter(1)};
  core::CorpusOptions copts;
  auto router = shard::Router::FromBackends(catalog, &map, seed_, {}, copts,
                                            backends);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  ASSERT_TRUE((*router)->RecoverDoc("doc-a").ok());
  auto result = (*router)->UpdateDoc("doc-a", 8, "book", std::nullopt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->version, 1u);
  EXPECT_EQ(result->doc_id, "doc-a");
  EXPECT_EQ(result->group, 3u);

  auto query = query::ParseQuery("count(/lib//book)");
  ASSERT_TRUE(query.ok());
  auto count = (*router)->QueryDoc("doc-a", *query, MatchMode::kEquality);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->aggregate.Total(), 3u);

  // Unknown documents and bad mutations come back attributed.
  EXPECT_EQ((*router)->DeleteDoc("ghost", 2).status().code(),
            StatusCode::kNotFound);
  Status blamed = (*router)->DeleteDoc("doc-a", 1).status();
  EXPECT_FALSE(blamed.ok());
  EXPECT_NE(blamed.message().find("doc doc-a (group 3)"), std::string::npos)
      << blamed.ToString();
}

// Satellite: the side column store lifts the heap row's ~140-tag cap. A
// 1000-tag map — 28 KB of §8 columns plus 112 KB of §9 track per node,
// far beyond a 4 KiB page — encodes to disk, answers verified aggregates,
// mutates, and survives a reopen.
TEST_F(MutateTest, ThousandTagMapEncodesAndMutatesOnDisk) {
  TempDir dir("mutate_bigmap");
  std::string path = dir.FilePath("big.ssdb");
  auto field = gf::Field::Make(1009);
  ASSERT_TRUE(field.ok());

  std::vector<std::string> names;
  names.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "t%04d", i);
    names.push_back(buf);
  }
  auto map = mapping::TagMap::FromNames(names, *field);
  ASSERT_TRUE(map.ok()) << map.status().ToString();

  std::string xml = "<t0000>";
  for (int i = 0; i < 40; ++i) {
    xml += "<t000" + std::to_string(1 + i % 4) + "/>";
  }
  xml += "</t0000>";

  DatabaseOptions options;
  options.p = 1009;
  options.backend = Backend::kDisk;
  options.disk_path = path;
  options.encode.verify_aggregate = true;
  auto db_or = EncryptedXmlDatabase::Encode(xml, *map, seed_, options);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(*db_or);
  gf::Ring ring = db->ring();

  db->aggregation_engine()->set_verify(true);
  EXPECT_EQ(Count(db.get(), "count(/t0000/t0001)"), 10u);

  auto result = db->Update(2, "t0500", std::nullopt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Count(db.get(), "count(/t0000/t0001)"), 9u);
  EXPECT_EQ(Count(db.get(), "count(/t0000/t0500)"), 1u);
  db.reset();

  // The blobs live in the side column store; both it and the mutation
  // survive a close/reopen cycle.
  auto store = storage::DiskNodeStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  filter::LocalServerFilter server(ring, store->get());
  filter::ClientFilter client(ring, prg::Prg(seed_), &server);
  auto node = client.GetNode(2);
  ASSERT_TRUE(node.ok());
  auto value = client.RecoverOwnValue(*node);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, *map->Lookup("t0500"));
  auto state = (*store)->GetMutationState();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->version, 1u);
  EXPECT_EQ(state->pending_txn, 0u);
}

// Column-blind reads (DESIGN.md §12): on the disk layout the §8/§9 blobs
// are read by GetColumns and nothing else. Share and structure reads must
// leave the column store's read counter alone, the two column consumers
// must move it, and after an INSERT shifts the tail the visit path, the
// copy path and GetColumns must still agree on every row.
TEST_F(MutateTest, ShareReadsNeverTouchTheColumnStore) {
  TempDir dir("mutate_colblind");
  constexpr char kFragment[] = "<book><title>t3</title></book>";
  mapping::TagMap map = MapFor({kLibXml}, field_);

  DatabaseOptions options;
  options.backend = Backend::kDisk;
  options.disk_path = dir.FilePath("doc.ssdb");
  options.servers = 2;
  options.encode.seal_content = true;
  options.encode.verify_aggregate = true;
  auto db_or = EncryptedXmlDatabase::Encode(kLibXml, map, seed_, options);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(*db_or);

  auto* disk = dynamic_cast<storage::DiskNodeStore*>(db->slice_store(0));
  ASSERT_NE(disk, nullptr);
  filter::ServerFilter* server = db->slice_filter(0);
  auto blob_reads = [&] { return disk->column_stats().blob_reads; };
  const std::vector<uint32_t> all = {1, 2, 3, 4, 5, 6, 7, 8, 9};

  const uint64_t before = blob_reads();
  ASSERT_TRUE(server->Root().ok());
  ASSERT_TRUE(server->GetNode(3).ok());
  ASSERT_TRUE(server->ChildrenBatch({1, 2, 7}).ok());
  ASSERT_TRUE(server->EvalAtBatch(all, 5).ok());
  ASSERT_TRUE(server->EvalPointsBatch(2, {0, 1, 5, 82}).ok());
  ASSERT_TRUE(server->FetchShareBatch(all).ok());
  ASSERT_TRUE(server->FetchSealed(4).ok());
  EXPECT_EQ(blob_reads(), before);

  agg::Spec spec;
  spec.columns = agg::ColBit(agg::Col::kEqualSelf);
  spec.value_count = static_cast<uint32_t>(map.size());
  spec.value_indexes = {0};
  spec.pres = all;
  ASSERT_TRUE(server->PartialAggregate(spec).ok());
  const uint64_t after_fold = blob_reads();
  EXPECT_GT(after_fold, before);
  ASSERT_TRUE(server->FetchColumnsBatch({2, 8}).ok());
  EXPECT_GT(blob_reads(), after_fold);

  // Inserting under shelfA shifts shelfB's subtree by two pres, so its rows
  // carry their original pre as the share nonce.
  auto inserted = db->Insert(2, kFragment);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  for (size_t slice = 0; slice < 2; ++slice) {
    storage::NodeStore* store = db->slice_store(slice);
    auto count = store->NodeCount();
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, 11u);
    bool saw_shifted = false;
    for (uint32_t pre = 1; pre <= *count; ++pre) {
      SCOPED_TRACE("slice " + std::to_string(slice) + " pre " +
                   std::to_string(pre));
      auto copied = store->GetByPre(pre);
      ASSERT_TRUE(copied.ok()) << copied.status().ToString();
      storage::NodeRow visited;
      ASSERT_TRUE(store
                      ->VisitByPre(pre,
                                   [&](const storage::NodeRow& row) {
                                     visited = row;
                                   })
                      .ok());
      EXPECT_EQ(visited.pre, pre);
      EXPECT_EQ(visited.pre, copied->pre);
      EXPECT_EQ(visited.post, copied->post);
      EXPECT_EQ(visited.parent, copied->parent);
      EXPECT_EQ(visited.nonce, copied->nonce);
      EXPECT_EQ(visited.share, copied->share);
      EXPECT_EQ(visited.sealed, copied->sealed);
      // Sealed payloads, like the verification track, live on slice 0.
      EXPECT_EQ(visited.sealed.empty(), slice != 0);
      // Column-store layout: rows carry no blobs; GetColumns has them.
      EXPECT_TRUE(copied->agg.empty());
      EXPECT_TRUE(copied->verify.empty());
      if (copied->nonce != 0 && copied->nonce < prg::kFirstMutationNonce) {
        saw_shifted = true;
      }
      auto cols = store->GetColumns(pre);
      ASSERT_TRUE(cols.ok()) << cols.status().ToString();
      EXPECT_EQ(agg::BlobValueCount(cols->agg), map.size());
      EXPECT_EQ(agg::VerifyBlobValueCount(cols->verify),
                slice == 0 ? map.size() : 0u);
    }
    EXPECT_TRUE(saw_shifted);
  }
  db->aggregation_engine()->set_verify(true);
  EXPECT_EQ(Count(db.get(), "count(//book)"), 3u);
}

}  // namespace
}  // namespace ssdb
