// Differential oracle battery: random documents (small XMark, deep/narrow
// and wide/flat trees, one larger than a descendant page, one whose hub
// node's children hold every mapped tag) and random fetch queries over
// '/', '//', '*', '..' and nested predicates. Every answer of both engines
// × both match modes × m ∈ {1, 2, 3} × memory/disk — m > 1 served by
// concurrent servers over unix sockets — must equal the plaintext oracle:
// EvaluateGroundTruth for strict mode, EvaluateContainmentTruth with the
// engine's rule for non-strict mode. A primary that fails or forges the
// skeleton at open is refused naming server 0; one that loses the skeleton
// after open still answers every query exactly, since no query asks it for
// structure (DESIGN.md §6).
//
// On a failure the message carries the seed, document kind, deployment,
// engine, mode and query, enough to replay the case alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "fault_injection.h"
#include "query/ground_truth.h"
#include "query/xpath.h"
#include "rpc/concurrent_server.h"
#include "rpc/socket_channel.h"
#include "util/file_util.h"
#include "util/random.h"
#include "xmark/generator.h"
#include "xml/dom.h"

namespace ssdb {
namespace {

using query::MatchMode;
using query::Step;

const std::vector<std::string> kAlphabet = {"a", "b", "c", "d", "e", "f"};

std::string Tag(Random* rng) {
  // 'f' is mapped but never generated: a name absent from the document.
  return kAlphabet[rng->Uniform(kAlphabet.size() - 1)];
}

void Open(const std::string& tag, std::string* out) { *out += "<" + tag + ">"; }
void Close(const std::string& tag, std::string* out) {
  *out += "</" + tag + ">";
}

// A subtree of at most `depth` levels with up to `fanout` children a node.
void Bushy(Random* rng, int depth, uint64_t fanout, std::string* out) {
  std::string tag = Tag(rng);
  Open(tag, out);
  if (depth > 1) {
    uint64_t children = rng->Uniform(fanout + 1);
    for (uint64_t i = 0; i < children; ++i) {
      Bushy(rng, depth - 1, fanout, out);
    }
  }
  Close(tag, out);
}

// A long spine with the odd short side branch: deep nesting of repeated
// tags, so candidate sets nest and predicates need several layers.
std::string DeepNarrow(Random* rng) {
  int depth = 10 + static_cast<int>(rng->Uniform(7));
  std::vector<std::string> spine;
  std::string out;
  for (int i = 0; i < depth; ++i) {
    spine.push_back(Tag(rng));
    Open(spine.back(), &out);
    if (rng->Bernoulli(0.35)) Bushy(rng, 2, 2, &out);
  }
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) Close(*it, &out);
  return out;
}

// A root with `width` shallow subtrees: large, un-nested candidate sets.
std::string WideFlat(Random* rng, uint64_t width) {
  std::string out;
  Open("a", &out);
  for (uint64_t i = 0; i < width; ++i) Bushy(rng, 3, 2, &out);
  Close("a", &out);
  return out;
}

std::vector<std::string> DocumentNames(const std::string& xml) {
  auto doc = xml::ParseDocument(xml);
  SSDB_CHECK(doc.ok());
  std::vector<std::string> names;
  xml::ForEachElement(doc->root(), [&](const xml::Node& node) {
    if (std::find(names.begin(), names.end(), node.name) == names.end()) {
      names.push_back(node.name);
    }
  });
  return names;
}

std::vector<Step> RandomPath(Random* rng, const std::vector<std::string>& names,
                             size_t max_steps, bool relative, int depth) {
  std::vector<Step> steps;
  size_t count = 1 + rng->Uniform(max_steps);
  for (size_t i = 0; i < count; ++i) {
    Step step;
    step.axis = rng->Bernoulli(0.4) ? Step::Axis::kDescendant
                                    : Step::Axis::kChild;
    double roll = rng->NextDouble();
    if (roll < 0.15) {
      step.kind = Step::Kind::kWildcard;
    } else if (roll < 0.28 && (i > 0 || relative)) {
      step.kind = Step::Kind::kParent;
      step.axis = Step::Axis::kChild;
    } else {
      step.name = rng->Pick(names);
    }
    if (step.kind != Step::Kind::kParent && depth < 2 &&
        rng->Bernoulli(0.25)) {
      step.predicate = RandomPath(rng, names, 2, /*relative=*/true, depth + 1);
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

query::Query RandomQuery(Random* rng, const std::vector<std::string>& names) {
  query::Query q;
  q.steps = RandomPath(rng, names, 4, /*relative=*/false, 0);
  q.text = query::QueryToString(q);
  return q;
}

// One way of serving a document: the client stack `db()` talks to.
struct Deployment {
  std::string label;
  std::unique_ptr<core::EncryptedXmlDatabase> served;
  std::vector<std::unique_ptr<rpc::ConcurrentServer>> servers;
  std::unique_ptr<testing_helpers::TamperingServerFilter> faulty;
  std::unique_ptr<core::EncryptedXmlDatabase> client;

  core::EncryptedXmlDatabase* db() {
    return client != nullptr ? client.get() : served.get();
  }
};

class Battery {
 public:
  Battery(uint64_t seed, std::string kind, std::string xml,
          mapping::TagMap map)
      : seed_(seed),
        kind_(std::move(kind)),
        xml_(std::move(xml)),
        map_(std::move(map)),
        dir_("differential") {
    auto doc = xml::ParseDocument(xml_);
    SSDB_CHECK(doc.ok());
    doc_ = std::move(*doc);
    xml::AnnotatePrePost(&doc_);
  }

  // Builds the memory/disk × m ∈ {1, 2, 3} deployments plus the one whose
  // primary fails every NodesBatch.
  void Deploy() {
    const prg::Seed seed = prg::Seed::FromUint64(seed_);
    for (core::Backend backend :
         {core::Backend::kMemory, core::Backend::kDisk}) {
      for (uint32_t m : {1u, 2u, 3u}) {
        Deployment dep;
        bool disk = backend == core::Backend::kDisk;
        dep.label = std::string(disk ? "disk" : "memory") +
                    " m=" + std::to_string(m) + (m > 1 ? " sockets" : "");
        core::DatabaseOptions options;
        options.backend = backend;
        options.servers = m;
        options.disk_path =
            dir_.FilePath("doc" + std::to_string(deployments_.size()));
        auto served = core::EncryptedXmlDatabase::Encode(xml_, map_, seed,
                                                         options);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        dep.served = std::move(*served);
        if (m > 1) {
          std::vector<std::unique_ptr<rpc::Channel>> channels;
          for (uint32_t i = 0; i < m; ++i) {
            std::string path =
                dir_.FilePath(std::to_string(deployments_.size()) + "s" +
                              std::to_string(i) + ".sock");
            auto listener = rpc::UnixServerSocket::Listen(path);
            ASSERT_TRUE(listener.ok()) << listener.status().ToString();
            rpc::ConcurrentServerOptions server_options;
            server_options.threads = 2;
            dep.servers.push_back(std::make_unique<rpc::ConcurrentServer>(
                dep.served->ring(), dep.served->slice_filter(i),
                std::move(*listener), server_options));
            ASSERT_TRUE(dep.servers.back()->Start().ok());
            auto channel = rpc::ConnectUnix(path);
            ASSERT_TRUE(channel.ok()) << channel.status().ToString();
            channels.push_back(std::move(*channel));
          }
          auto client = core::EncryptedXmlDatabase::ConnectRemoteMulti(
              std::move(channels), map_, seed, 83, 1);
          ASSERT_TRUE(client.ok()) << client.status().ToString();
          dep.client = std::move(*client);
        }
        deployments_.push_back(std::move(dep));
      }
    }

    Deployment faulty;
    faulty.label = "memory m=2 primary loses the skeleton after open";
    core::DatabaseOptions options;
    options.servers = 2;
    auto served = core::EncryptedXmlDatabase::Encode(xml_, map_, seed,
                                                     options);
    ASSERT_TRUE(served.ok());
    faulty.served = std::move(*served);
    faulty.faulty = std::make_unique<testing_helpers::TamperingServerFilter>(
        faulty.served->ring(), faulty.served->slice_filter(0),
        testing_helpers::FaultConfig{});
    auto open = [&] {
      return core::EncryptedXmlDatabase::FromFilters(
          {faulty.faulty.get(), faulty.served->slice_filter(1)}, map_, seed,
          83, 1);
    };
    // A primary that fails or forges the skeleton fails the open, named.
    for (auto [fault, code] :
         {std::pair{testing_helpers::SkeletonFault::kFail,
                    StatusCode::kUnavailable},
          std::pair{testing_helpers::SkeletonFault::kForge,
                    StatusCode::kCorruption}}) {
      faulty.faulty->config().skeleton = fault;
      auto refused = open();
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(), code) << refused.status().ToString();
      EXPECT_NE(refused.status().message().find("server 0"),
                std::string::npos)
          << refused.status().ToString();
    }
    faulty.faulty->config().skeleton = testing_helpers::SkeletonFault::kNone;
    auto client = open();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    faulty.client = std::move(*client);
    faulty.faulty->config().skeleton = testing_helpers::SkeletonFault::kFail;
    faulty_ = std::move(faulty);
  }

  // Runs `queries` random queries on every deployment, engine and mode.
  void Run(int queries, Random* rng) {
    std::vector<std::string> names = DocumentNames(xml_);
    names.push_back(kind_ == "xmark" ? "africa" : "f");
    for (int trial = 0; trial < queries; ++trial) {
      ASSERT_NO_FATAL_FAILURE(RunQuery(RandomQuery(rng, names)));
    }
  }

  // Runs one query on every deployment, engine and mode.
  void RunQuery(const query::Query& q) {
    for (core::EngineKind engine :
         {core::EngineKind::kSimple, core::EngineKind::kAdvanced}) {
      for (MatchMode mode : {MatchMode::kEquality, MatchMode::kContainment}) {
        auto truth =
            mode == MatchMode::kEquality
                ? query::EvaluateGroundTruth(q, doc_)
                : query::EvaluateContainmentTruth(
                      q, doc_,
                      engine == core::EngineKind::kSimple
                          ? query::ContainmentRule::kSimple
                          : query::ContainmentRule::kLookahead);
        ASSERT_TRUE(truth.ok()) << q.text;
        for (Deployment& dep : deployments_) {
          Check(&dep, q, engine, mode, *truth);
        }
        Check(&faulty_, q, engine, mode, *truth);
      }
    }
  }

 private:
  void Check(Deployment* dep, const query::Query& q, core::EngineKind engine,
             MatchMode mode, const std::vector<uint32_t>& truth) {
    std::string where = "seed=" + std::to_string(seed_) + " doc=" + kind_ +
                        " deployment=[" + dep->label + "] engine=" +
                        (engine == core::EngineKind::kSimple ? "simple"
                                                             : "advanced") +
                        " mode=" + std::string(query::MatchModeName(mode)) +
                        " query=" + q.text;
    auto result = dep->db()->QueryParsed(q, engine, mode);
    if (!result.ok()) {
      ADD_FAILURE() << where << ": " << result.status().ToString();
      return;
    }
    std::vector<uint32_t> actual;
    for (const filter::NodeMeta& node : result->nodes) {
      actual.push_back(node.pre);
    }
    EXPECT_EQ(actual, truth) << where;
  }

  uint64_t seed_;
  std::string kind_;
  std::string xml_;
  mapping::TagMap map_;
  TempDir dir_;
  xml::Document doc_;
  std::vector<Deployment> deployments_;
  Deployment faulty_;
};

mapping::TagMap XmarkMap() {
  auto map = core::EncryptedXmlDatabase::TagMapForDtd(
      xmark::AuctionDtd(), *gf::Field::Make(83), false);
  SSDB_CHECK(map.ok());
  return std::move(*map);
}

mapping::TagMap AlphabetMap() {
  auto map = mapping::TagMap::FromNames(kAlphabet, *gf::Field::Make(83));
  SSDB_CHECK(map.ok());
  return std::move(*map);
}

// One document of each kind per seed, `queries` queries each.
void RunSeeds(uint64_t first_seed, uint64_t seeds, int queries) {
  for (uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    Random rng(seed);
    xmark::GeneratorOptions gen;
    gen.target_bytes = 6 << 10;
    gen.seed = seed;
    struct Input {
      const char* kind;
      std::string xml;
      mapping::TagMap map;
    };
    std::vector<Input> inputs;
    inputs.push_back({"xmark", xmark::GenerateAuctionDocument(gen).xml,
                      XmarkMap()});
    inputs.push_back({"deep", DeepNarrow(&rng), AlphabetMap()});
    inputs.push_back({"wide", WideFlat(&rng, 20 + rng.Uniform(40)),
                      AlphabetMap()});
    for (Input& input : inputs) {
      Battery battery(seed, input.kind, std::move(input.xml),
                      std::move(input.map));
      ASSERT_NO_FATAL_FAILURE(battery.Deploy());
      ASSERT_NO_FATAL_FAILURE(battery.Run(queries, &rng));
    }
  }
}

TEST(DifferentialTest, ShortBattery) { RunSeeds(1, 3, 30); }

TEST(DifferentialTest, MultiPageDescendants) {
  // More descendants than one kDescendantsPage: '//' and '//*' steps read
  // several pages, and a lost or repeated page changes the answer.
  Random rng(99);
  std::string xml = WideFlat(&rng, 3000);
  auto doc = xml::ParseDocument(xml);
  ASSERT_TRUE(doc.ok());
  ASSERT_GT(doc->ElementCount(), filter::kDescendantsPage + 100);
  Battery battery(99, "wide-multipage", std::move(xml), AlphabetMap());
  ASSERT_NO_FATAL_FAILURE(battery.Deploy());
  for (const char* text : {"//b", "/a//*[c]", "/a/*//d/..", "//c[e]"}) {
    auto q = query::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    ASSERT_NO_FATAL_FAILURE(battery.RunQuery(*q));
  }
}

TEST(DifferentialTest, HubWhoseChildrenHoldEveryTag) {
  // 81 mapped tags over F_83 leave one spare value. The hub's child
  // product vanishes at the other 81 points, so a strict test of the hub
  // draws 5 of them with probability C(81,5)/C(82,5) ≈ 0.94 and falls back
  // to whole vectors (DESIGN.md §3). Its answers must not change.
  std::vector<std::string> names;
  for (int i = 0; i < 81; ++i) names.push_back("t" + std::to_string(i));
  auto map = mapping::TagMap::FromNames(names, *gf::Field::Make(83));
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  Random rng(81);
  std::string xml = "<t0><t2><t3/></t2><t1>";
  for (const std::string& name : names) {
    xml += "<" + name + ">";
    if (rng.Bernoulli(0.3)) {
      xml += "<t" + std::to_string(rng.Uniform(81)) + "/>";
    }
    xml += "</" + name + ">";
  }
  xml += "</t1><t5><t1><t4/></t1></t5></t0>";

  // The fallback runs: the hub's step fetches the hub and its 81 children
  // whole, beyond the root's own whole-vector fetch.
  core::DatabaseOptions options;
  auto db = core::EncryptedXmlDatabase::Encode(
      xml, *map, prg::Seed::FromUint64(81), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto hub = (*db)->Query("/t0/t1", core::EngineKind::kSimple,
                          MatchMode::kEquality);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  ASSERT_EQ(hub->nodes.size(), 1u);
  EXPECT_GT(hub->stats.eval.shares_fetched, 81u);

  Battery battery(81, "hub", std::move(xml), std::move(*map));
  ASSERT_NO_FATAL_FAILURE(battery.Deploy());
  for (const char* text : {"/t0/t1", "/t0/*", "//t1", "/t0/t1/t7",
                           "//t1[t40]", "/t0/*[t3]", "//t1/..", "//*[t4]"}) {
    auto q = query::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    ASSERT_NO_FATAL_FAILURE(battery.RunQuery(*q));
  }
  ASSERT_NO_FATAL_FAILURE(battery.Run(10, &rng));
}

TEST(DifferentialTest, LongDifferentialBattery) { RunSeeds(1000, 10, 50); }

}  // namespace
}  // namespace ssdb
