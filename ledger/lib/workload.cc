#include "lib/workload.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <utility>

#include "gf/field.h"
#include "query/ground_truth.h"
#include "rpc/client.h"
#include "rpc/socket_channel.h"
#include "util/stopwatch.h"
#include "xmark/generator.h"

namespace ssdb::ledger {
namespace {

using core::EngineKind;
using query::MatchMode;

constexpr uint64_t kKiB = 1024;

// Documents of one corpus get distinct seeds derived from the run seed.
uint64_t DocSeed(uint64_t seed, uint32_t doc) { return seed + 7919 * doc; }

const xml::Node* ChildNamed(const xml::Node* node, const std::string& name) {
  for (const auto& child : node->children) {
    if (child->IsElement() && child->name == name) return child.get();
  }
  return nullptr;
}

size_t Descendants(const xml::Node* node) {
  size_t count = 0;
  for (const auto& child : node->children) {
    if (child->IsElement()) count += 1 + Descendants(child.get());
  }
  return count;
}

// Four-node <open_auction> fragments for the rw-disk INSERT; the seed picks
// one per run. Every tag is in the XMark map.
const char* const kFragments[] = {
    "<open_auction><initial/><bidder><date/></bidder></open_auction>",
    "<open_auction><initial/><current/><itemref/></open_auction>",
    "<open_auction><bidder><date/><time/></bidder></open_auction>",
    "<open_auction><reserve/><bidder><increase/></bidder></open_auction>",
};

std::vector<uint32_t> PresOf(const std::vector<filter::NodeMeta>& nodes) {
  std::vector<uint32_t> pres;
  pres.reserve(nodes.size());
  for (const filter::NodeMeta& node : nodes) pres.push_back(node.pre);
  std::sort(pres.begin(), pres.end());
  return pres;
}

std::string Describe(const std::vector<uint32_t>& pres) {
  return std::to_string(pres.size()) + " nodes";
}

std::string Describe(const agg::Result& result) {
  std::string out = "{";
  for (size_t g = 0; g < result.values.size(); ++g) {
    if (g > 0) out += ",";
    if (g < result.group_names.size()) out += result.group_names[g] + "=";
    out += std::to_string(result.values[g]);
  }
  return out + "}";
}

// An aggregate answer must equal the expected one exactly; probes add
// `delta` to the single (non-group-by) value.
Status CheckAggregate(const OpClass& cls, const Step& step,
                      const agg::Result& got) {
  agg::Result want = step.expected.aggregate;
  if (step.delta != 0 && !want.values.empty()) {
    want.values[0] = static_cast<uint64_t>(
        static_cast<int64_t>(want.values[0]) + step.delta);
  }
  if (got.values != want.values || got.group_names != want.group_names) {
    return Status::Corruption(cls.name + ": aggregate " + Describe(got) +
                              " != expected " + Describe(want));
  }
  if (cls.verified && !got.verified) {
    return Status::Corruption(cls.name + ": aggregate not verified");
  }
  return Status::OK();
}

Status CheckFetch(const OpClass& cls, const Expected& expected,
                  const std::vector<uint32_t>& got) {
  if (cls.mode == MatchMode::kEquality) {
    if (got != expected.truth) {
      return Status::Corruption(cls.name + ": " + Describe(got) +
                                " != ground truth " +
                                Describe(expected.truth));
    }
    return Status::OK();
  }
  if (!std::includes(got.begin(), got.end(), expected.truth.begin(),
                     expected.truth.end())) {
    return Status::Corruption(cls.name + ": containment answer misses "
                              "ground-truth nodes");
  }
  if (got != expected.reference) {
    return Status::Corruption(cls.name + ": " + Describe(got) +
                              " != in-process reference " +
                              Describe(expected.reference));
  }
  return Status::OK();
}

std::string DocId(uint32_t doc) { return "doc" + std::to_string(doc); }

}  // namespace

bool IsMutation(OpKind kind) {
  return kind == OpKind::kInsert || kind == OpKind::kDelete ||
         kind == OpKind::kUpdate;
}

uint64_t Workload::xml_bytes() const {
  uint64_t total = 0;
  for (const DocInput& doc : docs) total += doc.xml.size();
  return total;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"nav", "agg", "rw-disk",
                                                 "corpus"};
  return names;
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  SSDB_ASSIGN_OR_RETURN(gf::Field field, gf::Field::Make(83));
  SSDB_ASSIGN_OR_RETURN(w.map, core::EncryptedXmlDatabase::TagMapForDtd(
                                   xmark::AuctionDtd(), field, false));
  std::mt19937_64 rng(seed);

  auto add = [&w](std::string class_name, OpKind kind, std::string xpath,
                  EngineKind engine, MatchMode mode,
                  bool verified) -> StatusOr<size_t> {
    OpClass cls;
    cls.name = std::move(class_name);
    cls.kind = kind;
    cls.xpath = std::move(xpath);
    cls.engine = engine;
    cls.mode = mode;
    cls.verified = verified;
    if (!cls.xpath.empty()) {
      SSDB_ASSIGN_OR_RETURN(cls.parsed, query::ParseQuery(cls.xpath));
    }
    w.classes.push_back(std::move(cls));
    return w.classes.size() - 1;
  };
  auto step = [&w](size_t cls) -> Step& {
    w.cycle.emplace_back();
    w.cycle.back().cls = cls;
    return w.cycle.back();
  };
  const EngineKind kSimple = EngineKind::kSimple;
  const EngineKind kAdvanced = EngineKind::kAdvanced;
  const MatchMode kEq = MatchMode::kEquality;
  const MatchMode kContain = MatchMode::kContainment;
  const std::string chain9 =
      "/site/regions/europe/item/description/parlist/listitem/text/keyword";

  uint32_t doc_count = 1;
  if (name == "nav") {
    w.why = "fetch mix on both engines and match modes: client share "
            "regeneration, the step loop and per-candidate round trips";
    w.doc_bytes = 256 * kKiB;
    struct Spec {
      const char* name;
      std::string xpath;
      EngineKind engine;
      MatchMode mode;
    };
    const Spec specs[] = {
        {"chain9.simple.eq", chain9, kSimple, kEq},
        {"chain9.advanced.contain", chain9, kAdvanced, kContain},
        {"person_city.simple.contain", "/site/*/person//city", kSimple,
         kContain},
        {"person_city.advanced.eq", "/site/*/person//city", kAdvanced, kEq},
        {"bidder_date.advanced.eq", "//bidder/date", kAdvanced, kEq},
        {"bidder_date.simple.contain", "//bidder/date", kSimple, kContain},
        {"predicate.advanced.eq", "/site/people/person[address/city]/name",
         kAdvanced, kEq},
        {"parent.simple.contain", "//address/../name", kSimple, kContain},
    };
    for (const Spec& s : specs) {
      SSDB_ASSIGN_OR_RETURN(size_t cls, add(s.name, OpKind::kFetch, s.xpath,
                                            s.engine, s.mode, false));
      step(cls);
    }
  } else if (name == "agg") {
    w.why = "plain and verified aggregates over large frontiers: server "
            "folds, column reads and dispatch under 2 concurrent clients";
    w.doc_bytes = 512 * kKiB;
    w.verify_track = true;
    w.clients = 2;
    const char* const queries[][2] = {
        {"person_children.count", "count(/site/people/person/*)"},
        {"auction_children.sum", "sum(/site/open_auctions/open_auction/*)"},
        {"closed_desc.count", "count(/site/closed_auctions/closed_auction//*)"},
    };
    for (const auto& q : queries) {
      for (bool verified : {false, true}) {
        std::string class_name =
            std::string(q[0]) + (verified ? ".verified" : ".plain");
        SSDB_ASSIGN_OR_RETURN(size_t cls,
                              add(class_name, OpKind::kAggregate, q[1],
                                  kAdvanced, kContain, verified));
        step(cls);
      }
    }
  } else if (name == "rw-disk") {
    w.why = "the only writer and the only working set beyond the buffer "
            "pools: two-phase commit on disk, then reads of what it wrote";
    w.backend = core::Backend::kDisk;
    w.doc_bytes = 256 * kKiB;
    w.verify_track = true;
  } else if (name == "corpus") {
    w.why = "router fan-out over two server groups: per-document merge and "
            "the straggler document";
    w.doc_bytes = 256 * kKiB;
    w.verify_track = true;
    w.server_threads = 1;
    doc_count = 2;
    SSDB_ASSIGN_OR_RETURN(size_t person,
                          add("corpus.person.count", OpKind::kCorpus,
                              "count(/site//person)", kAdvanced, kEq, true));
    SSDB_ASSIGN_OR_RETURN(size_t all,
                          add("corpus.all.count", OpKind::kCorpus,
                              "count(//*)", kAdvanced, kEq, true));
    SSDB_ASSIGN_OR_RETURN(size_t bidder,
                          add("corpus.bidder.sum", OpKind::kCorpus,
                              "sum(/site//bidder)", kAdvanced, kEq, true));
    SSDB_ASSIGN_OR_RETURN(size_t city,
                          add("doc.person_city", OpKind::kDocFetch,
                              "/site/*/person//city", kAdvanced, kEq, false));
    step(person);
    step(all);
    step(bidder);
    step(city).doc = 0;
    step(city).doc = 1;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }

  for (uint32_t d = 0; d < doc_count; ++d) {
    DocInput doc;
    doc.seed = DocSeed(seed, d);
    // The generator lands within ~15% of its target; re-aim until the
    // document is within 0.5% of the workload's size, so that size-bound
    // costs do not vary from seed to seed.
    xmark::GeneratorOptions gen;
    gen.target_bytes = w.doc_bytes;
    gen.seed = doc.seed;
    for (int attempt = 0; attempt < 4; ++attempt) {
      doc.xml = xmark::GenerateAuctionDocument(gen).xml;
      const double ratio = static_cast<double>(w.doc_bytes) / doc.xml.size();
      if (ratio > 0.995 && ratio < 1.005) break;
      gen.target_bytes = static_cast<uint64_t>(gen.target_bytes * ratio);
    }
    SSDB_ASSIGN_OR_RETURN(doc.dom, xml::ParseDocument(doc.xml));
    xml::AnnotatePrePost(&doc.dom);
    w.docs.push_back(std::move(doc));
  }

  if (name == "rw-disk") {
    // One cycle: INSERT a 4-node <open_auction>, probe the count (base+1),
    // DELETE it, probe (base), re-tag asia -> africa -> asia, one fetch
    // and one group-by count. The document is back in its encoded shape at
    // the end of every cycle, so every cycle checks the same answers.
    const xml::Node* site = w.docs[0].dom.root();
    const xml::Node* auctions = ChildNamed(site, "open_auctions");
    const xml::Node* regions = ChildNamed(site, "regions");
    const xml::Node* asia =
        regions == nullptr ? nullptr : ChildNamed(regions, "asia");
    if (auctions == nullptr || asia == nullptr) {
      return Status::Internal("generated document lacks open_auctions/asia");
    }
    SSDB_ASSIGN_OR_RETURN(size_t insert,
                          add("insert", OpKind::kInsert, "", kAdvanced, kEq,
                              false));
    SSDB_ASSIGN_OR_RETURN(
        size_t probe,
        add("probe.count", OpKind::kAggregate,
            "count(/site/open_auctions/open_auction)", kAdvanced, kEq, true));
    SSDB_ASSIGN_OR_RETURN(size_t erase, add("delete", OpKind::kDelete, "",
                                            kAdvanced, kEq, false));
    SSDB_ASSIGN_OR_RETURN(size_t update, add("update", OpKind::kUpdate, "",
                                             kAdvanced, kEq, false));
    SSDB_ASSIGN_OR_RETURN(size_t fetch,
                          add("fetch.asia_items", OpKind::kFetch,
                              "/site/regions/asia/item", kAdvanced, kEq,
                              false));
    SSDB_ASSIGN_OR_RETURN(size_t count,
                          add("count.site_children", OpKind::kAggregate,
                              "count(/site/*)", kAdvanced, kEq, true));
    const std::string fragment =
        kFragments[rng() % (sizeof(kFragments) / sizeof(kFragments[0]))];
    Step& ins = step(insert);
    ins.pre = auctions->pre;
    ins.fragment = fragment;
    step(probe).delta = 1;
    // The fragment lands as the last child: right after the subtree.
    Step& del = step(erase);
    del.pre = auctions->pre + static_cast<uint32_t>(Descendants(auctions)) + 1;
    del.fragment = fragment;
    step(probe).delta = 0;
    Step& away = step(update);
    away.pre = asia->pre;
    away.tag = "africa";
    Step& back = step(update);
    back.pre = asia->pre;
    back.tag = "asia";
    step(fetch);
    step(count);
  } else {
    std::shuffle(w.cycle.begin(), w.cycle.end(), rng);
  }
  return w;
}

// --- Deployment --------------------------------------------------------------

StatusOr<std::unique_ptr<Deployment>> Deployment::Start(
    const Workload& workload, const std::string& dir, bool traced,
    size_t clients, Timing* timing) {
  std::unique_ptr<Deployment> dep(new Deployment());
  dep->dir_ = dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  Stopwatch total;
  std::vector<std::vector<std::string>> paths(workload.docs.size());
  for (uint32_t d = 0; d < workload.docs.size(); ++d) {
    const DocInput& doc = workload.docs[d];
    core::DatabaseOptions options;
    options.backend = workload.backend;
    options.disk_path = dir + "/" + DocId(d) + ".ssdb";
    options.servers = workload.servers;
    options.encode.verify_aggregate = workload.verify_track;
    Stopwatch encode;
    SSDB_ASSIGN_OR_RETURN(
        auto db, core::EncryptedXmlDatabase::Encode(
                     doc.xml, workload.map, prg::Seed::FromUint64(doc.seed),
                     options));
    if (timing != nullptr) timing->encode_s += encode.ElapsedSeconds();

    for (uint32_t i = 0; i < workload.servers; ++i) {
      // Each server owns its filter, as ssdb_server does: the in-process
      // reference queries (ComputeExpected) never touch served state such
      // as the cursor-id counter, so plain and traced runs see identical
      // wire traffic.
      const uint16_t index = static_cast<uint16_t>(d * workload.servers + i);
      Slice slice;
      storage::NodeStore* store = db->slice_store(i);
      if (traced) {
        slice.traced_store = std::make_unique<TracedNodeStore>(store, index);
        store = slice.traced_store.get();
      }
      slice.filter =
          std::make_unique<filter::LocalServerFilter>(db->ring(), store);
      if (traced) {
        slice.filter = std::make_unique<TracedServerFilter>(
            std::move(slice.filter), index, i == 0 ? &dep->replay_ : nullptr);
      }
      filter::ServerFilter* filter = slice.filter.get();
      dep->slices_.push_back(std::move(slice));
      paths[d].push_back(dir + "/" + DocId(d) + "s" + std::to_string(i) +
                         ".sock");
      SSDB_ASSIGN_OR_RETURN(auto listener,
                            rpc::UnixServerSocket::Listen(paths[d].back()));
      rpc::ConcurrentServerOptions server_options;
      server_options.threads = workload.server_threads;
      dep->servers_.push_back(std::make_unique<rpc::ConcurrentServer>(
          db->ring(), filter, std::move(listener), server_options));
      SSDB_RETURN_IF_ERROR(dep->servers_.back()->Start());
    }
    dep->docs_.push_back(std::move(db));
  }

  if (workload.corpus()) {
    shard::ShardCatalog catalog;
    std::map<std::string, prg::Seed> seeds;
    std::map<std::string, std::vector<filter::ServerFilter*>> backends;
    for (uint32_t d = 0; d < workload.docs.size(); ++d) {
      shard::ShardEntry entry;
      entry.doc_id = DocId(d);
      entry.group = d;
      entry.slices = paths[d];
      SSDB_RETURN_IF_ERROR(catalog.Add(std::move(entry)));
      seeds.emplace(DocId(d), prg::Seed::FromUint64(workload.docs[d].seed));
      if (!traced) continue;
      for (uint32_t i = 0; i < workload.servers; ++i) {
        SSDB_ASSIGN_OR_RETURN(auto channel, rpc::ConnectUnix(paths[d][i]));
        auto wrapped = std::make_unique<TracedChannel>(
            std::move(channel),
            static_cast<uint16_t>(d * workload.servers + i));
        dep->router_channels_.push_back(wrapped.get());
        dep->remotes_.push_back(std::make_unique<rpc::RemoteServerFilter>(
            dep->docs_[d]->ring(), std::move(wrapped)));
        backends[DocId(d)].push_back(dep->remotes_.back().get());
      }
    }
    core::CorpusOptions options;
    options.verify_aggregate = true;
    const prg::Seed default_seed =
        prg::Seed::FromUint64(workload.docs[0].seed);
    if (traced) {
      SSDB_ASSIGN_OR_RETURN(
          dep->router_, shard::Router::FromBackends(std::move(catalog),
                                                    &workload.map, default_seed,
                                                    seeds, options, backends));
    } else {
      SSDB_ASSIGN_OR_RETURN(
          dep->router_, shard::Router::Open(std::move(catalog), &workload.map,
                                            default_seed, seeds, options));
    }
  } else {
    const DocInput& doc = workload.docs[0];
    for (size_t c = 0; c < clients; ++c) {
      Client client;
      std::vector<std::unique_ptr<rpc::Channel>> channels;
      for (uint32_t i = 0; i < workload.servers; ++i) {
        SSDB_ASSIGN_OR_RETURN(auto channel, rpc::ConnectUnix(paths[0][i]));
        if (traced) {
          channel = std::make_unique<TracedChannel>(std::move(channel),
                                                    static_cast<uint16_t>(i));
        }
        client.channels.push_back(channel.get());
        channels.push_back(std::move(channel));
      }
      const gf::Field& field = dep->docs_[0]->ring().field();
      SSDB_ASSIGN_OR_RETURN(
          client.facade,
          core::EncryptedXmlDatabase::ConnectRemoteMulti(
              std::move(channels), workload.map,
              prg::Seed::FromUint64(doc.seed), field.p(), field.e()));
      dep->clients_.push_back(std::move(client));
    }
  }
  if (timing != nullptr) timing->total_s = total.ElapsedSeconds();
  return dep;
}

Deployment::~Deployment() { Shutdown(); }

void Deployment::Shutdown() {
  // Clients first, so every server sees its connections close; servers
  // before the filters and stores they point into.
  clients_.clear();
  router_.reset();
  remotes_.clear();
  router_channels_.clear();
  for (auto& server : servers_) server->Shutdown();
  servers_.clear();
  slices_.clear();
  docs_.clear();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }
}

Status Deployment::ComputeExpected(Workload* workload) {
  for (Step& step : workload->cycle) {
    const OpClass& cls = workload->classes[step.cls];
    Expected& expected = step.expected;
    switch (cls.kind) {
      case OpKind::kFetch:
      case OpKind::kDocFetch: {
        core::EncryptedXmlDatabase* db = docs_[step.doc].get();
        SSDB_ASSIGN_OR_RETURN(expected.truth,
                              query::EvaluateGroundTruth(
                                  cls.parsed, workload->docs[step.doc].dom));
        std::sort(expected.truth.begin(), expected.truth.end());
        SSDB_ASSIGN_OR_RETURN(core::QueryResult local,
                              db->QueryParsed(cls.parsed, cls.engine,
                                              cls.mode));
        expected.reference = PresOf(local.nodes);
        break;
      }
      case OpKind::kAggregate: {
        core::EncryptedXmlDatabase* db = docs_[0].get();
        db->aggregation_engine()->set_verify(cls.verified);
        SSDB_ASSIGN_OR_RETURN(core::QueryResult local,
                              db->QueryParsed(cls.parsed, cls.engine,
                                              cls.mode));
        expected.aggregate = std::move(local.aggregate);
        break;
      }
      case OpKind::kCorpus: {
        // The router merges documents additively in catalog order; so does
        // the expectation.
        for (size_t d = 0; d < docs_.size(); ++d) {
          docs_[d]->aggregation_engine()->set_verify(cls.verified);
          SSDB_ASSIGN_OR_RETURN(core::QueryResult local,
                                docs_[d]->QueryParsed(cls.parsed, cls.engine,
                                                      cls.mode));
          shard::MergeAggregate(&expected.aggregate, local.aggregate, d == 0);
        }
        break;
      }
      case OpKind::kInsert:
      case OpKind::kDelete: {
        SSDB_ASSIGN_OR_RETURN(xml::Document fragment,
                              xml::ParseDocument(step.fragment));
        expected.subtree_nodes = fragment.ElementCount();
        break;
      }
      case OpKind::kUpdate:
        break;
    }
  }
  return Status::OK();
}

uint64_t Deployment::WireBytes(size_t client) const {
  uint64_t total = 0;
  if (router_ != nullptr) {
    if (router_channels_.empty()) return router_->bytes_on_wire();
    for (const rpc::Channel* channel : router_channels_) {
      total += channel->bytes_sent() + channel->bytes_received();
    }
    return total;
  }
  for (const rpc::Channel* channel : clients_[client].channels) {
    total += channel->bytes_sent() + channel->bytes_received();
  }
  return total;
}

uint64_t Deployment::RoundTrips(size_t client) const {
  return router_ != nullptr ? 0
                            : clients_[client].facade->server_round_trips();
}

OpRecord Deployment::Run(size_t client, const Workload& workload,
                         const Step& step) {
  const OpClass& cls = workload.classes[step.cls];
  OpRecord rec;
  rec.cls = step.cls;
  core::EncryptedXmlDatabase* facade =
      router_ == nullptr ? clients_[client].facade.get() : nullptr;
  if (facade != nullptr) facade->aggregation_engine()->set_verify(cls.verified);
  const uint64_t bytes_before = WireBytes(client);
  const uint64_t trips_before = RoundTrips(client);

  Status status;
  rec.start_ns = NowNs();
  switch (cls.kind) {
    case OpKind::kFetch:
    case OpKind::kAggregate: {
      auto result = facade->QueryParsed(cls.parsed, cls.engine, cls.mode);
      rec.end_ns = NowNs();
      if (!result.ok()) {
        status = result.status();
        break;
      }
      rec.stats = result->stats;
      if (cls.kind == OpKind::kFetch) {
        rec.pres = PresOf(result->nodes);
        status = CheckFetch(cls, step.expected, rec.pres);
      } else {
        rec.values = result->aggregate.values;
        rec.proof_words = result->aggregate.proof_words;
        status = CheckAggregate(cls, step, result->aggregate);
      }
      break;
    }
    case OpKind::kInsert:
    case OpKind::kDelete:
    case OpKind::kUpdate: {
      StatusOr<core::MutationResult> result =
          cls.kind == OpKind::kInsert
              ? facade->Insert(step.pre, step.fragment)
          : cls.kind == OpKind::kDelete
              ? facade->Delete(step.pre)
              : facade->Update(step.pre, step.tag, std::nullopt);
      rec.end_ns = NowNs();
      if (!result.ok()) {
        status = result.status();
        break;
      }
      rec.reshared_bytes = result->stats.reshared_bytes;
      rec.values = {result->stats.subtree_nodes, result->stats.path_nodes};
      if (cls.kind != OpKind::kUpdate &&
          result->stats.subtree_nodes != step.expected.subtree_nodes) {
        status = Status::Corruption(
            cls.name + ": touched " +
            std::to_string(result->stats.subtree_nodes) + " nodes, expected " +
            std::to_string(step.expected.subtree_nodes));
      }
      break;
    }
    case OpKind::kCorpus: {
      auto result = router_->QueryCorpus(cls.parsed, cls.mode);
      rec.end_ns = NowNs();
      if (!result.ok()) {
        status = result.status();
        break;
      }
      rec.stats = result->stats;
      rec.docs = result->documents;
      rec.values = result->aggregate.values;
      rec.proof_words = result->aggregate.proof_words;
      status = CheckAggregate(cls, step, result->aggregate);
      break;
    }
    case OpKind::kDocFetch: {
      auto result = router_->QueryDoc(DocId(step.doc), cls.parsed, cls.mode);
      rec.end_ns = NowNs();
      if (!result.ok()) {
        status = result.status();
        break;
      }
      rec.stats = result->stats;
      rec.pres = PresOf(result->nodes);
      status = CheckFetch(cls, step.expected, rec.pres);
      break;
    }
  }
  rec.bytes = WireBytes(client) - bytes_before;
  rec.round_trips = router_ != nullptr ? rec.stats.eval.round_trips
                                       : RoundTrips(client) - trips_before;
  rec.ok = status.ok();
  if (!rec.ok) rec.error = status.ToString();
  return rec;
}

uint64_t Deployment::StoredBytes() {
  uint64_t total = 0;
  for (auto& db : docs_) {
    for (size_t i = 0; i < db->server_count(); ++i) {
      auto stats = db->slice_store(i)->Stats();
      if (!stats.ok()) continue;
      total += stats->file_bytes != 0 ? stats->file_bytes : stats->data_bytes;
    }
  }
  return total;
}

uint64_t Deployment::OpenCursors() const {
  uint64_t total = 0;
  for (const Slice& slice : slices_) total += slice.filter->OpenCursorCount();
  return total;
}

uint64_t Deployment::QueueDepthPeak() const {
  uint64_t peak = 0;
  for (const auto& server : servers_) {
    peak = std::max(peak, server->Snapshot().queue_depth_peak);
  }
  return peak;
}

}  // namespace ssdb::ledger
