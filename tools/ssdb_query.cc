// ssdb_query: runs XPath-subset queries against an encrypted database
// (local) or one or more running ssdb_server processes (remote). In an
// m-server deployment (DESIGN.md §5) every server holds one share slice;
// evaluations fan out to all of them concurrently and the replies are
// summed client-side.
//
//   ssdb_query --db db.ssdb --map map.properties --seed seed.key
//              [--servers m] [--engine simple|advanced]
//              [--mode strict|nonstrict] [--full-verify] [--stats]
//              [--agg count|sum|exists] [--verify-agg]
//              [--p 83] [--e 1] "QUERY" ["QUERY" ...]
//   ssdb_query --connect /tmp/s0.sock[,/tmp/s1.sock,...] --map ... --seed ...
//              "QUERY"
//   ssdb_query (--catalog catalog.json | --router /tmp/router.sock)
//              [--local] [--doc ID | --corpus] [--partial] --map ... --seed ...
//              "count(/site//item)" ...
//
// Corpus mode (DESIGN.md §10): --catalog loads a shard catalog from disk,
// --router fetches it from a running ssdb_router; either opens every
// document's server group through a shard::Router. --doc ID routes the
// queries to one document; otherwise (--corpus, the default) each query
// fans out to every group concurrently and the answers are merged — fetch
// results per document, aggregates additively across shards. --local
// reinterprets catalog slice endpoints as local slice files instead of
// sockets. One --seed covers every document (the shard::Router API also
// takes per-document seeds).
//
// --connect may be repeated or comma-separated, one socket per share slice
// in slice order (slice 0 first). --servers m with --db opens the m local
// slice files of an `ssdb_encode --servers m` run; it is a usage error with
// --connect or in corpus mode, as is --full-verify in corpus mode. Every
// --connect run, and every --db run over more than one slice, first probes
// the share sum (EncryptedXmlDatabase::ProbeShares).
//
// Aggregates (DESIGN.md §8): write the aggregate form directly —
// "count(/site//item)", "sum(//person)", "exists(/site/people)" — or pass
// --agg count|sum|exists to wrap every plain query. Aggregates are answered
// server-side over secret shares: each server returns one masked word per
// group instead of the candidate set. --stats prints QueryStats including
// result_size, which for aggregates counts GROUPS (one for a named final
// step, one per mapped tag for '*'), not matched nodes — the matched set
// never reaches the client.
//
// --verify-agg (DESIGN.md §9): aggregates additionally fetch and check the
// verification track (the database must be encoded with ssdb_encode
// --verify-agg), so a tampering server turns the query into an error naming
// the server instead of a silently wrong answer. --stats then also reports
// proof_words and verified.
//
// Mutations (DESIGN.md §12): secret-shared two-phase INSERT/UPDATE/DELETE,
// applied before any queries on the command line — so a query after a --set
// observes the mutated document:
//   --set "PRE TAG"            re-tag node PRE ('-' keeps the tag)
//   --set "PRE TAG new text"   re-tag and/or replace the node's sealed text
//   --insert "PRE <x>...</x>"  insert the fragment as PRE's last child
//   --delete PRE               delete the subtree rooted at PRE
//   --recover                  finish any undecided prepared txn first
// Each may repeat. In corpus mode mutations need --doc (they route to one
// document's group). The database must be encoded with aggregate columns.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agg/aggregation.h"
#include "core/database.h"
#include "rpc/socket_channel.h"
#include "shard/catalog.h"
#include "shard/catalog_client.h"
#include "shard/router.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace ssdb;
  tools::FlagSet flags("ssdb_query",
                       "(--db DB.ssdb [--servers m] | --connect SOCK[,...] | "
                       "--catalog CATALOG.json | --router SOCK) "
                       "--map MAP --seed SEED \"QUERY\" ...");
  const std::string* db_flag =
      flags.String("db", "", "encrypted database (or slice base) file");
  const std::vector<std::string>* connect_flag = flags.List(
      "connect", "share-server socket per slice, in slice order");
  const std::string* map_flag =
      flags.String("map", "map.properties", "tag map file (key material)");
  const std::string* seed_flag =
      flags.String("seed", "seed.key", "PRG seed file (key material)");
  const uint32_t* p_flag = flags.Uint("p", 83, "field characteristic");
  const uint32_t* e_flag = flags.Uint("e", 1, "field extension degree");
  const uint32_t* servers_flag =
      flags.Uint("servers", 1, "local slice files to open with --db");
  const std::string* engine_flag =
      flags.String("engine", "advanced", "query engine: simple or advanced");
  const std::string* mode_flag =
      flags.String("mode", "strict", "match mode: strict or nonstrict");
  const bool* full_verify_flag =
      flags.Bool("full-verify", "verify every recovered share");
  const bool* stats_flag = flags.Bool("stats", "print QueryStats per query");
  const bool* verify_agg_flag = flags.Bool(
      "verify-agg", "check the aggregate verification track (DESIGN.md §9)");
  const std::string* agg_flag = flags.String(
      "agg", "", "wrap plain queries: count, sum, or exists");
  const std::string* catalog_flag =
      flags.String("catalog", "", "shard catalog file (corpus mode)");
  const std::string* router_flag =
      flags.String("router", "", "ssdb_router socket (corpus mode)");
  const std::string* doc_flag =
      flags.String("doc", "", "route to one document id (corpus mode)");
  flags.Bool("corpus", "query every document (corpus-mode default)");
  const bool* local_flag = flags.Bool(
      "local", "treat catalog slice endpoints as local files");
  const bool* partial_flag = flags.Bool(
      "partial", "corpus queries tolerate unreachable documents and report "
                 "them as missing (DESIGN.md §11)");
  const std::vector<std::string>* set_flag = flags.List(
      "set", "mutate: \"PRE TAG [TEXT...]\" re-tags node PRE ('-' keeps the "
             "tag) and/or replaces its sealed text (DESIGN.md §12)");
  const std::vector<std::string>* insert_flag = flags.List(
      "insert", "mutate: \"PRE <frag>...</frag>\" inserts the XML fragment "
                "as the last child of node PRE");
  const std::vector<std::string>* delete_flag = flags.List(
      "delete", "mutate: PRE deletes the subtree rooted at node PRE");
  const bool* recover_flag = flags.Bool(
      "recover", "finish any undecided prepared mutation before anything "
                 "else (crash recovery, DESIGN.md §12)");

  Status flags_parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::fputs(flags.Help().c_str(), stdout);
    return tools::kExitOk;
  }
  if (!flags_parsed.ok()) return tools::UsageError(flags, flags_parsed);

  std::string db_path = *db_flag;
  const std::string& map_path = *map_flag;
  const std::string& seed_path = *seed_flag;
  const std::vector<std::string>& connects = *connect_flag;
  uint32_t p = *p_flag;
  uint32_t e = *e_flag;
  uint32_t servers = *servers_flag;
  bool advanced = *engine_flag != "simple";
  bool strict = *mode_flag != "nonstrict";
  bool show_stats = *stats_flag;
  bool verify_agg = *verify_agg_flag;
  const std::string& agg_wrap = *agg_flag;
  const std::string& catalog_path = *catalog_flag;
  const std::string& router_sock = *router_flag;
  const std::string& doc_id = *doc_flag;

  // A positional is a query iff the parser accepts it — the one source of
  // truth for plain and aggregate forms alike. --agg wraps only queries
  // that are not already aggregates.
  std::vector<std::string> queries;
  for (const std::string& arg : flags.positionals()) {
    auto parsed = query::ParseQuery(arg);
    bool aggregate_form =
        parsed.ok() && parsed->aggregate != query::Aggregate::kNone;
    // '/'-prefixed args always pass through (a malformed one reports its
    // parse error below instead of vanishing).
    if (arg[0] != '/' && !aggregate_form) continue;
    queries.push_back(agg_wrap.empty() || aggregate_form
                          ? arg
                          : agg_wrap + "(" + arg + ")");
  }
  const bool corpus_mode = !catalog_path.empty() || !router_sock.empty();

  // Mutation commands (DESIGN.md §12), decoded up front so a malformed spec
  // fails before any server is dialed. Kept in kind order: sets, inserts,
  // deletes — each list preserves its command-line order.
  struct SetCmd {
    uint32_t pre = 0;
    std::string tag;                    // empty = keep the tag
    std::optional<std::string> text;    // nullopt = keep the text
  };
  struct InsertCmd {
    uint32_t pre = 0;
    std::string fragment;
  };
  auto parse_pre = [](const std::string& text, uint32_t* pre,
                      std::string* rest) {
    char* end = nullptr;
    unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || value == 0 || value > 0xffffffffull) {
      return false;
    }
    while (*end == ' ') ++end;
    *pre = static_cast<uint32_t>(value);
    *rest = std::string(end);
    return true;
  };
  std::vector<SetCmd> sets;
  for (const std::string& spec : *set_flag) {
    SetCmd cmd;
    std::string rest;
    if (!parse_pre(spec, &cmd.pre, &rest) || rest.empty()) {
      return tools::UsageError(flags,
                               "--set needs \"PRE TAG [TEXT...]\": " + spec);
    }
    size_t space = rest.find(' ');
    std::string tag = rest.substr(0, space);
    if (tag != "-") cmd.tag = tag;
    if (space != std::string::npos) cmd.text = rest.substr(space + 1);
    if (cmd.tag.empty() && !cmd.text.has_value()) {
      return tools::UsageError(
          flags, "--set \"" + spec + "\" changes neither tag nor text");
    }
    sets.push_back(std::move(cmd));
  }
  std::vector<InsertCmd> inserts;
  for (const std::string& spec : *insert_flag) {
    InsertCmd cmd;
    if (!parse_pre(spec, &cmd.pre, &cmd.fragment) || cmd.fragment.empty()) {
      return tools::UsageError(
          flags, "--insert needs \"PRE <fragment.../>\": " + spec);
    }
    inserts.push_back(std::move(cmd));
  }
  std::vector<uint32_t> deletes;
  for (const std::string& spec : *delete_flag) {
    uint32_t pre = 0;
    std::string rest;
    if (!parse_pre(spec, &pre, &rest) || !rest.empty()) {
      return tools::UsageError(flags, "--delete needs a node PRE: " + spec);
    }
    deletes.push_back(pre);
  }
  const bool have_mutations = !sets.empty() || !inserts.empty() ||
                              !deletes.empty() || *recover_flag;

  if (queries.empty() && !have_mutations) {
    return tools::UsageError(flags, "no query given");
  }
  if (corpus_mode && have_mutations && doc_id.empty()) {
    return tools::UsageError(
        flags, "mutations route to one document: add --doc ID");
  }
  if (db_path.empty() && connects.empty() && !corpus_mode) {
    return tools::UsageError(
        flags, "one of --db, --connect, --catalog, or --router is required");
  }
  if (servers == 0) {
    return tools::UsageError(flags, "--servers must be >= 1");
  }
  // A mode that would ignore these flags rejects them instead.
  if (flags.Provided("servers") && (corpus_mode || !connects.empty())) {
    return tools::UsageError(
        flags, "--servers applies to --db only (--connect lists one socket "
               "per slice; a catalog lists the slices)");
  }
  if (*full_verify_flag && corpus_mode) {
    return tools::UsageError(
        flags, "--full-verify applies to --db and --connect only");
  }
  if (!agg_wrap.empty() && agg_wrap != "count" && agg_wrap != "sum" &&
      agg_wrap != "exists") {
    return tools::UsageError(flags, "--agg must be count, sum, or exists");
  }

  auto field = gf::Field::Make(p, e);
  if (!field.ok()) return tools::Fail(field.status());
  auto map = mapping::TagMap::FromFile(map_path, *field);
  if (!map.ok()) return tools::Fail(map.status());
  auto seed = prg::Seed::LoadFromFile(seed_path);
  if (!seed.ok()) return tools::Fail(seed.status());
  const core::EngineKind engine =
      advanced ? core::EngineKind::kAdvanced : core::EngineKind::kSimple;
  const query::MatchMode mode =
      strict ? query::MatchMode::kEquality : query::MatchMode::kContainment;

  // One client stack per document: a shard::Router over the catalog in
  // corpus mode, otherwise one facade over the --db slice files or the
  // --connect sockets.
  std::unique_ptr<shard::Router> router;
  std::unique_ptr<core::EncryptedXmlDatabase> db;
  if (corpus_mode) {
    shard::ShardCatalog catalog;
    if (!router_sock.empty()) {
      auto fetched = shard::FetchCatalogUnix(router_sock);
      if (!fetched.ok()) return tools::Fail(fetched.status());
      catalog = std::move(*fetched);
    } else {
      auto loaded = shard::ShardCatalog::Load(catalog_path);
      if (!loaded.ok()) return tools::Fail(loaded.status());
      catalog = std::move(*loaded);
    }
    core::CorpusOptions copts;
    copts.p = p;
    copts.e = e;
    copts.local = *local_flag;
    copts.engine = engine;
    copts.verify_aggregate = verify_agg;
    copts.partial_ok = *partial_flag;
    auto opened = shard::Router::Open(std::move(catalog), &*map, *seed, {},
                                      copts);
    if (!opened.ok()) return tools::Fail(opened.status());
    router = std::move(*opened);
    for (const shard::MissingDoc& missing : router->unreachable()) {
      std::fprintf(stderr, "warning: %s\n",
                   missing.error.ToString().c_str());
    }
  } else {
    auto opened =
        [&]() -> StatusOr<std::unique_ptr<core::EncryptedXmlDatabase>> {
      if (connects.empty()) {
        std::vector<std::string> paths;
        for (uint32_t i = 0; i < servers; ++i) {
          paths.push_back(core::ShareSlicePath(db_path, i, servers));
        }
        return core::EncryptedXmlDatabase::OpenSlices(paths, *map, *seed, p,
                                                      e);
      }
      std::vector<std::unique_ptr<rpc::Channel>> channels;
      for (const std::string& path : connects) {
        SSDB_ASSIGN_OR_RETURN(std::unique_ptr<rpc::Channel> channel,
                              rpc::ConnectUnix(path));
        channels.push_back(std::move(channel));
      }
      return core::EncryptedXmlDatabase::ConnectRemoteMulti(
          std::move(channels), *map, *seed, p, e);
    }();
    if (!opened.ok()) return tools::Fail(opened.status());
    db = std::move(*opened);
    db->client_filter()->set_full_verification(*full_verify_flag);
    db->aggregation_engine()->set_verify(verify_agg);
    // An incomplete or tampered share sum (too few --connect sockets, a
    // lone socket pointing at one slice of a larger split, a modified
    // slice) fails here instead of silently returning wrong results.
    if (!connects.empty() || db->server_count() > 1) {
      Status probed = db->ProbeShares();
      if (!probed.ok()) return tools::Fail(probed);
    }
  }

  // Mutations (DESIGN.md §12) run before the queries, in kind order:
  // recover, sets, inserts, deletes — on the facade, or on the --doc
  // document's group through the router.
  const std::string where =
      router ? "  [doc " + doc_id + "]" : std::string();
  if (*recover_flag) {
    Status recovered =
        router ? router->RecoverDoc(doc_id) : db->RecoverMutations();
    if (!recovered.ok()) return tools::Fail(recovered);
    std::printf("recovered pending mutations%s\n", where.c_str());
  }
  auto on_db = [](StatusOr<core::MutationResult> done)
      -> StatusOr<shard::DocMutation> {
    if (!done.ok()) return done.status();
    return shard::DocMutation{"", 0, done->version, done->stats};
  };
  auto report = [](const char* what, uint32_t pre,
                   const StatusOr<shard::DocMutation>& done) {
    if (!done.ok()) return tools::Fail(done.status());
    std::string doc = done->doc_id.empty()
                          ? std::string()
                          : "  [doc " + done->doc_id + ", group " +
                                std::to_string(done->group) + "]";
    std::printf("%s pre=%u committed%s: version=%llu (path=%llu "
                "subtree=%llu children=%llu bytes=%llu)\n",
                what, pre, doc.c_str(), (unsigned long long)done->version,
                (unsigned long long)done->stats.path_nodes,
                (unsigned long long)done->stats.subtree_nodes,
                (unsigned long long)done->stats.children_fetched,
                (unsigned long long)done->stats.reshared_bytes);
    return tools::kExitOk;
  };
  for (const SetCmd& cmd : sets) {
    int rc = report("update", cmd.pre,
                    router ? router->UpdateDoc(doc_id, cmd.pre, cmd.tag,
                                               cmd.text)
                           : on_db(db->Update(cmd.pre, cmd.tag, cmd.text)));
    if (rc != tools::kExitOk) return rc;
  }
  for (const InsertCmd& cmd : inserts) {
    int rc = report("insert", cmd.pre,
                    router ? router->InsertDoc(doc_id, cmd.pre, cmd.fragment)
                           : on_db(db->Insert(cmd.pre, cmd.fragment)));
    if (rc != tools::kExitOk) return rc;
  }
  for (uint32_t pre : deletes) {
    int rc = report("delete", pre,
                    router ? router->DeleteDoc(doc_id, pre)
                           : on_db(db->Delete(pre)));
    if (rc != tools::kExitOk) return rc;
  }

  // The one result printer, for the facade, QueryDoc and QueryCorpus.
  // For aggregates result_size counts groups (the matched node set never
  // reaches the client); for plain queries it counts matched nodes. Under
  // --verify-agg the aggregate also reports the proof volume and verdict
  // (§9). `docs` holds one unnamed entry outside QueryCorpus.
  auto print_answer = [&](const query::Query& parsed,
                          const query::QueryStats& stats,
                          const agg::Result* aggregate,
                          const std::vector<shard::CorpusResult::DocNodes>&
                              docs) {
    const double ms = stats.seconds * 1e3;
    const auto trips = (unsigned long long)stats.eval.round_trips;
    if (aggregate == nullptr) {
      size_t total = 0;
      for (const auto& doc : docs) total += doc.nodes.size();
      std::printf("  %zu result(s) in %.1f ms, %llu evaluations, %llu server "
                  "calls, %llu round trips\n",
                  total, ms, (unsigned long long)stats.eval.evaluations,
                  (unsigned long long)stats.eval.server_calls, trips);
    } else if (parsed.aggregate == query::Aggregate::kExists) {
      std::printf("  exists: %s in %.1f ms, %llu round trips\n",
                  aggregate->Exists() ? "true" : "false", ms, trips);
    } else if (aggregate->group_by) {
      std::printf("  %zu group(s) in %.1f ms, %llu round trips\n",
                  aggregate->values.size(), ms, trips);
      for (size_t g = 0; g < aggregate->values.size(); ++g) {
        if (aggregate->values[g] == 0) continue;  // only occupied groups
        std::printf("    %-20s %llu\n", aggregate->group_names[g].c_str(),
                    (unsigned long long)aggregate->values[g]);
      }
    } else {
      std::printf("  %s = %llu in %.1f ms, %llu round trips\n",
                  query::AggregateName(parsed.aggregate).data(),
                  (unsigned long long)aggregate->Total(), ms, trips);
    }
    if (show_stats) {
      std::printf("  stats: result_size=%llu (%s), round_trips=%llu, "
                  "server_calls=%llu, evaluations=%llu, aggregate_ops=%llu, "
                  "candidates_examined=%llu\n",
                  (unsigned long long)stats.result_size,
                  aggregate != nullptr ? "groups" : "nodes", trips,
                  (unsigned long long)stats.eval.server_calls,
                  (unsigned long long)stats.eval.evaluations,
                  (unsigned long long)stats.eval.aggregate_ops,
                  (unsigned long long)stats.candidates_examined);
      if (aggregate != nullptr && verify_agg) {
        std::printf("  proof: proof_words=%llu, verified=%s\n",
                    (unsigned long long)aggregate->proof_words,
                    aggregate->verified ? "true" : "false");
      }
    }
    if (stats.eval.per_server_round_trips.size() > 1) {
      std::printf("  per-server trips:");
      for (uint64_t server_trips : stats.eval.per_server_round_trips) {
        std::printf(" %llu", (unsigned long long)server_trips);
      }
      std::printf("  (straggler wait %.1f ms)\n",
                  stats.eval.straggler_seconds * 1e3);
    }
    if (aggregate != nullptr) return;
    for (const auto& doc : docs) {
      if (doc.doc_id.empty()) {
        std::printf("  pre:");
      } else {
        std::printf("  %s: %zu result(s); pre:", doc.doc_id.c_str(),
                    doc.nodes.size());
      }
      size_t shown = 0;
      for (const auto& node : doc.nodes) {
        if (shown++ == 20) {
          std::printf(" ...");
          break;
        }
        std::printf(" %u", node.pre);
      }
      std::printf("\n");
    }
  };

  for (const std::string& text : queries) {
    auto parsed = query::ParseQuery(text);
    if (!parsed.ok()) return tools::Fail(parsed.status());

    if (router && doc_id.empty()) {
      auto result = router->QueryCorpus(*parsed, mode);
      if (!result.ok()) return tools::Fail(result.status());
      std::printf("%s  [corpus: %zu doc(s), %zu group(s)%s]\n", text.c_str(),
                  result->documents, result->groups,
                  result->missing.empty() ? "" : ", PARTIAL");
      for (const shard::MissingDoc& missing : result->missing) {
        std::printf("  missing %s (group %u): %s\n", missing.doc_id.c_str(),
                    missing.group, missing.error.ToString().c_str());
      }
      print_answer(*parsed, result->stats,
                   result->is_aggregate ? &result->aggregate : nullptr,
                   result->nodes);
      continue;
    }

    core::QueryResult result;
    if (router) {
      auto routed = router->QueryDoc(doc_id, *parsed, mode);
      if (!routed.ok()) return tools::Fail(routed.status());
      std::printf("%s  [doc %s, group %u]\n", text.c_str(),
                  routed->doc_id.c_str(), routed->group);
      result.nodes = std::move(routed->nodes);
      result.stats = routed->stats;
      result.is_aggregate = routed->is_aggregate;
      result.aggregate = std::move(routed->aggregate);
    } else {
      auto answered = db->QueryParsed(*parsed, engine, mode);
      if (!answered.ok()) return tools::Fail(answered.status());
      std::printf("%s  [%s/%s]\n", text.c_str(),
                  advanced ? "advanced" : "simple",
                  query::MatchModeName(mode).data());
      result = std::move(*answered);
    }
    std::vector<shard::CorpusResult::DocNodes> docs(1);
    docs[0].nodes = std::move(result.nodes);
    print_answer(*parsed, result.stats,
                 result.is_aggregate ? &result.aggregate : nullptr, docs);
  }
  return tools::kExitOk;
}
