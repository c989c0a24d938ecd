#include "shard/router.h"

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "rpc/socket_channel.h"
#include "util/stopwatch.h"

namespace ssdb::shard {

void MergeAggregate(agg::Result* into, const agg::Result& from, bool first) {
  if (first) {
    *into = from;
    return;
  }
  // Additive combination across shards, the corpus-level analog of summing
  // aggregate partials across slices within a group (DESIGN.md §8): every
  // document's result is already exact, so corpus count = Σ_docs count, and
  // exists() ORs for free through the nonzero sum. Verification (§9) is
  // per-document; the corpus is verified iff every document was.
  into->verified = into->verified && from.verified;
  into->proof_words += from.proof_words;
  for (size_t g = 0; g < from.group_names.size(); ++g) {
    auto it = std::find(into->group_names.begin(), into->group_names.end(),
                        from.group_names[g]);
    if (it == into->group_names.end()) {
      into->group_names.push_back(from.group_names[g]);
      into->values.push_back(from.values[g]);
    } else {
      into->values[it - into->group_names.begin()] += from.values[g];
    }
  }
}

Status Router::Attribute(const Status& status, const ShardEntry& entry) {
  if (status.ok()) return status;
  return Status(status.code(), "doc " + entry.doc_id + " (group " +
                                   std::to_string(entry.group) +
                                   "): " + status.message());
}

Status Router::CheckHealth(const ShardEntry& entry) const {
  if (health_ == nullptr) return Status::OK();
  for (size_t i = 0; i < entry.slices.size(); ++i) {
    if (health_->IsDown(entry.slices[i])) {
      return Status::Unavailable("server " + std::to_string(i) + " (" +
                                 entry.slices[i] +
                                 ") is down (health monitor, DESIGN.md §11)");
    }
  }
  return Status::OK();
}

void Router::SetHealth(const control::HealthView* health) {
  health_ = health;
  for (auto& stack : stacks_) {
    stack->db->SetEndpointHealth(health, stack->entry->slices);
  }
}

StatusOr<std::unique_ptr<Router>> Router::Build(
    ShardCatalog catalog, const prg::Seed& default_seed,
    const std::map<std::string, prg::Seed>& seeds,
    const core::CorpusOptions& options, const MakeDb& make_db) {
  std::unique_ptr<Router> router(new Router(std::move(catalog), options));
  for (const ShardEntry& entry : router->catalog_.entries()) {
    auto stack = std::make_unique<DocStack>();
    stack->entry = &entry;
    // The whole per-document build in one scope, so partial_ok can treat
    // any failure — a dead socket, a missing slice file, a failed open
    // probe — as "this document is unreachable" and move on.
    Status built = [&]() -> Status {
      auto it = seeds.find(entry.doc_id);
      SSDB_ASSIGN_OR_RETURN(
          stack->db,
          make_db(entry, it == seeds.end() ? default_seed : it->second));
      stack->db->aggregation_engine()->set_verify(options.verify_aggregate);
      // A catalog entry listing the wrong slices (or paired with the wrong
      // seed) fails at open, not with silently wrong answers.
      return stack->db->ProbeShares();
    }();
    if (!built.ok()) {
      built = Attribute(built, entry);
      if (!options.partial_ok) return built;
      router->unreachable_.push_back(
          MissingDoc{entry.doc_id, entry.group, std::move(built)});
      continue;
    }
    router->by_doc_.emplace(entry.doc_id, stack.get());
    router->stacks_.push_back(std::move(stack));
  }
  if (router->stacks_.empty() && !router->unreachable_.empty()) {
    // partial_ok tolerates degraded, not dead: every document failed.
    const Status& first = router->unreachable_.front().error;
    return Status(first.code(),
                  "all " + std::to_string(router->unreachable_.size()) +
                      " documents unreachable; first: " + first.message());
  }
  return router;
}

StatusOr<std::unique_ptr<Router>> Router::Open(
    ShardCatalog catalog, const mapping::TagMap* map,
    const prg::Seed& default_seed,
    const std::map<std::string, prg::Seed>& seeds,
    const core::CorpusOptions& options) {
  auto make_db = [&](const ShardEntry& entry, const prg::Seed& seed)
      -> StatusOr<std::unique_ptr<core::EncryptedXmlDatabase>> {
    if (options.local) {
      return core::EncryptedXmlDatabase::OpenSlices(entry.slices, *map, seed,
                                                    options.p, options.e);
    }
    std::vector<std::unique_ptr<rpc::Channel>> channels;
    for (const std::string& path : entry.slices) {
      SSDB_ASSIGN_OR_RETURN(std::unique_ptr<rpc::Channel> channel,
                            rpc::ConnectUnix(path));
      channels.push_back(std::move(channel));
    }
    return core::EncryptedXmlDatabase::ConnectRemoteMulti(
        std::move(channels), *map, seed, options.p, options.e);
  };
  return Build(std::move(catalog), default_seed, seeds, options, make_db);
}

StatusOr<std::unique_ptr<Router>> Router::FromBackends(
    ShardCatalog catalog, const mapping::TagMap* map,
    const prg::Seed& default_seed,
    const std::map<std::string, prg::Seed>& seeds,
    const core::CorpusOptions& options,
    const std::map<std::string, std::vector<filter::ServerFilter*>>&
        backends) {
  for (const ShardEntry& entry : catalog.entries()) {
    auto it = backends.find(entry.doc_id);
    if (it == backends.end() || it->second.empty()) {
      return Status::InvalidArgument("no backends injected for doc " +
                                     entry.doc_id);
    }
  }
  auto make_db = [&](const ShardEntry& entry, const prg::Seed& seed) {
    return core::EncryptedXmlDatabase::FromFilters(
        backends.at(entry.doc_id), *map, seed, options.p, options.e);
  };
  return Build(std::move(catalog), default_seed, seeds, options, make_db);
}

Router::~Router() = default;

uint64_t Router::bytes_on_wire() const {
  uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->db->bytes_on_wire();
  return total;
}

StatusOr<DocResult> Router::RunOnStack(DocStack* stack,
                                       const query::Query& query,
                                       query::MatchMode mode) {
  // Fail fast while the group is marked down (DESIGN.md §11) — this also
  // covers single-backend stacks, which have no fan-out filter of their
  // own to consult the health view.
  Status health = CheckHealth(*stack->entry);
  if (!health.ok()) return health;
  SSDB_ASSIGN_OR_RETURN(core::QueryResult result,
                        stack->db->QueryParsed(query, options_.engine, mode));
  DocResult out;
  out.doc_id = stack->entry->doc_id;
  out.group = stack->entry->group;
  out.is_aggregate = result.is_aggregate;
  out.aggregate = std::move(result.aggregate);
  out.nodes = std::move(result.nodes);
  out.stats = result.stats;
  return out;
}

StatusOr<Router::DocStack*> Router::FindStack(std::string_view doc_id) {
  auto it = by_doc_.find(doc_id);
  if (it == by_doc_.end()) {
    // A document skipped at open (partial_ok) fails with its recorded
    // error — fast, and naming the original cause — not NotFound.
    for (const MissingDoc& missing : unreachable_) {
      if (missing.doc_id == doc_id) return missing.error;
    }
    return Status::NotFound("no document '" + std::string(doc_id) +
                            "' in the shard catalog");
  }
  return it->second;
}

StatusOr<DocResult> Router::QueryDoc(std::string_view doc_id,
                                     const query::Query& query,
                                     query::MatchMode mode) {
  SSDB_ASSIGN_OR_RETURN(DocStack * stack, FindStack(doc_id));
  auto result = RunOnStack(stack, query, mode);
  if (!result.ok()) return Attribute(result.status(), *stack->entry);
  return result;
}

StatusOr<DocMutation> Router::MutateDoc(
    std::string_view doc_id,
    const std::function<StatusOr<core::MutationResult>(
        core::EncryptedXmlDatabase*)>& mutate) {
  SSDB_ASSIGN_OR_RETURN(DocStack * stack, FindStack(doc_id));
  const ShardEntry& entry = *stack->entry;
  // Same fail-fast health gate as queries: don't start a txn the group
  // cannot finish while a slice server is known down.
  SSDB_RETURN_IF_ERROR(Attribute(CheckHealth(entry), entry));
  StatusOr<core::MutationResult> done = mutate(stack->db.get());
  if (!done.ok()) return Attribute(done.status(), entry);
  return DocMutation{entry.doc_id, entry.group, done->version, done->stats};
}

StatusOr<DocMutation> Router::UpdateDoc(
    std::string_view doc_id, uint32_t pre, std::string_view new_tag,
    const std::optional<std::string>& new_text) {
  return MutateDoc(doc_id, [&](core::EncryptedXmlDatabase* db) {
    return db->Update(pre, new_tag, new_text);
  });
}

StatusOr<DocMutation> Router::InsertDoc(std::string_view doc_id,
                                        uint32_t parent_pre,
                                        std::string_view fragment_xml) {
  return MutateDoc(doc_id, [&](core::EncryptedXmlDatabase* db) {
    return db->Insert(parent_pre, fragment_xml);
  });
}

StatusOr<DocMutation> Router::DeleteDoc(std::string_view doc_id,
                                        uint32_t pre) {
  return MutateDoc(doc_id, [&](core::EncryptedXmlDatabase* db) {
    return db->Delete(pre);
  });
}

Status Router::RecoverDoc(std::string_view doc_id) {
  SSDB_ASSIGN_OR_RETURN(DocStack * stack, FindStack(doc_id));
  Status health = CheckHealth(*stack->entry);
  return Attribute(health.ok() ? stack->db->RecoverMutations() : health,
                   *stack->entry);
}

StatusOr<CorpusResult> Router::QueryCorpus(const query::Query& query,
                                           query::MatchMode mode) {
  if (stacks_.empty()) {
    return Status::FailedPrecondition("the shard catalog is empty");
  }
  Stopwatch watch;

  // One thread per document: each stack is confined to its thread for the
  // duration (a stack is NOT safe for concurrent queries), so every server
  // group progresses in parallel and the corpus costs one straggler of wall
  // clock, mirroring MultiServerFilter's fan-out across slices.
  std::vector<std::optional<StatusOr<DocResult>>> results(stacks_.size());
  if (stacks_.size() == 1) {
    results[0] = RunOnStack(stacks_[0].get(), query, mode);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(stacks_.size());
    for (size_t i = 0; i < stacks_.size(); ++i) {
      threads.emplace_back([this, i, &query, mode, &results] {
        results[i] = RunOnStack(stacks_[i].get(), query, mode);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  CorpusResult out;
  out.is_aggregate = query.aggregate != query::Aggregate::kNone;
  // Open-time skips (partial_ok) ride along on every corpus result so a
  // caller always sees the full degraded picture, not just this query's
  // failures.
  out.missing = unreachable_;
  std::set<uint32_t> groups;
  bool first = true;
  for (size_t i = 0; i < stacks_.size(); ++i) {
    const ShardEntry& entry = *stacks_[i]->entry;
    StatusOr<DocResult>& result = *results[i];
    if (!result.ok()) {
      Status attributed = Attribute(result.status(), entry);
      if (!options_.partial_ok) return attributed;
      out.missing.push_back(
          MissingDoc{entry.doc_id, entry.group, std::move(attributed)});
      continue;
    }
    groups.insert(entry.group);
    ++out.documents;
    DocResult& doc = *result;
    if (first) {
      out.stats = doc.stats;
    } else {
      out.stats.eval.MergeConcurrent(doc.stats.eval);
      out.stats.result_size += doc.stats.result_size;
      out.stats.candidates_examined += doc.stats.candidates_examined;
    }
    if (out.is_aggregate) {
      MergeAggregate(&out.aggregate, doc.aggregate, first);
    } else {
      out.nodes.push_back(
          CorpusResult::DocNodes{doc.doc_id, std::move(doc.nodes)});
    }
    first = false;
  }
  if (out.documents == 0) {
    // partial_ok tolerates degraded, not dead: nothing answered.
    const Status& first_error = out.missing.front().error;
    return Status(first_error.code(),
                  "corpus query failed on all " +
                      std::to_string(out.missing.size()) +
                      " documents; first: " + first_error.message());
  }
  out.groups = groups.size();
  if (out.is_aggregate) {
    // Group count after the cross-document union, not the per-doc sum.
    out.stats.result_size = out.aggregate.values.size();
  }
  out.stats.seconds = watch.ElapsedSeconds();
  return out;
}

}  // namespace ssdb::shard
