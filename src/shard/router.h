/// Shard router (DESIGN.md §10): the stateless coordinator that turns the
/// one-document query stack into a corpus database. Given a ShardCatalog —
/// document id -> (server group, slice set) — it owns one client stack per
/// document, a core::EncryptedXmlDatabase over the document's slices
/// (sockets, local slice files, or injected filters), and offers two entry
/// points:
///
///  * QueryDoc: a query tagged with a document id runs against the owning
///    group alone — exactly the single-document pipeline, plus routing.
///  * QueryCorpus: a corpus-wide query fans out to every owning group
///    concurrently (one thread per document, groups progress in parallel)
///    and merges: fetch results concatenate per document; COUNT/SUM/EXISTS/
///    GROUP-BY results combine additively across shards — corpus count =
///    Σ_docs count(doc) — exactly as aggregate partials combine across
///    slices within a group (§8), so round trips stay O(query steps) per
///    group and the corpus costs one straggler of wall clock.
///
/// The router is TRUSTED (it holds seeds); the catalog-serving tier
/// (tools/ssdb_router.cc) is not. Verified aggregation (§9) survives the
/// extra tier: a tampering server inside one group fails that document's
/// proof check, and the router rethrows the Corruption status prefixed
/// "doc <id> (group <g>):" — blame crosses the router without dilution.
///
/// Every document may carry its own seed (recommended: with a shared seed,
/// two slices of different documents hosted by one physical server are
/// masked by the same PRG stream — see §10's threat-model note).

#ifndef SSDB_SHARD_ROUTER_H_
#define SSDB_SHARD_ROUTER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agg/aggregation.h"
#include "control/health.h"
#include "core/database.h"
#include "core/options.h"
#include "encode/reshare.h"
#include "filter/server_filter.h"
#include "mapping/tag_map.h"
#include "prg/seed.h"
#include "query/engine.h"
#include "query/xpath.h"
#include "shard/catalog.h"
#include "util/statusor.h"

namespace ssdb::shard {

// One document's answer, routed to its owning group.
struct DocResult {
  std::string doc_id;
  uint32_t group = 0;
  bool is_aggregate = false;
  agg::Result aggregate;
  std::vector<filter::NodeMeta> nodes;  // empty for aggregates
  query::QueryStats stats;
};

// A document the router could not answer for — its group unreachable at
// open (partial_ok mode) or its query failed mid-corpus. The error is
// already attributed ("doc <id> (group <g>): ...").
struct MissingDoc {
  std::string doc_id;
  uint32_t group = 0;
  Status error;
};

// Outcome of a mutation routed to one document's group (DESIGN.md §12).
struct DocMutation {
  std::string doc_id;
  uint32_t group = 0;
  uint64_t version = 0;  // the document version the group advanced to
  encode::MutateStats stats;
};

// A corpus-wide answer, merged across every owning group.
struct CorpusResult {
  bool is_aggregate = false;
  // Merged additively across documents; group-by groups union by tag name.
  agg::Result aggregate;
  // Fetch results stay per-document (pre numbers only make sense within a
  // document), in catalog order.
  struct DocNodes {
    std::string doc_id;
    std::vector<filter::NodeMeta> nodes;
  };
  std::vector<DocNodes> nodes;
  // Straggler-merged (filter::EvalStats::MergeConcurrent): work counters
  // sum, round_trips/straggler_seconds take the slowest document's value.
  query::QueryStats stats;
  // Documents that contributed to the merge / distinct groups among them.
  size_t documents = 0;
  size_t groups = 0;
  // Documents that did NOT contribute (CorpusOptions::partial_ok only);
  // empty on an all-or-nothing router or a fully healthy corpus.
  std::vector<MissingDoc> missing;
};

class Router {
 public:
  // Opens every document's stack from the catalog: slice endpoints are
  // dialed as unix sockets, or opened as local slice files when
  // options.local is set. Each stack copies `map`; `seeds` may give
  // individual documents their own seed (strongly recommended for documents
  // sharing physical servers), all others use `default_seed`.
  static StatusOr<std::unique_ptr<Router>> Open(
      ShardCatalog catalog, const mapping::TagMap* map,
      const prg::Seed& default_seed,
      const std::map<std::string, prg::Seed>& seeds,
      const core::CorpusOptions& options);

  // Test/bench injection: pre-built slice filters per document id (slice
  // order), bypassing sockets and disk. Backends must outlive the router.
  static StatusOr<std::unique_ptr<Router>> FromBackends(
      ShardCatalog catalog, const mapping::TagMap* map,
      const prg::Seed& default_seed,
      const std::map<std::string, prg::Seed>& seeds,
      const core::CorpusOptions& options,
      const std::map<std::string, std::vector<filter::ServerFilter*>>&
          backends);

  ~Router();

  // Routes one parsed query to the named document's group. NotFound when
  // the catalog has no such document.
  StatusOr<DocResult> QueryDoc(std::string_view doc_id,
                               const query::Query& query,
                               query::MatchMode mode);

  // Fans one parsed query out to every document's group concurrently and
  // merges. Plain (fetch) queries concatenate per document; aggregate forms
  // merge additively. Any document's failure fails the corpus query with
  // the document and group named.
  StatusOr<CorpusResult> QueryCorpus(const query::Query& query,
                                     query::MatchMode mode);

  // --- Mutations (DESIGN.md §12) ------------------------------------------
  // Routes a two-phase INSERT/UPDATE/DELETE to the named document's group:
  // the document's own stack plans against its slices and seed, prepares on
  // every slice, then commits. Errors carry the §9-style blame prefix
  // "doc <id> (group <g>): ...", so a slice that rejects a plan (or a crash
  // mid-commit) is attributed across the router tier without dilution.
  StatusOr<DocMutation> UpdateDoc(std::string_view doc_id, uint32_t pre,
                                  std::string_view new_tag,
                                  const std::optional<std::string>& new_text);
  StatusOr<DocMutation> InsertDoc(std::string_view doc_id,
                                  uint32_t parent_pre,
                                  std::string_view fragment_xml);
  StatusOr<DocMutation> DeleteDoc(std::string_view doc_id, uint32_t pre);
  // Drives any undecided prepared txn on the document's group to a verdict
  // (commit if any slice committed, abort otherwise).
  Status RecoverDoc(std::string_view doc_id);

  const ShardCatalog& catalog() const { return catalog_; }
  size_t document_count() const { return stacks_.size(); }
  // Total bytes over every remote channel (0 for local/injected stacks).
  uint64_t bytes_on_wire() const;

  // Degraded-mode failover (DESIGN.md §11): consult `health` before every
  // query and fail fast with Unavailable — naming the slice server — when
  // a document's group has a kDown endpoint, instead of eating an io
  // timeout per query. Propagates to each stack's fan-out filter (the
  // catalog slice strings are the endpoints). `health` must outlive the
  // router; call before sharing the router across threads.
  void SetHealth(const control::HealthView* health);

  // Documents skipped at Open because their group was unreachable
  // (CorpusOptions::partial_ok only). Every corpus result repeats these
  // in CorpusResult::missing.
  const std::vector<MissingDoc>& unreachable() const { return unreachable_; }

 private:
  // The single-document client pipeline, owned per catalog entry.
  struct DocStack {
    const ShardEntry* entry = nullptr;  // points into catalog_
    std::unique_ptr<core::EncryptedXmlDatabase> db;
  };
  // Builds one document's facade over the given seed.
  using MakeDb = std::function<StatusOr<
      std::unique_ptr<core::EncryptedXmlDatabase>>(const ShardEntry&,
                                                   const prg::Seed&)>;

  Router(ShardCatalog catalog, core::CorpusOptions options)
      : catalog_(std::move(catalog)), options_(options) {}

  // The per-entry build loop shared by Open and FromBackends: makes each
  // document's facade, configures and probes it, and applies partial_ok.
  static StatusOr<std::unique_ptr<Router>> Build(
      ShardCatalog catalog, const prg::Seed& default_seed,
      const std::map<std::string, prg::Seed>& seeds,
      const core::CorpusOptions& options, const MakeDb& make_db);

  // Runs one query against one stack; errors come back unprefixed.
  StatusOr<DocResult> RunOnStack(DocStack* stack, const query::Query& query,
                                 query::MatchMode mode);

  static Status Attribute(const Status& status, const ShardEntry& entry);

  // The stack owning `doc_id`, or the attributed open-time/NotFound error.
  StatusOr<DocStack*> FindStack(std::string_view doc_id);

  // Health-gates one facade mutation on `doc_id`'s stack and attributes
  // the outcome.
  StatusOr<DocMutation> MutateDoc(
      std::string_view doc_id,
      const std::function<StatusOr<core::MutationResult>(
          core::EncryptedXmlDatabase*)>& mutate);

  // Unavailable naming the first kDown slice server of `entry`, or OK.
  Status CheckHealth(const ShardEntry& entry) const;

  ShardCatalog catalog_;
  core::CorpusOptions options_;
  const control::HealthView* health_ = nullptr;
  std::vector<std::unique_ptr<DocStack>> stacks_;  // catalog order
  std::map<std::string, DocStack*, std::less<>> by_doc_;
  std::vector<MissingDoc> unreachable_;  // open-time skips (partial_ok)
};

// Merges another document's aggregate into `into` (additive across shards;
// group-by unions groups by name). The first merge into a default
// constructed Result adopts `from`'s shape. Exposed for tests.
void MergeAggregate(agg::Result* into, const agg::Result& from, bool first);

}  // namespace ssdb::shard

#endif  // SSDB_SHARD_ROUTER_H_
