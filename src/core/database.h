// EncryptedXmlDatabase — the library's public facade tying the full pipeline
// together (fig. 3, DESIGN.md §1): encode a plaintext XML document into
// secret-shared polynomials on one or more storage backends
// (DatabaseOptions::servers selects the m-server split of DESIGN.md §5),
// then answer XPath-subset queries with either search strategy and either
// matching rule, locally or across client/server channels.
//
// This is the one place a client stack (query translation + client filter,
// fig. 3) is assembled; the shard router and ssdb_query hold one facade per
// document. Factories:
//   Encode              encode a document into fresh stores (owned);
//   OpenSlices          open existing disk slice files, in slice order (owned);
//   ConnectRemoteMulti  one channel per slice server, in slice order;
//   FromFilters         injected slice filters (not owned — tests, benches).
// A single slice is talked to directly; several fan out through a
// MultiServerFilter.
//
// Quickstart:
//   auto field = gf::Field::Make(83).value();
//   auto map = core::EncryptedXmlDatabase::TagMapForDtd(dtd, field).value();
//   auto db = core::EncryptedXmlDatabase::Encode(xml, map, seed, {}).value();
//   auto result = db->Query("/site//person", core::EngineKind::kAdvanced,
//                           query::MatchMode::kEquality).value();

#ifndef SSDB_CORE_DATABASE_H_
#define SSDB_CORE_DATABASE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agg/aggregation.h"
#include "control/health.h"
#include "core/options.h"
#include "encode/reshare.h"
#include "filter/client_filter.h"
#include "filter/server_filter.h"
#include "gf/field.h"
#include "gf/ring.h"
#include "mapping/tag_map.h"
#include "prg/seed.h"
#include "query/advanced_engine.h"
#include "query/engine.h"
#include "query/simple_engine.h"
#include "query/xpath.h"
#include "filter/multi_server_filter.h"
#include "rpc/channel.h"
#include "rpc/multi_session.h"
#include "rpc/server.h"
#include "storage/node_store.h"
#include "util/statusor.h"

namespace ssdb::core {

struct QueryResult {
  std::vector<filter::NodeMeta> nodes;
  query::QueryStats stats;
  // Set iff the query carried an aggregate form (count()/sum()/exists(),
  // DESIGN.md §8); `nodes` stays empty — the matched set never reaches the
  // client, stats.result_size counts groups.
  bool is_aggregate = false;
  agg::Result aggregate;
};

// Outcome of a committed mutation (DESIGN.md §12): the document version the
// stores advanced to and what the planner touched — the proportionality
// contract (cost ∝ subtree + root path) is asserted on these stats in tests.
struct MutationResult {
  uint64_t version = 0;
  encode::MutateStats stats;
};

class EncryptedXmlDatabase {
 public:
  // Builds a tag map covering a DTD's elements (plus the trie alphabet when
  // the database will be encoded with options.encode.trie).
  static StatusOr<mapping::TagMap> TagMapForDtd(const std::string& dtd_text,
                                                const gf::Field& field,
                                                bool include_trie_alphabet);

  // Encodes a plaintext document into a fresh encrypted database. The seed
  // is the only secret needed later (plus the map for query translation).
  static StatusOr<std::unique_ptr<EncryptedXmlDatabase>> Encode(
      std::string_view xml, const mapping::TagMap& map,
      const prg::Seed& seed, const DatabaseOptions& options);

  // Opens the disk slice files of an earlier encode, in slice order (one
  // path for a single-server store, ShareSlicePath(base, i, m) otherwise).
  static StatusOr<std::unique_ptr<EncryptedXmlDatabase>> OpenSlices(
      const std::vector<std::string>& slice_paths, const mapping::TagMap& map,
      const prg::Seed& seed, uint32_t p, uint32_t e);

  // Client side of a remote deployment (DESIGN.md §5): channel i must reach
  // the server holding share slice i; this process holds only the seed and
  // the map. Evaluations fan out to every channel concurrently and the
  // replies are summed client-side; one channel is the plain 2-party case.
  static StatusOr<std::unique_ptr<EncryptedXmlDatabase>> ConnectRemoteMulti(
      std::vector<std::unique_ptr<rpc::Channel>> channels,
      const mapping::TagMap& map, const prg::Seed& seed, uint32_t p,
      uint32_t e);

  // Injected slice filters, in slice order (test/bench injection). The
  // filters are not owned and must outlive the database.
  static StatusOr<std::unique_ptr<EncryptedXmlDatabase>> FromFilters(
      const std::vector<filter::ServerFilter*>& backends,
      const mapping::TagMap& map, const prg::Seed& seed, uint32_t p,
      uint32_t e);

  // --- Mutations (DESIGN.md §12) ------------------------------------------
  // Secret-shared two-phase INSERT/UPDATE/DELETE: the client plans one
  // MutationPlan per share slice (re-sharing only the touched subtree plus
  // its root path), prepares them on every slice, then commits. On a
  // prepare failure the txn is aborted best-effort and the error returned;
  // a crash between the phases is healed by RecoverMutations().

  // Re-tags node `pre` and/or replaces its text (pass empty / nullopt to
  // keep either). Text edits need a sealed-content database.
  StatusOr<MutationResult> Update(uint32_t pre, std::string_view new_tag,
                                  const std::optional<std::string>& new_text);
  // Inserts `fragment_xml` (one rooted element) as the last child of node
  // `parent_pre`.
  StatusOr<MutationResult> Insert(uint32_t parent_pre,
                                  std::string_view fragment_xml);
  // Deletes the subtree rooted at node `pre` (not the document root).
  StatusOr<MutationResult> Delete(uint32_t pre);
  // Drives any undecided prepared txn to a verdict: if some slice already
  // committed it, commit everywhere; otherwise abort everywhere. Safe to
  // call when nothing is pending. Leaves the skeleton at the settled
  // version: this client's own in-doubt plan is applied to it, any other
  // change is fetched.
  Status RecoverMutations();

  // Share-sum sanity probe: recovers the root's own tag through the
  // verified equality-test division, so a missing, misordered or tampered
  // slice (or the wrong seed) fails here instead of with silently wrong
  // answers. Resets the client's evaluation counters afterwards.
  Status ProbeShares();

  // Parses and runs a query. A StaleVersion refusal re-fetches the
  // skeleton and reruns the query once (DESIGN.md §12).
  StatusOr<QueryResult> Query(std::string_view xpath, EngineKind engine,
                              query::MatchMode mode);
  StatusOr<QueryResult> QueryParsed(const query::Query& query,
                                    EngineKind engine,
                                    query::MatchMode mode);

  const gf::Ring& ring() const { return ring_; }
  const mapping::TagMap& tag_map() const { return map_; }
  const encode::EncodeResult& encode_result() const {
    return encode_result_;
  }

  // Local-mode accessors (null in remote mode). store() is the primary
  // (slice 0) store; slice_store(i) reaches the other slices of an
  // m-server encode.
  storage::NodeStore* store() {
    return stores_.empty() ? nullptr : stores_[0].get();
  }
  storage::NodeStore* slice_store(size_t i) {
    return i < stores_.size() ? stores_[i].get() : nullptr;
  }
  size_t server_count() const {
    return server_view_ == nullptr ? 0 : server_view_->ServerCount();
  }
  filter::ClientFilter* client_filter() { return client_.get(); }
  filter::ServerFilter* server_filter() { return server_view_; }
  agg::AggregationEngine* aggregation_engine() { return agg_.get(); }

  // Long-lived filter over share slice i, shared by every connection a
  // concurrent transport dispatches (DESIGN.md §7) — unlike ServeSlice,
  // which builds a per-call filter. Null when i is out of range or the
  // stores are not owned (remote or injected). For m == 1, slice 0 is the
  // whole server share.
  filter::ServerFilter* slice_filter(size_t i);

  // Total server exchanges so far (wire round trips in remote mode,
  // straggler-counted under multi-server fan-out); the per-query delta is
  // reported in QueryStats.eval.round_trips.
  uint64_t server_round_trips() const {
    return server_view_ == nullptr ? 0 : server_view_->RoundTrips();
  }

  // Total bytes over every remote channel (0 unless remote).
  uint64_t bytes_on_wire() const {
    return session_ == nullptr ? 0 : session_->bytes_on_wire();
  }

  // Degraded-mode fail-fast (DESIGN.md §11): the fan-out filter consults
  // `health` for `endpoints` (slice order) before every exchange. A no-op
  // for a single-slice local or injected stack, which has no fan-out.
  void SetEndpointHealth(const control::HealthView* health,
                         std::vector<std::string> endpoints);

  // Serves this database's server side over a channel (blocking). The peer
  // is typically another process using ConnectRemoteMulti.
  Status Serve(rpc::Channel* channel);

  // Serves exactly one share slice of an m-server encode (blocking) — what
  // a real deployment's per-host ssdb_server process does. The peer is one
  // of the channels a ConnectRemoteMulti client holds.
  Status ServeSlice(size_t index, rpc::Channel* channel);

 private:
  explicit EncryptedXmlDatabase(gf::Ring ring, mapping::TagMap map)
      : ring_(std::move(ring)), map_(std::move(map)) {}

  static StatusOr<std::unique_ptr<EncryptedXmlDatabase>> Make(
      const mapping::TagMap& map, uint32_t p, uint32_t e);
  // The one place a client stack is assembled: the server view is the
  // backend itself for one slice, a MultiServerFilter over all of them for
  // several; then the engines are built over it.
  Status AttachSlices(std::vector<filter::ServerFilter*> backends,
                      const prg::Seed& seed);
  // LocalServerFilters over stores_, owned by backends_, in slice order.
  std::vector<filter::ServerFilter*> StoreBackends();
  // Builds the client stack over server_view_ and loads the skeleton.
  Status BuildEngines(const prg::Seed& seed);
  Status CheckMutable();
  // Plans with `plan`, once more after a skeleton re-fetch if the planner
  // found it stale, then drives the result.
  StatusOr<MutationResult> Mutate(
      const std::function<StatusOr<encode::PlannedMutation>()>& plan);
  StatusOr<MutationResult> DriveMutation(encode::PlannedMutation planned);
  // Brings the skeleton to `committed` after recovery.
  Status SettleSkeleton(uint64_t committed);
  // StaleVersion unless the primary is at the skeleton's version.
  Status CheckSkeletonCurrent();
  StatusOr<QueryResult> RunQuery(const query::Query& query, EngineKind engine,
                                 query::MatchMode mode);

  gf::Ring ring_;
  mapping::TagMap map_;
  encode::EncodeResult encode_result_;
  // Owned-store mode: stores_[i] holds share slice i, backends_[i] its
  // filter. fanout_ fans out over several local or injected slices.
  std::vector<std::unique_ptr<storage::NodeStore>> stores_;
  std::vector<std::unique_ptr<filter::ServerFilter>> backends_;
  std::unique_ptr<filter::MultiServerFilter> fanout_;
  // Remote mode: the session owns the channels and the fan-out.
  std::unique_ptr<rpc::MultiServerSession> session_;
  // The filter the client stack talks to: a slice backend, fanout_, or the
  // session's fan-out.
  filter::ServerFilter* server_view_ = nullptr;
  std::unique_ptr<filter::ClientFilter> client_;
  std::unique_ptr<query::SimpleEngine> simple_;
  std::unique_ptr<query::AdvancedEngine> advanced_;
  std::unique_ptr<agg::AggregationEngine> agg_;
  std::unique_ptr<encode::Mutator> mutator_;
  // Trie-encoded databases interleave character nodes the mutation planner
  // does not rebuild; mutations on them are rejected (DESIGN.md §12).
  bool trie_ = false;
  // This client's last commit that failed part-way: its txn and slice 0's
  // plan, applied to the skeleton if RecoverMutations commits it.
  uint64_t in_doubt_txn_ = 0;
  std::optional<storage::MutationPlan> in_doubt_plan_;
};

}  // namespace ssdb::core

#endif  // SSDB_CORE_DATABASE_H_
