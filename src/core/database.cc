#include "core/database.h"

#include <algorithm>

#include "encode/encoder.h"
#include "prg/prg.h"
#include "rpc/client.h"
#include "storage/memory_backend.h"
#include "storage/page.h"
#include "storage/table.h"
#include "trie/trie_xml.h"
#include "xml/dtd.h"

namespace ssdb::core {

StatusOr<mapping::TagMap> EncryptedXmlDatabase::TagMapForDtd(
    const std::string& dtd_text, const gf::Field& field,
    bool include_trie_alphabet) {
  SSDB_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::ParseDtd(dtd_text));
  std::vector<std::string> names = dtd.ElementNames();
  if (include_trie_alphabet) {
    for (const std::string& label : trie::TrieAlphabet()) {
      names.push_back(label);
    }
  }
  return mapping::TagMap::FromNames(names, field);
}

StatusOr<std::unique_ptr<EncryptedXmlDatabase>> EncryptedXmlDatabase::Make(
    const mapping::TagMap& map, uint32_t p, uint32_t e) {
  SSDB_ASSIGN_OR_RETURN(gf::Field field, gf::Field::Make(p, e));
  return std::unique_ptr<EncryptedXmlDatabase>(
      new EncryptedXmlDatabase(gf::Ring(field), map));
}

StatusOr<std::unique_ptr<EncryptedXmlDatabase>> EncryptedXmlDatabase::Encode(
    std::string_view xml, const mapping::TagMap& map, const prg::Seed& seed,
    const DatabaseOptions& options) {
  SSDB_ASSIGN_OR_RETURN(std::unique_ptr<EncryptedXmlDatabase> db,
                        Make(map, options.p, options.e));

  const uint32_t servers = options.servers == 0 ? 1 : options.servers;
  if (servers > kMaxServers) {
    return Status::InvalidArgument("servers exceeds kMaxServers (" +
                                   std::to_string(kMaxServers) + ")");
  }
  // No tag-map size cap for the disk backend: the §8/§9 column blobs live
  // in the side column store (src/colstore), not the 4 KiB heap row, so
  // arbitrarily large maps spill into overflow chains there (DESIGN.md §12).
  for (uint32_t i = 0; i < servers; ++i) {
    if (options.backend == Backend::kDisk) {
      if (options.disk_path.empty()) {
        return Status::InvalidArgument("disk backend requires disk_path");
      }
      storage::DiskStoreOptions disk_options;
      disk_options.buffer_pool_pages = options.buffer_pool_pages;
      SSDB_ASSIGN_OR_RETURN(
          std::unique_ptr<storage::NodeStore> store,
          storage::DiskNodeStore::Create(
              ShareSlicePath(options.disk_path, i, servers), disk_options));
      db->stores_.push_back(std::move(store));
    } else {
      db->stores_.push_back(std::make_unique<storage::MemoryNodeStore>());
    }
  }

  std::vector<storage::NodeStore*> store_ptrs;
  for (const auto& store : db->stores_) store_ptrs.push_back(store.get());
  encode::Encoder encoder(db->ring_, db->map_, prg::Prg(seed), store_ptrs,
                          options.encode);
  SSDB_ASSIGN_OR_RETURN(db->encode_result_, encoder.EncodeString(xml));

  db->trie_ = options.encode.trie;
  SSDB_RETURN_IF_ERROR(db->AttachSlices(db->StoreBackends(), seed));
  return db;
}

StatusOr<std::unique_ptr<EncryptedXmlDatabase>>
EncryptedXmlDatabase::OpenSlices(const std::vector<std::string>& slice_paths,
                                 const mapping::TagMap& map,
                                 const prg::Seed& seed, uint32_t p,
                                 uint32_t e) {
  if (slice_paths.empty()) {
    return Status::InvalidArgument("no share slice files given");
  }
  SSDB_ASSIGN_OR_RETURN(std::unique_ptr<EncryptedXmlDatabase> db,
                        Make(map, p, e));
  for (const std::string& path : slice_paths) {
    SSDB_ASSIGN_OR_RETURN(std::unique_ptr<storage::NodeStore> store,
                          storage::DiskNodeStore::Open(path));
    db->stores_.push_back(std::move(store));
  }
  SSDB_RETURN_IF_ERROR(db->AttachSlices(db->StoreBackends(), seed));
  return db;
}

StatusOr<std::unique_ptr<EncryptedXmlDatabase>>
EncryptedXmlDatabase::ConnectRemoteMulti(
    std::vector<std::unique_ptr<rpc::Channel>> channels,
    const mapping::TagMap& map, const prg::Seed& seed, uint32_t p,
    uint32_t e) {
  SSDB_ASSIGN_OR_RETURN(std::unique_ptr<EncryptedXmlDatabase> db,
                        Make(map, p, e));
  SSDB_ASSIGN_OR_RETURN(
      db->session_,
      rpc::MultiServerSession::FromChannels(db->ring_, std::move(channels)));
  db->server_view_ = db->session_->filter();
  SSDB_RETURN_IF_ERROR(db->BuildEngines(seed));
  return db;
}

StatusOr<std::unique_ptr<EncryptedXmlDatabase>>
EncryptedXmlDatabase::FromFilters(
    const std::vector<filter::ServerFilter*>& backends,
    const mapping::TagMap& map, const prg::Seed& seed, uint32_t p,
    uint32_t e) {
  if (backends.empty()) {
    return Status::InvalidArgument("no slice filters given");
  }
  SSDB_ASSIGN_OR_RETURN(std::unique_ptr<EncryptedXmlDatabase> db,
                        Make(map, p, e));
  SSDB_RETURN_IF_ERROR(db->AttachSlices(backends, seed));
  return db;
}

std::vector<filter::ServerFilter*> EncryptedXmlDatabase::StoreBackends() {
  std::vector<filter::ServerFilter*> raw;
  for (const auto& store : stores_) {
    backends_.push_back(
        std::make_unique<filter::LocalServerFilter>(ring_, store.get()));
    raw.push_back(backends_.back().get());
  }
  return raw;
}

Status EncryptedXmlDatabase::AttachSlices(
    std::vector<filter::ServerFilter*> backends, const prg::Seed& seed) {
  if (backends.size() == 1) {
    server_view_ = backends[0];
  } else {
    fanout_ =
        std::make_unique<filter::MultiServerFilter>(ring_, std::move(backends));
    server_view_ = fanout_.get();
  }
  return BuildEngines(seed);
}

Status EncryptedXmlDatabase::BuildEngines(const prg::Seed& seed) {
  client_ = std::make_unique<filter::ClientFilter>(ring_, prg::Prg(seed),
                                                   server_view_);
  simple_ = std::make_unique<query::SimpleEngine>(client_.get(), &map_);
  advanced_ = std::make_unique<query::AdvancedEngine>(client_.get(), &map_);
  agg_ = std::make_unique<agg::AggregationEngine>(client_.get(), &map_);
  mutator_ = std::make_unique<encode::Mutator>(ring_, map_, prg::Prg(seed),
                                               client_.get());
  // The skeleton is loaded once here, so its cost lands at open and every
  // later structure step is a lookup (DESIGN.md §6).
  return client_->LoadSkeleton();
}

Status EncryptedXmlDatabase::ProbeShares() {
  SSDB_ASSIGN_OR_RETURN(filter::NodeMeta root, client_->Root());
  StatusOr<gf::Elem> probe = client_->RecoverOwnValue(root);
  if (!probe.ok()) {
    return Status(probe.status().code(),
                  "share-sum sanity probe failed (are all slices listed in "
                  "slice order, with this document's seed?): " +
                      probe.status().message());
  }
  client_->stats().Reset();
  return Status::OK();
}

void EncryptedXmlDatabase::SetEndpointHealth(
    const control::HealthView* health, std::vector<std::string> endpoints) {
  filter::MultiServerFilter* fanout =
      session_ != nullptr ? session_->filter() : fanout_.get();
  if (fanout != nullptr) fanout->SetEndpointHealth(health, std::move(endpoints));
}

StatusOr<MutationResult> EncryptedXmlDatabase::Update(
    uint32_t pre, std::string_view new_tag,
    const std::optional<std::string>& new_text) {
  return Mutate([&] { return mutator_->PlanUpdate(pre, new_tag, new_text); });
}

StatusOr<MutationResult> EncryptedXmlDatabase::Insert(
    uint32_t parent_pre, std::string_view fragment_xml) {
  return Mutate(
      [&] { return mutator_->PlanInsert(parent_pre, fragment_xml); });
}

StatusOr<MutationResult> EncryptedXmlDatabase::Delete(uint32_t pre) {
  return Mutate([&] { return mutator_->PlanDelete(pre); });
}

StatusOr<MutationResult> EncryptedXmlDatabase::Mutate(
    const std::function<StatusOr<encode::PlannedMutation>()>& plan) {
  SSDB_RETURN_IF_ERROR(CheckMutable());
  // Another client committed since this skeleton was loaded: re-fetch it
  // and plan once more (DESIGN.md §12).
  StatusOr<encode::PlannedMutation> planned = plan();
  if (planned.status().IsStaleVersion()) {
    SSDB_RETURN_IF_ERROR(client_->LoadSkeleton());
    planned = plan();
  }
  SSDB_RETURN_IF_ERROR(planned.status());
  return DriveMutation(std::move(*planned));
}

Status EncryptedXmlDatabase::CheckMutable() {
  if (trie_) {
    return Status::Unimplemented(
        "mutations on a trie-encoded database are not supported "
        "(DESIGN.md §12)");
  }
  if (server_view_ == nullptr) {
    return Status::FailedPrecondition("no server filter attached");
  }
  return Status::OK();
}

StatusOr<MutationResult> EncryptedXmlDatabase::DriveMutation(
    encode::PlannedMutation planned) {
  // Two-phase drive (DESIGN.md §12): prepare on every slice, then commit.
  // A prepare failure aborts best-effort — nothing was applied, so the
  // document is untouched. A failure *during* commit leaves the txn
  // decided (some slice committed); RecoverMutations() finishes the job.
  Status prepared = server_view_->PrepareMutation(planned.txn, planned.plans);
  if (!prepared.ok()) {
    (void)server_view_->AbortMutation(planned.txn);  // best-effort cleanup
    return prepared;
  }
  Status committed = server_view_->CommitMutation(planned.txn);
  if (!committed.ok()) {
    // Some slice may have committed: RecoverMutations settles the txn and
    // applies this plan to the skeleton if it went through.
    in_doubt_txn_ = planned.txn;
    in_doubt_plan_ = std::move(planned.plans[0]);
    return committed;
  }
  // The plan is the whole structural change, so the skeleton follows it
  // here instead of being fetched again (DESIGN.md §12). The commit
  // stands either way: a skeleton left behind is refused on the next
  // stamped request and fetched then.
  (void)client_->ApplyCommitted(planned.plans[0], planned.txn);
  MutationResult result;
  result.version = planned.txn;
  result.stats = planned.stats;
  return result;
}

Status EncryptedXmlDatabase::RecoverMutations() {
  if (server_view_ == nullptr) {
    return Status::FailedPrecondition("no server filter attached");
  }
  // Any slice that committed a txn proves the coordinator decided to
  // commit, so undecided slices follow it; a txn no slice committed is
  // rolled back. Loop because aborting one txn can expose an older one.
  for (int round = 0; round < 64; ++round) {
    SSDB_ASSIGN_OR_RETURN(std::vector<storage::MutationState> states,
                          server_view_->MutationStates());
    uint64_t pending = 0;
    uint64_t committed = 0;
    for (const storage::MutationState& st : states) {
      pending = std::max(pending, st.pending_txn);
      committed = std::max(committed, st.version);
    }
    if (pending == 0) return SettleSkeleton(committed);
    if (committed >= pending) {
      SSDB_RETURN_IF_ERROR(server_view_->CommitMutation(pending));
    } else {
      SSDB_RETURN_IF_ERROR(server_view_->AbortMutation(pending));
    }
  }
  return Status::Internal("mutation recovery did not converge");
}

StatusOr<QueryResult> EncryptedXmlDatabase::Query(std::string_view xpath,
                                                  EngineKind engine,
                                                  query::MatchMode mode) {
  SSDB_ASSIGN_OR_RETURN(query::Query parsed, query::ParseQuery(xpath));
  return QueryParsed(parsed, engine, mode);
}

Status EncryptedXmlDatabase::SettleSkeleton(uint64_t committed) {
  std::optional<storage::MutationPlan> own = std::move(in_doubt_plan_);
  in_doubt_plan_.reset();
  SSDB_ASSIGN_OR_RETURN(uint64_t held, client_->SkeletonVersion());
  if (held == committed) return Status::OK();
  if (own.has_value() && in_doubt_txn_ == committed) {
    return client_->ApplyCommitted(*own, committed);
  }
  return client_->LoadSkeleton();
}

Status EncryptedXmlDatabase::CheckSkeletonCurrent() {
  SSDB_ASSIGN_OR_RETURN(uint64_t committed, server_view_->CommittedVersion());
  SSDB_ASSIGN_OR_RETURN(uint64_t held, client_->SkeletonVersion());
  if (committed != held) {
    return Status::StaleVersion(
        "document is at version " + std::to_string(committed) +
        ", the client's skeleton at version " + std::to_string(held));
  }
  return Status::OK();
}

StatusOr<QueryResult> EncryptedXmlDatabase::QueryParsed(
    const query::Query& query, EngineKind engine, query::MatchMode mode) {
  auto run = [&]() -> StatusOr<QueryResult> {
    const uint64_t calls = client_->stats().server_calls;
    StatusOr<QueryResult> result = RunQuery(query, engine, mode);
    // A query answered from the skeleton alone sent no stamped request
    // that a stale skeleton could be refused on, and an in-process stack
    // stamps none; ask for the version. Versions only grow, so a match
    // after the query means none moved since the skeleton was loaded,
    // and a mismatch makes its answer or error stale.
    if (!server_view_->StampsRequests() ||
        client_->stats().server_calls == calls) {
      Status current = CheckSkeletonCurrent();
      if (!current.ok() && (result.ok() || current.IsStaleVersion())) {
        return current;
      }
    }
    return result;
  };
  // A refusal means another client committed since this skeleton was
  // loaded: re-fetch it and rerun once (DESIGN.md §12).
  StatusOr<QueryResult> result = run();
  if (!result.status().IsStaleVersion()) return result;
  SSDB_RETURN_IF_ERROR(client_->LoadSkeleton());
  return run();
}

StatusOr<QueryResult> EncryptedXmlDatabase::RunQuery(
    const query::Query& query, EngineKind engine, query::MatchMode mode) {
  query::QueryEngine* chosen =
      engine == EngineKind::kSimple
          ? static_cast<query::QueryEngine*>(simple_.get())
          : static_cast<query::QueryEngine*>(advanced_.get());
  QueryResult result;
  if (query.aggregate != query::Aggregate::kNone) {
    // Aggregate form (DESIGN.md §8): the servers fold their column slices;
    // only per-group words come home.
    result.is_aggregate = true;
    SSDB_ASSIGN_OR_RETURN(
        result.aggregate, agg_->Execute(chosen, query, mode, &result.stats));
    return result;
  }
  SSDB_ASSIGN_OR_RETURN(result.nodes,
                        chosen->Execute(query, mode, &result.stats));
  return result;
}

filter::ServerFilter* EncryptedXmlDatabase::slice_filter(size_t i) {
  return i < backends_.size() ? backends_[i].get() : nullptr;
}

Status EncryptedXmlDatabase::Serve(rpc::Channel* channel) {
  if (server_view_ == nullptr) {
    return Status::FailedPrecondition("no server filter attached");
  }
  rpc::RpcServer server(ring_, server_view_);
  return server.Serve(channel);
}

Status EncryptedXmlDatabase::ServeSlice(size_t index, rpc::Channel* channel) {
  if (index >= stores_.size()) {
    return Status::InvalidArgument("no such share slice");
  }
  filter::LocalServerFilter slice_filter(ring_, stores_[index].get());
  rpc::RpcServer server(ring_, &slice_filter);
  return server.Serve(channel);
}

}  // namespace ssdb::core
