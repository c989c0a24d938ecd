#include "encode/reshare.h"

#include <algorithm>
#include <map>
#include <utility>

#include "agg/columns.h"
#include "encode/node_encoder.h"
#include "xml/sax.h"

namespace ssdb::encode {
namespace {

// One root-path node with everything the planner recovered about it.
struct PathNode {
  filter::NodeMeta meta;
  ColState state;
  std::string sealed_plain;  // unsealed "tag\ntext"; empty when sealing off
};

struct LoadedPath {
  std::vector<PathNode> nodes;  // [target, parent, ..., root]
  bool sealed_db = false;
  bool verify_db = false;
};

// Children metas per path level plus reconstructed polynomials of every
// off-path child (the on-path child's poly is recomputed, not fetched).
struct Siblings {
  std::vector<std::vector<filter::NodeMeta>> children;  // indexed by level
  std::map<uint32_t, gf::RingElem> polys;               // keyed by child pre
  uint64_t fetched = 0;
};

// Everything one Plan* call needs; built fresh per call so the Mutator
// itself stays stateless and trivially thread-compatible.
class Planner {
 public:
  Planner(const gf::Ring& ring, const mapping::TagMap& map,
          const prg::Prg& prg, filter::ClientFilter* client)
      : ring_(ring),
        map_(map),
        prg_(prg),
        client_(client),
        filter_(client->server()) {}

  StatusOr<PlannedMutation> Update(uint32_t pre, std::string_view new_tag,
                                   const std::optional<std::string>& new_text);
  StatusOr<PlannedMutation> Insert(uint32_t parent_pre,
                                   std::string_view fragment_xml);
  StatusOr<PlannedMutation> Delete(uint32_t pre);

 private:
  struct TxnContext {
    size_t m = 0;               // share-slice count
    uint64_t base_version = 0;  // agreed committed version
    uint64_t next_nonce = 0;    // fresh-nonce watermark
  };

  StatusOr<TxnContext> BeginPlan();
  StatusOr<uint64_t> AllocNonce(TxnContext* ctx);
  // The root path of `pre` with its column state, unmasked with the
  // slice count `m` that BeginPlan read.
  StatusOr<LoadedPath> LoadPath(uint32_t pre, size_t m);
  StatusOr<std::vector<agg::Word>> PlainColumns(const std::string& blob,
                                                uint64_t nonce, size_t m);
  StatusOr<std::vector<gf::RingElem>> FetchPolys(
      const std::vector<filter::NodeMeta>& metas);
  StatusOr<Siblings> LoadSiblings(const LoadedPath& path, size_t start_level);
  gf::RingElem RebuildPoly(const LoadedPath& path, const Siblings& siblings,
                           size_t level, const gf::RingElem* swap_in,
                           gf::Elem tag) const;
  gf::Elem TagValueOf(const PathNode& node) const {
    return map_.values_in_order()[node.state.own_index];
  }
  NodeSplitter Splitter(const TxnContext& ctx, const LoadedPath& path) const {
    return NodeSplitter(ring_, prg_, ctx.m,
                        path.verify_db ? VerifyKeys(prg_, map_.size())
                                       : std::vector<uint64_t>());
  }
  std::vector<storage::MutationPlan> MakePlans(const TxnContext& ctx,
                                               storage::MutationKind kind);

  const gf::Ring& ring_;
  const mapping::TagMap& map_;
  const prg::Prg& prg_;
  filter::ClientFilter* client_;  // structure, off the skeleton
  filter::ServerFilter* filter_;  // everything else
};

StatusOr<Planner::TxnContext> Planner::BeginPlan() {
  SSDB_ASSIGN_OR_RETURN(std::vector<storage::MutationState> states,
                        filter_->MutationStates());
  if (states.empty()) {
    return Status::Internal("no mutation states reported");
  }
  TxnContext ctx;
  ctx.m = states.size();
  ctx.base_version = states[0].version;
  ctx.next_nonce = prg::kFirstMutationNonce;
  for (size_t i = 0; i < states.size(); ++i) {
    if (states[i].pending_txn != 0) {
      return Status::FailedPrecondition(
          "server " + std::to_string(i) + " has an undecided mutation (txn " +
          std::to_string(states[i].pending_txn) +
          "); recover before planning a new one");
    }
    if (states[i].version != ctx.base_version) {
      return Status::FailedPrecondition(
          "server slices disagree on the committed version (server 0 at " +
          std::to_string(ctx.base_version) + ", server " + std::to_string(i) +
          " at " + std::to_string(states[i].version) +
          "); recover before planning a new one");
    }
    ctx.next_nonce = std::max(ctx.next_nonce, states[i].next_nonce);
  }
  SSDB_ASSIGN_OR_RETURN(uint64_t skeleton_version, client_->SkeletonVersion());
  if (skeleton_version != ctx.base_version) {
    return Status::StaleVersion(
        "document is at version " + std::to_string(ctx.base_version) +
        ", the client's skeleton at version " +
        std::to_string(skeleton_version));
  }
  return ctx;
}

StatusOr<uint64_t> Planner::AllocNonce(TxnContext* ctx) {
  if (ctx->next_nonce >= prg::kMutationNonceLimit) {
    return Status::FailedPrecondition(
        "mutation nonce space exhausted (2^40 re-shares); re-encode the "
        "document to reset the watermark");
  }
  return ctx->next_nonce++;
}

std::vector<storage::MutationPlan> Planner::MakePlans(
    const TxnContext& ctx, storage::MutationKind kind) {
  std::vector<storage::MutationPlan> plans(ctx.m);
  for (storage::MutationPlan& plan : plans) {
    plan.kind = kind;
    plan.base_version = ctx.base_version;
  }
  return plans;
}

StatusOr<std::vector<agg::Word>> Planner::PlainColumns(const std::string& blob,
                                                       uint64_t nonce,
                                                       size_t m) {
  const size_t T = map_.size();
  std::vector<agg::Word> words(agg::WordsPerNode(T));
  for (size_t w = 0; w < words.size(); ++w) {
    words[w] = agg::BlobWord(blob, w);
  }
  // plain = slice 0 (the stored remainder) + the PRG-defined slices 1..m-1
  // + the client's mask — the inverse of the encoder's split.
  for (uint32_t i = 0; i < m; ++i) {
    prg::Prg::Stream mask = prg_.StreamForAggColumns(nonce, i);
    for (agg::Word& word : words) word += mask.NextUint32();
  }
  return words;
}

StatusOr<LoadedPath> Planner::LoadPath(uint32_t pre, size_t m) {
  // The skeleton was validated when it was loaded: every parent precedes
  // its child, so this walk reaches the root.
  std::vector<filter::NodeMeta> metas;
  SSDB_ASSIGN_OR_RETURN(filter::NodeMeta meta, client_->GetNode(pre));
  metas.push_back(meta);
  while (metas.back().parent != 0) {
    SSDB_ASSIGN_OR_RETURN(meta, client_->GetNode(metas.back().parent));
    metas.push_back(meta);
  }
  std::vector<uint32_t> pres;
  pres.reserve(metas.size());
  for (const filter::NodeMeta& node : metas) pres.push_back(node.pre);
  SSDB_ASSIGN_OR_RETURN(std::vector<storage::ColumnBlobs> cols,
                        filter_->FetchColumnsBatch(pres));
  if (cols.size() != metas.size()) {
    return Status::Internal("column fetch returned the wrong count");
  }
  const size_t T = map_.size();
  LoadedPath out;
  for (size_t i = 0; i < metas.size(); ++i) {
    if (cols[i].agg.empty()) {
      return Status::FailedPrecondition(
          "node " + std::to_string(metas[i].pre) +
          " has no aggregate columns — mutations need a database encoded "
          "with aggregates (DESIGN.md §12)");
    }
    if (agg::BlobValueCount(cols[i].agg) != T) {
      return Status::FailedPrecondition(
          "tag map size does not match the database's aggregate columns");
    }
    SSDB_ASSIGN_OR_RETURN(
        std::vector<agg::Word> plain,
        PlainColumns(cols[i].agg, metas[i].ShareNonce(), m));
    SSDB_ASSIGN_OR_RETURN(ColState state, RecoverState(plain));
    out.nodes.push_back(PathNode{metas[i], std::move(state), std::string()});
  }
  out.verify_db = !cols[0].verify.empty();
  SSDB_ASSIGN_OR_RETURN(std::vector<std::string> sealed,
                        filter_->FetchSealedBatch(pres));
  if (sealed.size() != metas.size()) {
    return Status::Internal("sealed fetch returned the wrong count");
  }
  out.sealed_db = !sealed[0].empty();
  for (size_t i = 0; out.sealed_db && i < metas.size(); ++i) {
    std::string plain = prg_.UnsealPayload(metas[i].ShareNonce(), sealed[i]);
    if (plain.find('\n') == std::string::npos) {
      return Status::Corruption("sealed payload has no tag line (node " +
                                std::to_string(metas[i].pre) + ")");
    }
    out.nodes[i].sealed_plain = std::move(plain);
  }
  return out;
}

StatusOr<std::vector<gf::RingElem>> Planner::FetchPolys(
    const std::vector<filter::NodeMeta>& metas) {
  std::vector<uint32_t> pres;
  pres.reserve(metas.size());
  for (const filter::NodeMeta& node : metas) pres.push_back(node.pre);
  std::vector<gf::RingElem> sums;
  if (!pres.empty()) {
    SSDB_ASSIGN_OR_RETURN(sums, filter_->FetchShareBatch(pres));
    if (sums.size() != metas.size()) {
      return Status::Internal("share fetch returned the wrong count");
    }
  }
  // f = c + Σ slices: the fan-out already summed the server slices.
  for (size_t i = 0; i < sums.size(); ++i) {
    ring_.AddInto(&sums[i], prg_.ClientShare(ring_, metas[i].ShareNonce()));
  }
  return sums;
}

StatusOr<Siblings> Planner::LoadSiblings(const LoadedPath& path,
                                         size_t start_level) {
  std::vector<filter::NodeMeta> levels;
  for (size_t j = start_level; j < path.nodes.size(); ++j) {
    levels.push_back(path.nodes[j].meta);
  }
  SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<filter::NodeMeta>> lists,
                        client_->ChildrenBatch(levels));
  Siblings out;
  out.children.resize(path.nodes.size());
  for (size_t j = 0; j < lists.size(); ++j) {
    out.children[start_level + j] = std::move(lists[j]);
  }
  std::vector<filter::NodeMeta> fetch;
  for (size_t j = start_level; j < path.nodes.size(); ++j) {
    for (const filter::NodeMeta& child : out.children[j]) {
      // The on-path child's polynomial is recomputed, never fetched.
      if (j >= 1 && child.pre == path.nodes[j - 1].meta.pre) continue;
      fetch.push_back(child);
    }
  }
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::RingElem> polys, FetchPolys(fetch));
  for (size_t i = 0; i < fetch.size(); ++i) {
    out.polys.emplace(fetch[i].pre, std::move(polys[i]));
  }
  out.fetched = fetch.size();
  return out;
}

// Path level `level`'s polynomial after the mutation: the node recurrence
// over its off-path children plus `swap_in` (the on-path child's new
// polynomial or an inserted fragment's root; null when the child is gone).
gf::RingElem Planner::RebuildPoly(const LoadedPath& path,
                                  const Siblings& siblings, size_t level,
                                  const gf::RingElem* swap_in,
                                  gf::Elem tag) const {
  NodePoly poly(ring_);
  for (const filter::NodeMeta& child : siblings.children[level]) {
    if (level >= 1 && child.pre == path.nodes[level - 1].meta.pre) continue;
    poly.Fold(siblings.polys.at(child.pre));
  }
  if (swap_in != nullptr) poly.Fold(*swap_in);
  return poly.Close(tag);
}

// Appends one re-shared node's rows (rows[i] is slice i's) to the plans.
void AppendRows(std::vector<storage::NodeRow> rows, PlannedMutation* out) {
  for (size_t i = 0; i < rows.size(); ++i) {
    out->stats.reshared_bytes += rows[i].share.size() + rows[i].agg.size() +
                                 rows[i].verify.size() +
                                 rows[i].sealed.size();
    out->plans[i].upserts.push_back(std::move(rows[i]));
  }
}

// Size of the subtree rooted at path.nodes[0]. It is public — pre/post/depth
// numbering gives post − pre + depth + 1 — and the recovered mult column
// (read from slice 0's blob) must agree, or server 0 is lying and an erase
// or shift range built from it would corrupt every honest slice.
StatusOr<uint32_t> SubtreeSize(const LoadedPath& path) {
  const filter::NodeMeta& meta = path.nodes[0].meta;
  const int64_t size = static_cast<int64_t>(meta.post) - meta.pre +
                       static_cast<int64_t>(path.nodes.size());
  int64_t counted = 0;
  for (agg::Word count : path.nodes[0].state.mult) counted += count;
  if (counted != size) {
    return Status::Corruption(
        "server 0's aggregate columns count " + std::to_string(counted) +
        " nodes under pre " + std::to_string(meta.pre) +
        ", but the public pre/post numbering spans " + std::to_string(size));
  }
  return static_cast<uint32_t>(size);
}

StatusOr<PlannedMutation> Planner::Update(
    uint32_t pre, std::string_view new_tag,
    const std::optional<std::string>& new_text) {
  if (new_tag.empty() && !new_text.has_value()) {
    return Status::InvalidArgument("update changes neither tag nor text");
  }
  SSDB_ASSIGN_OR_RETURN(TxnContext ctx, BeginPlan());
  SSDB_ASSIGN_OR_RETURN(LoadedPath path, LoadPath(pre, ctx.m));
  if (new_text.has_value() && !path.sealed_db) {
    return Status::FailedPrecondition(
        "database was encoded without sealed content; there is no text to "
        "update");
  }
  const PathNode& target = path.nodes[0];
  uint32_t new_index = target.state.own_index;
  gf::Elem new_value = TagValueOf(target);
  if (!new_tag.empty()) {
    StatusOr<gf::Elem> value = map_.Lookup(new_tag);
    if (!value.ok()) {
      return Status::InvalidArgument("tag not covered by the map file: " +
                                     std::string(new_tag));
    }
    new_value = *value;
    SSDB_ASSIGN_OR_RETURN(new_index, map_.ValueIndex(new_value));
  }
  const bool retag = new_index != target.state.own_index;

  // Accumulators after the re-tag, propagated root-ward child-by-child.
  std::vector<ColState> new_states;
  new_states.reserve(path.nodes.size());
  new_states.push_back(target.state);
  if (retag) {
    new_states[0].mult[target.state.own_index] -= 1;
    new_states[0].mult[new_index] += 1;
    new_states[0].own_index = new_index;
  }
  for (size_t j = 1; j < path.nodes.size(); ++j) {
    new_states.push_back(path.nodes[j].state);
    RemoveChild(&new_states[j], path.nodes[j - 1].state);
    AddChild(&new_states[j], new_states[j - 1]);
  }

  // New polynomials. A pure text edit leaves every polynomial's value
  // unchanged, so each path node's poly is reconstructed directly; a re-tag
  // changes the target's factor in every ancestor product, so those are
  // rebuilt from the children.
  std::vector<gf::RingElem> new_polys(path.nodes.size());
  MutateStats stats;
  if (!retag) {
    std::vector<filter::NodeMeta> metas;
    for (const PathNode& node : path.nodes) metas.push_back(node.meta);
    SSDB_ASSIGN_OR_RETURN(new_polys, FetchPolys(metas));
  } else {
    SSDB_ASSIGN_OR_RETURN(Siblings siblings, LoadSiblings(path, 0));
    stats.children_fetched = siblings.fetched;
    for (size_t j = 0; j < path.nodes.size(); ++j) {
      new_polys[j] = RebuildPoly(
          path, siblings, j, j >= 1 ? &new_polys[j - 1] : nullptr,
          j == 0 ? new_value : TagValueOf(path.nodes[j]));
    }
  }

  // Sealed payloads: ancestors re-seal unchanged, the target's tag line and
  // text are rewritten as requested.
  std::vector<std::string> new_plain(path.nodes.size());
  if (path.sealed_db) {
    for (size_t j = 1; j < path.nodes.size(); ++j) {
      new_plain[j] = path.nodes[j].sealed_plain;
    }
    size_t cut = target.sealed_plain.find('\n');
    std::string tag_line = new_tag.empty()
                               ? target.sealed_plain.substr(0, cut)
                               : std::string(new_tag);
    std::string text = new_text.has_value()
                           ? *new_text
                           : target.sealed_plain.substr(cut + 1);
    new_plain[0] = tag_line + "\n" + text;
  }

  PlannedMutation out;
  out.txn = ctx.base_version + 1;
  out.plans = MakePlans(ctx, storage::MutationKind::kUpdate);
  out.stats = stats;
  const NodeSplitter splitter = Splitter(ctx, path);
  for (size_t j = 0; j < path.nodes.size(); ++j) {
    SSDB_ASSIGN_OR_RETURN(uint64_t nonce, AllocNonce(&ctx));
    const filter::NodeMeta& meta = path.nodes[j].meta;
    AppendRows(splitter.Split(meta.pre, meta.post, meta.parent, nonce, nonce,
                              new_polys[j], StoredColumns(new_states[j]),
                              path.sealed_db ? &new_plain[j] : nullptr),
               &out);
  }
  for (storage::MutationPlan& plan : out.plans) {
    plan.next_nonce = ctx.next_nonce;
  }
  out.stats.path_nodes = path.nodes.size();
  out.stats.subtree_nodes = 1;
  return out;
}

StatusOr<PlannedMutation> Planner::Delete(uint32_t pre) {
  SSDB_ASSIGN_OR_RETURN(TxnContext ctx, BeginPlan());
  SSDB_ASSIGN_OR_RETURN(LoadedPath path, LoadPath(pre, ctx.m));
  if (path.nodes[0].meta.parent == 0) {
    return Status::InvalidArgument("cannot delete the document root");
  }
  const PathNode& victim = path.nodes[0];
  SSDB_ASSIGN_OR_RETURN(const uint32_t S, SubtreeSize(path));

  std::vector<ColState> new_states(path.nodes.size());
  new_states[1] = path.nodes[1].state;
  RemoveChild(&new_states[1], victim.state);
  for (size_t j = 2; j < path.nodes.size(); ++j) {
    new_states[j] = path.nodes[j].state;
    RemoveChild(&new_states[j], path.nodes[j - 1].state);
    AddChild(&new_states[j], new_states[j - 1]);
  }

  SSDB_ASSIGN_OR_RETURN(Siblings siblings, LoadSiblings(path, 1));
  std::vector<gf::RingElem> new_polys(path.nodes.size());
  for (size_t j = 1; j < path.nodes.size(); ++j) {
    // At the parent the deleted child simply disappears from the product;
    // higher up the on-path child's new polynomial takes its place.
    new_polys[j] =
        RebuildPoly(path, siblings, j, j >= 2 ? &new_polys[j - 1] : nullptr,
                    TagValueOf(path.nodes[j]));
  }

  PlannedMutation out;
  out.txn = ctx.base_version + 1;
  out.plans = MakePlans(ctx, storage::MutationKind::kDelete);
  const NodeSplitter splitter = Splitter(ctx, path);
  for (size_t j = 1; j < path.nodes.size(); ++j) {
    SSDB_ASSIGN_OR_RETURN(uint64_t nonce, AllocNonce(&ctx));
    const filter::NodeMeta& meta = path.nodes[j].meta;
    AppendRows(
        splitter.Split(meta.pre, meta.post - S, meta.parent, nonce, nonce,
                       new_polys[j], StoredColumns(new_states[j]),
                       path.sealed_db ? &path.nodes[j].sealed_plain : nullptr),
        &out);
  }
  for (storage::MutationPlan& plan : out.plans) {
    plan.next_nonce = ctx.next_nonce;
    plan.erase_lo = victim.meta.pre;
    plan.erase_hi = victim.meta.pre + S - 1;
    plan.shift_pre_gt = victim.meta.pre + S - 1;
    plan.shift_delta = -static_cast<int64_t>(S);
  }
  out.stats.path_nodes = path.nodes.size() - 1;
  out.stats.subtree_nodes = S;
  out.stats.children_fetched = siblings.fetched;
  return out;
}

StatusOr<PlannedMutation> Planner::Insert(uint32_t parent_pre,
                                          std::string_view fragment_xml) {
  SSDB_ASSIGN_OR_RETURN(TxnContext ctx, BeginPlan());
  SSDB_ASSIGN_OR_RETURN(LoadedPath path, LoadPath(parent_pre, ctx.m));
  // The fragment, encoded client-side with local numbering; fragment[k]
  // is the node with local pre k + 1.
  std::vector<EncodedNode> fragment;
  NodeEncoder builder(ring_, map_,
                      {/*columns=*/true, /*keep_text=*/path.sealed_db,
                       /*trie=*/false},
                      [&fragment](EncodedNode&& node) -> Status {
                        if (fragment.size() < node.pre) {
                          fragment.resize(node.pre);
                        }
                        fragment[node.pre - 1] = std::move(node);
                        return Status::OK();
                      });
  xml::SaxParser parser;
  SSDB_RETURN_IF_ERROR(parser.Parse(fragment_xml, &builder));
  if (fragment.empty()) {
    return Status::InvalidArgument("insert fragment has no elements");
  }
  const uint32_t S = static_cast<uint32_t>(fragment.size());
  const PathNode& parent = path.nodes[0];
  SSDB_ASSIGN_OR_RETURN(const uint32_t parent_size, SubtreeSize(path));
  // Last pre of the parent's subtree: the fragment lands right after it.
  const uint32_t pre_anchor = parent.meta.pre + parent_size - 1;
  if (static_cast<uint64_t>(pre_anchor) + S > 0xffffffffull) {
    return Status::InvalidArgument("document is out of pre-number space");
  }

  std::vector<ColState> new_states;
  new_states.reserve(path.nodes.size());
  new_states.push_back(parent.state);
  AddChild(&new_states[0], fragment[0].state);
  for (size_t j = 1; j < path.nodes.size(); ++j) {
    new_states.push_back(path.nodes[j].state);
    RemoveChild(&new_states[j], path.nodes[j - 1].state);
    AddChild(&new_states[j], new_states[j - 1]);
  }

  SSDB_ASSIGN_OR_RETURN(Siblings siblings, LoadSiblings(path, 0));
  std::vector<gf::RingElem> new_polys(path.nodes.size());
  for (size_t j = 0; j < path.nodes.size(); ++j) {
    // The parent keeps all of its old children and gains the fragment root;
    // higher levels swap in the on-path child's new polynomial.
    new_polys[j] = RebuildPoly(path, siblings, j,
                               j == 0 ? &fragment[0].poly : &new_polys[j - 1],
                               TagValueOf(path.nodes[j]));
  }

  PlannedMutation out;
  out.txn = ctx.base_version + 1;
  out.plans = MakePlans(ctx, storage::MutationKind::kInsert);
  const NodeSplitter splitter = Splitter(ctx, path);
  for (const EncodedNode& node : fragment) {
    SSDB_ASSIGN_OR_RETURN(uint64_t nonce, AllocNonce(&ctx));
    uint32_t node_pre = pre_anchor + node.pre;
    uint32_t node_post = parent.meta.post + node.post - 1;
    uint32_t node_parent =
        node.parent == 0 ? parent.meta.pre : pre_anchor + node.parent;
    std::string sealed_plain;
    if (path.sealed_db) sealed_plain = node.tag_name + "\n" + node.text;
    AppendRows(splitter.Split(node_pre, node_post, node_parent, nonce, nonce,
                              node.poly, StoredColumns(node.state),
                              path.sealed_db ? &sealed_plain : nullptr),
               &out);
  }
  for (size_t j = 0; j < path.nodes.size(); ++j) {
    SSDB_ASSIGN_OR_RETURN(uint64_t nonce, AllocNonce(&ctx));
    const filter::NodeMeta& meta = path.nodes[j].meta;
    AppendRows(
        splitter.Split(meta.pre, meta.post + S, meta.parent, nonce, nonce,
                       new_polys[j], StoredColumns(new_states[j]),
                       path.sealed_db ? &path.nodes[j].sealed_plain : nullptr),
        &out);
  }
  for (storage::MutationPlan& plan : out.plans) {
    plan.next_nonce = ctx.next_nonce;
    plan.shift_pre_gt = pre_anchor;
    plan.shift_delta = static_cast<int64_t>(S);
  }
  out.stats.path_nodes = path.nodes.size();
  out.stats.subtree_nodes = S;
  out.stats.children_fetched = siblings.fetched;
  return out;
}

}  // namespace

Mutator::Mutator(gf::Ring ring, const mapping::TagMap& map, prg::Prg prg,
                 filter::ClientFilter* client)
    : ring_(std::move(ring)),
      map_(map),
      prg_(std::move(prg)),
      client_(client) {}

StatusOr<PlannedMutation> Mutator::PlanUpdate(
    uint32_t pre, std::string_view new_tag,
    const std::optional<std::string>& new_text) {
  return Planner(ring_, map_, prg_, client_).Update(pre, new_tag, new_text);
}

StatusOr<PlannedMutation> Mutator::PlanInsert(uint32_t parent_pre,
                                              std::string_view fragment_xml) {
  return Planner(ring_, map_, prg_, client_).Insert(parent_pre, fragment_xml);
}

StatusOr<PlannedMutation> Mutator::PlanDelete(uint32_t pre) {
  return Planner(ring_, map_, prg_, client_).Delete(pre);
}

}  // namespace ssdb::encode
