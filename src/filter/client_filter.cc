#include "filter/client_filter.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "gf/share.h"

namespace ssdb::filter {
namespace {

// Validates `spec` and canonicalizes its frontier: (pre, effective share
// nonce) pairs sorted by pre and deduped, so the server fold and the client
// mask sums cover exactly the same node set. Nonces travel with their pres:
// the mask sums are keyed by nonce, the server fold by pre. A missing or
// zero nonce entry means "the pre number" (the unmutated default, DESIGN.md
// §12).
StatusOr<agg::Spec> CanonicalSpec(const agg::Spec& spec) {
  SSDB_RETURN_IF_ERROR(agg::ValidateSpec(spec));
  if (spec.value_count == 0) {
    return Status::InvalidArgument("aggregate spec needs the map size");
  }
  for (uint32_t index : spec.value_indexes) {
    if (index >= spec.value_count) {
      return Status::InvalidArgument("aggregate value index out of range");
    }
  }
  std::vector<std::pair<uint32_t, uint64_t>> frontier;
  frontier.reserve(spec.pres.size());
  for (size_t i = 0; i < spec.pres.size(); ++i) {
    uint64_t nonce = i < spec.nonces.size() ? spec.nonces[i] : 0;
    frontier.emplace_back(spec.pres[i], nonce != 0 ? nonce : spec.pres[i]);
  }
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end(),
                             [](const std::pair<uint32_t, uint64_t>& a,
                                const std::pair<uint32_t, uint64_t>& b) {
                               return a.first == b.first;
                             }),
                 frontier.end());
  agg::Spec canonical = spec;
  canonical.pres.clear();
  canonical.nonces.clear();
  for (const auto& [pre, nonce] : frontier) {
    canonical.pres.push_back(pre);
    canonical.nonces.push_back(nonce);
  }
  return canonical;
}

// The (word index, group) pairs a spec's masks cover, in ascending word
// order: every selected column of every group value.
std::vector<std::pair<size_t, size_t>> WantedWords(const agg::Spec& spec) {
  std::vector<std::pair<size_t, size_t>> wanted;
  for (size_t g = 0; g < spec.value_indexes.size(); ++g) {
    for (size_t c = 0; c < agg::kColCount; ++c) {
      if ((spec.columns & (1u << c)) == 0) continue;
      wanted.emplace_back(agg::WordIndex(static_cast<agg::Col>(c),
                                         spec.value_count,
                                         spec.value_indexes[g]),
                          g);
    }
  }
  std::sort(wanted.begin(), wanted.end());
  return wanted;
}

// Per-group 32-bit totals of the frontier's aggregate mask words of slice
// `slice` at `wanted` (DESIGN.md §8).
std::vector<agg::Word> AggMaskTotals(
    const prg::Prg& prg, uint32_t slice, const std::vector<uint64_t>& nonces,
    const std::vector<std::pair<size_t, size_t>>& wanted, size_t groups) {
  std::vector<size_t> offsets;
  offsets.reserve(wanted.size());
  for (const auto& [index, group] : wanted) {
    offsets.push_back(index * sizeof(agg::Word));
  }
  std::vector<uint64_t> sums = prg.FrontierMaskSums(
      prg::Prg::MaskStream::kAggColumns, slice, nonces, offsets,
      sizeof(agg::Word));
  std::vector<agg::Word> totals(groups, 0);
  for (size_t j = 0; j < wanted.size(); ++j) {
    totals[wanted[j].second] += static_cast<agg::Word>(sums[j]);
  }
  return totals;
}

// The distinct nodes of one share exchange, each once in first-seen order,
// with the PRG keys of their client shares (DESIGN.md §12).
struct NodeSet {
  std::vector<uint32_t> pres;
  std::vector<uint64_t> nonces;
  std::unordered_map<uint32_t, size_t> index;  // pre -> position

  void Add(const NodeMeta& node) {
    if (index.emplace(node.pre, pres.size()).second) {
      pres.push_back(node.pre);
      nonces.push_back(node.ShareNonce());
    }
  }
};

// The candidates nodes[i], i in `which`, and their children: overlapping
// candidates share one entry.
NodeSet CandidatesAndChildren(
    const std::vector<NodeMeta>& nodes,
    const std::vector<std::vector<NodeMeta>>& child_lists,
    const std::vector<size_t>& which) {
  NodeSet set;
  for (size_t i : which) {
    set.Add(nodes[i]);
    for (const NodeMeta& child : child_lists[i]) set.Add(child);
  }
  return set;
}

// The equality test's division (DESIGN.md §3), over a node's polynomial
// node[j] and its children's product prod[j] at points[j]. The node's own
// factor is t = v - node(v)/prod(v) at the first point v where the product
// is non-zero, and node(w) = (w - t) * prod(w) must hold at every point.
// The quotient ring has zero divisors, so division happens pointwise, in
// the evaluation domain. nullopt when the product vanishes at every point;
// Corruption when a check fails, which means the shares are inconsistent.
StatusOr<std::optional<gf::Elem>> DivideAtPoints(
    const gf::Field& field, const std::vector<gf::Elem>& points,
    const std::vector<gf::Elem>& node, const std::vector<gf::Elem>& prod) {
  size_t good = 0;
  while (good < points.size() && prod[good] == 0) ++good;
  if (good == points.size()) return std::optional<gf::Elem>();
  const gf::Elem t =
      field.Sub(points[good], field.Div(node[good], prod[good]));
  for (size_t j = 0; j < points.size(); ++j) {
    if (node[j] != field.Mul(field.Sub(points[j], t), prod[j])) {
      return Status::Corruption(
          "equality test: node polynomial is not (x - t) * children "
          "product; shares are inconsistent");
    }
  }
  return std::optional<gf::Elem>(t);
}

}  // namespace

void EvalStats::MergeConcurrent(const EvalStats& other) {
  evaluations += other.evaluations;
  containment_tests += other.containment_tests;
  equality_tests += other.equality_tests;
  shares_fetched += other.shares_fetched;
  nodes_visited += other.nodes_visited;
  server_calls += other.server_calls;
  batched_evaluations += other.batched_evaluations;
  aggregate_ops += other.aggregate_ops;
  verified_aggregate_ops += other.verified_aggregate_ops;
  proof_words += other.proof_words;
  round_trips = std::max(round_trips, other.round_trips);
  straggler_seconds = std::max(straggler_seconds, other.straggler_seconds);
  per_server_round_trips.insert(per_server_round_trips.end(),
                                other.per_server_round_trips.begin(),
                                other.per_server_round_trips.end());
}

ClientFilter::ClientFilter(gf::Ring ring, prg::Prg prg, ServerFilter* server)
    : ring_(ring),
      evaluator_(ring),
      prg_(std::move(prg)),
      server_(server) {}

StatusOr<NodeMeta> ClientFilter::Root() {
  TripScope trips(this);
  ++stats_.server_calls;
  SSDB_ASSIGN_OR_RETURN(NodeMeta root, server_->Root());
  ++stats_.nodes_visited;
  return root;
}

StatusOr<NodeMeta> ClientFilter::GetNode(uint32_t pre) {
  TripScope trips(this);
  ++stats_.server_calls;
  SSDB_ASSIGN_OR_RETURN(NodeMeta node, server_->GetNode(pre));
  ++stats_.nodes_visited;
  return node;
}

StatusOr<std::vector<NodeMeta>> ClientFilter::Children(const NodeMeta& node) {
  TripScope trips(this);
  ++stats_.server_calls;
  SSDB_ASSIGN_OR_RETURN(std::vector<NodeMeta> children,
                        server_->Children(node.pre));
  stats_.nodes_visited += children.size();
  return children;
}

StatusOr<std::vector<std::vector<NodeMeta>>> ClientFilter::ChildrenBatch(
    const std::vector<NodeMeta>& nodes) {
  if (nodes.empty()) return std::vector<std::vector<NodeMeta>>{};
  TripScope trips(this);
  ++stats_.server_calls;
  std::vector<uint32_t> pres;
  pres.reserve(nodes.size());
  for (const NodeMeta& node : nodes) pres.push_back(node.pre);
  SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<NodeMeta>> lists,
                        server_->ChildrenBatch(pres));
  if (lists.size() != nodes.size()) {
    return Status::Internal("ChildrenBatch size mismatch");
  }
  for (const auto& list : lists) stats_.nodes_visited += list.size();
  return lists;
}

StatusOr<std::vector<NodeMeta>> ClientFilter::Parents(
    const std::vector<NodeMeta>& nodes) {
  std::vector<uint32_t> pres;
  pres.reserve(nodes.size());
  for (const NodeMeta& node : nodes) {
    if (node.parent != 0) pres.push_back(node.parent);
  }
  std::sort(pres.begin(), pres.end());
  pres.erase(std::unique(pres.begin(), pres.end()), pres.end());
  if (pres.empty()) return std::vector<NodeMeta>{};
  TripScope trips(this);
  ++stats_.server_calls;
  SSDB_ASSIGN_OR_RETURN(std::vector<NodeMeta> parents,
                        server_->NodesBatch(pres));
  if (parents.size() != pres.size()) {
    return Status::Corruption("NodesBatch size mismatch");
  }
  for (size_t i = 0; i < pres.size(); ++i) {
    if (parents[i].pre != pres[i]) {
      return Status::Corruption("NodesBatch answered the wrong node");
    }
  }
  stats_.nodes_visited += parents.size();
  return parents;
}

StatusOr<std::vector<NodeMeta>> ClientFilter::DescendantsBatch(
    const std::vector<NodeMeta>& nodes) {
  const std::vector<NodeMeta> roots = CoveringSet(nodes);
  std::vector<NodeMeta> all;
  if (roots.empty()) return all;
  TripScope trips(this);
  uint32_t resume_after = 0;
  // A request carries only the roots whose subtrees may still hold unread
  // nodes, at most kDescendantsPage of them: roots[first, last).
  size_t first = 0;
  while (first < roots.size()) {
    const size_t last = std::min(first + kDescendantsPage, roots.size());
    ++stats_.server_calls;
    SSDB_ASSIGN_OR_RETURN(
        std::vector<NodeMeta> page,
        server_->DescendantsBatch(
            {roots.begin() + first, roots.begin() + last}, resume_after));
    // Pages must advance strictly in pre order; anything else would repeat
    // nodes or never end.
    if (page.size() > kDescendantsPage) {
      return Status::Corruption("DescendantsBatch page exceeds its limit");
    }
    for (const NodeMeta& node : page) {
      if (node.pre <= resume_after) {
        return Status::Corruption("DescendantsBatch page out of order");
      }
      resume_after = node.pre;
    }
    stats_.nodes_visited += page.size();
    all.insert(all.end(), page.begin(), page.end());
    if (page.size() < kDescendantsPage) {
      first = last;  // a short page drains every root it was sent
    } else {
      // Covering roots are disjoint and sorted, so only the last root at
      // or before the resume point can still be open.
      while (first + 1 < last && roots[first + 1].pre <= resume_after) ++first;
    }
  }
  return all;
}

gf::Elem ClientFilter::EvalClientShare(const NodeMeta& node,
                                       const gf::PowerTable& powers) {
  gf::RingElem share = prg_.ClientShare(ring_, node.ShareNonce());
  return ring_.EvalAt(powers, share);
}

StatusOr<std::vector<agg::Word>> ClientFilter::Aggregate(
    const agg::Spec& spec) {
  SSDB_ASSIGN_OR_RETURN(agg::Spec canonical, CanonicalSpec(spec));

  TripScope trips(this);
  ++stats_.server_calls;
  stats_.aggregate_ops += canonical.value_indexes.size();
  SSDB_ASSIGN_OR_RETURN(std::vector<agg::Word> totals,
                        server_->PartialAggregate(canonical));
  if (totals.size() != canonical.value_indexes.size()) {
    return Status::Internal("PartialAggregate group count mismatch");
  }

  // Remove the client's masks: the frontier's mask stream words at every
  // (selected column, group value) position — O(selected words) per node.
  std::vector<agg::Word> masks = AggMaskTotals(
      prg_, 0, canonical.nonces, WantedWords(canonical), totals.size());
  for (size_t g = 0; g < totals.size(); ++g) totals[g] += masks[g];
  return totals;
}

StatusOr<ClientFilter::VerifiedAggregate> ClientFilter::AggregateVerified(
    const agg::Spec& spec) {
  SSDB_ASSIGN_OR_RETURN(agg::Spec canonical, CanonicalSpec(spec));
  const size_t groups = canonical.value_indexes.size();

  // An empty frontier aggregates nothing: the zero answer is trivially
  // correct and no proof material exists to check.
  VerifiedAggregate out;
  out.totals.assign(groups, 0);
  if (canonical.pres.empty()) return out;

  TripScope trips(this);
  ++stats_.server_calls;
  stats_.aggregate_ops += groups;
  // entries[i] is server i's own partial (slice i); unlike Aggregate, the
  // servers' words are NOT pre-summed — attribution needs them apart.
  SSDB_ASSIGN_OR_RETURN(std::vector<agg::VerifiedPartial> entries,
                        server_->PartialAggregateVerified(canonical));
  if (entries.empty()) {
    return Status::Internal("PartialAggregateVerified returned no entries");
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].words.size() != groups ||
        entries[i].wide.size() != entries[i].proof.size() ||
        (!entries[i].wide.empty() && entries[i].wide.size() != groups)) {
      return Status::Corruption("server " + std::to_string(i) +
                                ": verified partial shape mismatch");
    }
    // Only slice 0 stores the verification track (DESIGN.md §9); a proof
    // from anyone else is an impersonation attempt, not data.
    if (i > 0 && !entries[i].wide.empty()) {
      return Status::Corruption(
          "server " + std::to_string(i) +
          ": unexpected verification track (only slice 0 stores proofs)");
    }
  }
  if (entries[0].wide.empty()) {
    return Status::FailedPrecondition(
        "database carries no aggregate verification track (re-encode with "
        "ssdb_encode --verify-agg; DESIGN.md §9)");
  }

  const std::vector<std::pair<size_t, size_t>> wanted =
      WantedWords(canonical);

  // Check 1 — slices i >= 1 are deterministic: their stored words are
  // exactly the client's own PRG stream words (DESIGN.md §9), so any
  // deviation identifies that server with certainty.
  for (size_t i = 1; i < entries.size(); ++i) {
    if (AggMaskTotals(prg_, static_cast<uint32_t>(i), canonical.nonces,
                      wanted, groups) != entries[i].words) {
      return Status::Corruption("aggregate verification failed: server " +
                                std::to_string(i) +
                                " returned a tampered partial");
    }
  }

  // Client mask sums over the frontier: the 32-bit answer masks (the same
  // stream Aggregate removes) and the verification-track masks — one
  // 16-byte record (wide then proof) per aggregate word (DESIGN.md §9).
  std::vector<agg::Word> c32 =
      AggMaskTotals(prg_, 0, canonical.nonces, wanted, groups);
  std::vector<size_t> record_offsets;
  record_offsets.reserve(2 * wanted.size());
  for (const auto& [index, group] : wanted) {
    record_offsets.push_back(index * 2 * sizeof(uint64_t));
    record_offsets.push_back(index * 2 * sizeof(uint64_t) + sizeof(uint64_t));
  }
  std::vector<uint64_t> record_sums = prg_.FrontierMaskSums(
      prg::Prg::MaskStream::kVerifyColumns, 0, canonical.nonces,
      record_offsets, sizeof(uint64_t));
  std::vector<uint64_t> cw(groups, 0);
  std::vector<uint64_t> cp(groups, 0);
  for (size_t j = 0; j < wanted.size(); ++j) {
    cw[wanted[j].second] += record_sums[2 * j];
    cp[wanted[j].second] += record_sums[2 * j + 1];
  }

  // Checks 2 and 3 — the keyed checksum over the wide answer, then the
  // wide answer against the 32-bit answer. Both pin slice 0: slices i >= 1
  // already passed the exact check above, so a failure here can only be
  // server 0's doing. An answer-changing forgery must solve
  // delta_proof = alpha * delta_wide for an unknown uniform 64-bit alpha
  // with delta_wide != 0 mod 2^32 — probability <= 2^-32 (DESIGN.md §9).
  for (size_t g = 0; g < groups; ++g) {
    agg::Word d32 = c32[g];
    for (const agg::VerifiedPartial& entry : entries) d32 += entry.words[g];
    uint64_t wide = entries[0].wide[g] + cw[g];
    uint64_t proof = entries[0].proof[g] + cp[g];
    uint64_t alpha = prg_.AggVerifyKey(canonical.value_indexes[g]);
    if (proof != alpha * wide) {
      return Status::Corruption(
          "aggregate verification failed: server 0 forged its partial "
          "(proof checksum mismatch)");
    }
    if (static_cast<agg::Word>(wide) != d32) {
      return Status::Corruption(
          "aggregate verification failed: server 0 forged its partial "
          "(wide partial disagrees with word partial)");
    }
    out.totals[g] = d32;
  }
  out.proof_words = 2 * groups;
  stats_.proof_words += out.proof_words;
  stats_.verified_aggregate_ops += groups;
  return out;
}

StatusOr<std::vector<uint8_t>> ClientFilter::ContainsValueBatch(
    const std::vector<NodeMeta>& nodes, gf::Elem t) {
  if (nodes.empty()) return std::vector<uint8_t>{};
  TripScope trips(this);
  stats_.containment_tests += nodes.size();
  stats_.evaluations += nodes.size();
  stats_.batched_evaluations += nodes.size();
  ++stats_.server_calls;
  std::vector<uint32_t> pres;
  pres.reserve(nodes.size());
  for (const NodeMeta& node : nodes) pres.push_back(node.pre);
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> server_values,
                        server_->EvalAtBatch(pres, t));
  if (server_values.size() != nodes.size()) {
    return Status::Internal("EvalAtBatch size mismatch");
  }
  const gf::PowerTable powers = ring_.Powers(t);
  std::vector<uint8_t> out(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    gf::Elem sum = ring_.field().Add(server_values[i],
                                     EvalClientShare(nodes[i], powers));
    out[i] = (sum == 0) ? 1 : 0;
  }
  return out;
}

StatusOr<std::vector<uint8_t>> ClientFilter::ContainsAllValuesBatch(
    const std::vector<NodeMeta>& nodes, const std::vector<gf::Elem>& values) {
  std::vector<uint8_t> alive(nodes.size(), 1);
  if (nodes.empty() || values.empty()) return alive;
  // A repeated value is one column of the grid.
  std::vector<gf::Elem> points = values;
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const size_t k = points.size();
  TripScope trips(this);
  stats_.containment_tests += nodes.size() * k;
  stats_.evaluations += nodes.size() * k;
  stats_.batched_evaluations += nodes.size() * k;
  std::vector<uint32_t> pres;
  std::vector<uint64_t> nonces;
  pres.reserve(nodes.size());
  nonces.reserve(nodes.size());
  for (const NodeMeta& node : nodes) {
    pres.push_back(node.pre);
    nonces.push_back(node.ShareNonce());
  }
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> sums,
                        GridValues(pres, nonces, points));
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (sums[i * k + j] != 0) alive[i] = 0;
    }
  }
  return alive;
}

StatusOr<bool> ClientFilter::ContainsValue(const NodeMeta& node, gf::Elem t) {
  SSDB_ASSIGN_OR_RETURN(std::vector<uint8_t> out,
                        ContainsValueBatch({node}, t));
  return out[0] != 0;
}

StatusOr<bool> ClientFilter::ContainsAllValues(
    const NodeMeta& node, const std::vector<gf::Elem>& values) {
  SSDB_ASSIGN_OR_RETURN(std::vector<uint8_t> out,
                        ContainsAllValuesBatch({node}, values));
  return out[0] != 0;
}

std::vector<gf::Elem> ClientFilter::DrawGridPoints() {
  const size_t k = std::min<size_t>(kGridPoints, ring_.n());
  prg::Prg::Stream stream = prg_.StreamForGridPoints(grid_requests_++);
  std::vector<gf::Elem> points;
  points.reserve(k);
  while (points.size() < k) {
    gf::Elem v = stream.NextElem(ring_.field());
    if (v != 0 && std::find(points.begin(), points.end(), v) == points.end()) {
      points.push_back(v);
    }
  }
  return points;
}

StatusOr<std::vector<gf::Elem>> ClientFilter::GridValues(
    const std::vector<uint32_t>& pres, const std::vector<uint64_t>& nonces,
    const std::vector<gf::Elem>& points) {
  const size_t k = points.size();
  ++stats_.server_calls;
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values,
                        server_->EvalGrid(pres, points));
  if (values.size() != pres.size() * k) {
    return Status::Internal("EvalGrid size mismatch");
  }
  std::vector<gf::PowerTable> tables;
  tables.reserve(k);
  for (gf::Elem v : points) tables.push_back(ring_.Powers(v));
  for (size_t r = 0; r < pres.size(); ++r) {
    const gf::RingElem share = prg_.ClientShare(ring_, nonces[r]);
    for (size_t j = 0; j < k; ++j) {
      values[r * k + j] = ring_.field().Add(values[r * k + j],
                                            ring_.EvalAt(tables[j], share));
    }
  }
  return values;
}

StatusOr<std::vector<size_t>> ClientFilter::RecoverAtGrid(
    const std::vector<NodeMeta>& nodes,
    const std::vector<std::vector<NodeMeta>>& child_lists,
    const std::vector<size_t>& which, std::vector<gf::Elem>* out) {
  const NodeSet set = CandidatesAndChildren(nodes, child_lists, which);
  const std::vector<gf::Elem> points = DrawGridPoints();
  const size_t k = points.size();
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> values,
                        GridValues(set.pres, set.nonces, points));

  const gf::Field& field = ring_.field();
  std::vector<size_t> vanished;
  std::vector<gf::Elem> node(k);
  std::vector<gf::Elem> prod(k);
  for (size_t i : which) {
    const size_t row = set.index.at(nodes[i].pre);
    std::copy_n(values.begin() + row * k, k, node.begin());
    std::fill(prod.begin(), prod.end(), 1);
    for (const NodeMeta& child : child_lists[i]) {
      const size_t c = set.index.at(child.pre);
      for (size_t j = 0; j < k; ++j) {
        prod[j] = field.Mul(prod[j], values[c * k + j]);
      }
    }
    SSDB_ASSIGN_OR_RETURN(std::optional<gf::Elem> t,
                          DivideAtPoints(field, points, node, prod));
    if (t.has_value()) {
      (*out)[i] = *t;
    } else {
      vanished.push_back(i);
    }
  }
  return vanished;
}

Status ClientFilter::RecoverFromShares(
    const std::vector<NodeMeta>& nodes,
    const std::vector<std::vector<NodeMeta>>& child_lists,
    const std::vector<size_t>& which, std::vector<gf::Elem>* out) {
  const NodeSet set = CandidatesAndChildren(nodes, child_lists, which);
  ++stats_.server_calls;
  stats_.shares_fetched += set.pres.size();
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::RingElem> server_shares,
                        server_->FetchShareBatch(set.pres));
  if (server_shares.size() != set.pres.size()) {
    return Status::Internal("FetchShareBatch size mismatch");
  }
  std::vector<gf::RingElem> polys;
  polys.reserve(set.pres.size());
  for (size_t r = 0; r < set.pres.size(); ++r) {
    gf::RingElem client_share = prg_.ClientShare(ring_, set.nonces[r]);
    polys.push_back(gf::Combine(ring_, client_share, server_shares[r]));
  }

  const gf::Field& field = ring_.field();
  const uint32_t n = ring_.n();
  for (size_t i : which) {
    const gf::RingElem& node_poly = polys[set.index.at(nodes[i].pre)];
    auto product_at = [&](gf::Elem v) {
      gf::Elem prod = 1;
      for (const NodeMeta& child : child_lists[i]) {
        prod = field.Mul(prod, ring_.Eval(polys[set.index.at(child.pre)], v));
        if (prod == 0) break;
      }
      return prod;
    };
    // Every point in full-verification mode; otherwise the first point
    // where the child product is non-zero and the kVerifyPoints after it.
    // The tag map's spare value (DESIGN.md §2) is always such a point.
    std::vector<gf::Elem> points;
    if (full_verification_) {
      points = evaluator_.points();
    } else {
      for (uint32_t first = 0; first < n && points.empty(); ++first) {
        if (product_at(evaluator_.point(first)) == 0) continue;
        for (uint32_t j = 0; j <= kVerifyPoints && j < n; ++j) {
          points.push_back(evaluator_.point((first + j) % n));
        }
      }
    }
    std::vector<gf::Elem> node_values;
    std::vector<gf::Elem> prod_values;
    for (gf::Elem v : points) {
      node_values.push_back(ring_.Eval(node_poly, v));
      prod_values.push_back(product_at(v));
    }
    SSDB_ASSIGN_OR_RETURN(
        std::optional<gf::Elem> t,
        DivideAtPoints(field, points, node_values, prod_values));
    if (!t.has_value()) {
      return Status::FailedPrecondition(
          "equality test: child product vanishes at every point (tag map "
          "has no spare value?)");
    }
    (*out)[i] = *t;
  }
  return Status::OK();
}

StatusOr<std::vector<gf::Elem>> ClientFilter::RecoverOwnValueBatch(
    const std::vector<NodeMeta>& nodes) {
  if (nodes.empty()) return std::vector<gf::Elem>{};
  TripScope trips(this);
  stats_.equality_tests += nodes.size();

  // Exchange 1: children of every candidate.
  ++stats_.server_calls;
  std::vector<uint32_t> pres;
  pres.reserve(nodes.size());
  for (const NodeMeta& node : nodes) pres.push_back(node.pre);
  SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<NodeMeta>> child_lists,
                        server_->ChildrenBatch(pres));
  if (child_lists.size() != nodes.size()) {
    return Status::Internal("ChildrenBatch size mismatch");
  }

  // Each candidate's path is fixed from public data before any reply is
  // seen (DESIGN.md §3): whole vectors in full-verification mode and for
  // the document root, whose children hold most tags; the grid otherwise.
  std::vector<size_t> grid;
  std::vector<size_t> whole;
  for (size_t i = 0; i < nodes.size(); ++i) {
    stats_.evaluations += 1 + child_lists[i].size();
    stats_.batched_evaluations += 1 + child_lists[i].size();
    (full_verification_ || nodes[i].parent == 0 ? whole : grid).push_back(i);
  }
  std::vector<gf::Elem> out(nodes.size(), 0);
  // Exchange 2: the grid. A candidate whose child product vanished at
  // every drawn point falls back to whole vectors, the one path a reply
  // chooses.
  if (!grid.empty()) {
    SSDB_ASSIGN_OR_RETURN(std::vector<size_t> vanished,
                          RecoverAtGrid(nodes, child_lists, grid, &out));
    whole.insert(whole.end(), vanished.begin(), vanished.end());
  }
  // Exchange 3: whole vectors, one fetch for every candidate that needs
  // them.
  if (!whole.empty()) {
    SSDB_RETURN_IF_ERROR(RecoverFromShares(nodes, child_lists, whole, &out));
  }
  return out;
}

StatusOr<std::vector<uint8_t>> ClientFilter::EqualsValueBatch(
    const std::vector<NodeMeta>& nodes, gf::Elem t) {
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> own,
                        RecoverOwnValueBatch(nodes));
  std::vector<uint8_t> out(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    out[i] = (own[i] == t) ? 1 : 0;
  }
  return out;
}

StatusOr<gf::Elem> ClientFilter::RecoverOwnValue(const NodeMeta& node) {
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> out,
                        RecoverOwnValueBatch({node}));
  return out[0];
}

StatusOr<bool> ClientFilter::EqualsValue(const NodeMeta& node, gf::Elem t) {
  SSDB_ASSIGN_OR_RETURN(gf::Elem own, RecoverOwnValue(node));
  return own == t;
}

StatusOr<ClientFilter::RevealedNode> ClientFilter::Reveal(
    const NodeMeta& node) {
  TripScope trips(this);
  ++stats_.server_calls;
  SSDB_ASSIGN_OR_RETURN(std::string sealed, server_->FetchSealed(node.pre));
  if (sealed.empty()) {
    return Status::FailedPrecondition(
        "node has no sealed payload (database encoded without "
        "seal_content)");
  }
  std::string plaintext = prg_.UnsealPayload(node.ShareNonce(), sealed);
  size_t split = plaintext.find('\n');
  if (split == std::string::npos) {
    return Status::Corruption("sealed payload malformed after decryption");
  }
  RevealedNode revealed;
  revealed.name = plaintext.substr(0, split);
  revealed.text = plaintext.substr(split + 1);
  return revealed;
}

}  // namespace ssdb::filter
