#include "filter/client_filter.h"

#include <algorithm>
#include <cstdint>
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
  TripScope trips(this);
  // One client-share regeneration per node, reused across all values; one
  // server exchange per value, shrinking to the still-alive subset.
  std::vector<gf::RingElem> client_shares;
  client_shares.reserve(nodes.size());
  for (const NodeMeta& node : nodes) {
    client_shares.push_back(prg_.ClientShare(ring_, node.ShareNonce()));
  }
  for (gf::Elem value : values) {
    std::vector<size_t> indices;
    std::vector<uint32_t> pres;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (alive[i]) {
        indices.push_back(i);
        pres.push_back(nodes[i].pre);
      }
    }
    if (pres.empty()) break;
    stats_.containment_tests += pres.size();
    stats_.evaluations += pres.size();
    stats_.batched_evaluations += pres.size();
    ++stats_.server_calls;
    SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> server_values,
                          server_->EvalAtBatch(pres, value));
    if (server_values.size() != pres.size()) {
      return Status::Internal("EvalAtBatch size mismatch");
    }
    const gf::PowerTable powers = ring_.Powers(value);
    for (size_t j = 0; j < indices.size(); ++j) {
      gf::Elem sum = ring_.field().Add(
          server_values[j], ring_.EvalAt(powers, client_shares[indices[j]]));
      if (sum != 0) alive[indices[j]] = 0;
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
  if (values.empty()) return true;
  if (values.size() == 1) return ContainsValue(node, values[0]);
  TripScope trips(this);
  // One share regeneration + one (batched) server exchange for all points.
  stats_.containment_tests += values.size();
  stats_.evaluations += values.size();
  stats_.batched_evaluations += values.size();
  ++stats_.server_calls;
  gf::RingElem client_share = prg_.ClientShare(ring_, node.ShareNonce());
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::Elem> server_values,
                        server_->EvalPointsBatch(node.pre, values));
  if (server_values.size() != values.size()) {
    return Status::Internal("EvalPointsBatch size mismatch");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    gf::Elem sum = ring_.field().Add(server_values[i],
                                     ring_.Eval(client_share, values[i]));
    if (sum != 0) return false;
  }
  return true;
}

StatusOr<gf::RingElem> ClientFilter::ReconstructPoly(const NodeMeta& node) {
  TripScope trips(this);
  ++stats_.server_calls;
  ++stats_.shares_fetched;
  SSDB_ASSIGN_OR_RETURN(gf::RingElem server_share,
                        server_->FetchShare(node.pre));
  gf::RingElem client_share = prg_.ClientShare(ring_, node.ShareNonce());
  return gf::Combine(ring_, client_share, server_share);
}

StatusOr<gf::Elem> ClientFilter::RecoverFromPolys(
    const gf::RingElem& node_poly,
    const std::vector<gf::RingElem>& child_polys) {
  // The node's own factor is node(x) / prod(children). The quotient ring
  // has zero divisors, so the division happens in the evaluation domain (a
  // ring isomorphism; see DESIGN.md §3): find a point v where the child
  // product is non-zero, then t = v - node(v)/prod(v).
  //
  // Cost: O(n * children) field operations — Horner at a handful of points
  // rather than a full transform. The division is verified at
  // kVerifyPoints further points (every point in full-verification mode);
  // any mismatch means the stored shares are inconsistent.
  constexpr uint32_t kVerifyPoints = 4;
  const gf::Field& field = ring_.field();

  auto product_at = [&](gf::Elem v) {
    gf::Elem prod = 1;
    for (const gf::RingElem& child : child_polys) {
      prod = field.Mul(prod, ring_.Eval(child, v));
      if (prod == 0) break;
    }
    return prod;
  };

  // Find a point where the child product is non-zero. One always exists
  // when the tag map leaves a spare non-zero value (mapping::TagMap
  // enforces this).
  gf::Elem t = 0;
  uint32_t good = ring_.n();
  for (uint32_t i = 0; i < ring_.n(); ++i) {
    gf::Elem v = evaluator_.point(i);
    gf::Elem prod = product_at(v);
    if (prod == 0) continue;
    good = i;
    t = field.Sub(v, field.Div(ring_.Eval(node_poly, v), prod));
    break;
  }
  if (good == ring_.n()) {
    return Status::FailedPrecondition(
        "equality test: child product vanishes at every point (tag map has "
        "no spare value?)");
  }

  // Verify node(x) == (x - t) * prod(children) at further points.
  uint32_t checks = full_verification_ ? ring_.n() : kVerifyPoints;
  for (uint32_t j = 1; j <= checks && j < ring_.n(); ++j) {
    gf::Elem w = evaluator_.point((good + j) % ring_.n());
    gf::Elem lhs = ring_.Eval(node_poly, w);
    gf::Elem rhs = field.Mul(field.Sub(w, t), product_at(w));
    if (lhs != rhs) {
      return Status::Corruption(
          "equality test: node polynomial is not (x - t) * children "
          "product; shares are inconsistent");
    }
  }
  return t;
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

  // Exchange 2: every needed share (node + children), fetched once even
  // when candidates overlap.
  std::vector<uint32_t> unique;
  std::vector<uint64_t> unique_nonces;  // parallel; PRG keys (§12)
  std::unordered_map<uint32_t, size_t> index;
  auto intern = [&](const NodeMeta& node) {
    auto [it, inserted] = index.emplace(node.pre, unique.size());
    if (inserted) {
      unique.push_back(node.pre);
      unique_nonces.push_back(node.ShareNonce());
    }
    return it->second;
  };
  for (size_t i = 0; i < nodes.size(); ++i) {
    intern(nodes[i]);
    for (const NodeMeta& child : child_lists[i]) intern(child);
  }
  ++stats_.server_calls;
  stats_.shares_fetched += unique.size();
  SSDB_ASSIGN_OR_RETURN(std::vector<gf::RingElem> server_shares,
                        server_->FetchShareBatch(unique));
  if (server_shares.size() != unique.size()) {
    return Status::Internal("FetchShareBatch size mismatch");
  }

  // Reconstruct each distinct polynomial once, then run the local
  // evaluation-domain division per candidate.
  std::vector<gf::RingElem> polys;
  polys.reserve(unique.size());
  for (size_t i = 0; i < unique.size(); ++i) {
    gf::RingElem client_share = prg_.ClientShare(ring_, unique_nonces[i]);
    polys.push_back(gf::Combine(ring_, client_share, server_shares[i]));
  }

  std::vector<gf::Elem> out;
  out.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const gf::RingElem& node_poly = polys[index[nodes[i].pre]];
    std::vector<gf::RingElem> child_polys;
    child_polys.reserve(child_lists[i].size());
    for (const NodeMeta& child : child_lists[i]) {
      child_polys.push_back(polys[index[child.pre]]);
    }
    stats_.evaluations += 1 + child_polys.size();
    stats_.batched_evaluations += 1 + child_polys.size();
    SSDB_ASSIGN_OR_RETURN(gf::Elem t,
                          RecoverFromPolys(node_poly, child_polys));
    out.push_back(t);
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
