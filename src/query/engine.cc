#include "query/engine.h"

#include <algorithm>

namespace ssdb::query {

std::string_view MatchModeName(MatchMode mode) {
  return mode == MatchMode::kContainment ? "non-strict" : "strict";
}

namespace internal {

void Canonicalize(std::vector<filter::NodeMeta>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const filter::NodeMeta& a, const filter::NodeMeta& b) {
              return a.pre < b.pre;
            });
  nodes->erase(std::unique(nodes->begin(), nodes->end(),
                           [](const filter::NodeMeta& a,
                              const filter::NodeMeta& b) {
                             return a.pre == b.pre;
                           }),
               nodes->end());
}

StatusOr<std::vector<filter::NodeMeta>> TestNodes(
    filter::ClientFilter* filter, std::vector<filter::NodeMeta> nodes,
    gf::Elem value, MatchMode mode) {
  if (nodes.empty()) return nodes;
  std::vector<uint8_t> mask;
  if (mode == MatchMode::kContainment) {
    SSDB_ASSIGN_OR_RETURN(mask, filter->ContainsValueBatch(nodes, value));
  } else {
    SSDB_ASSIGN_OR_RETURN(mask, filter->EqualsValueBatch(nodes, value));
  }
  return ApplyMask(std::move(nodes), mask);
}

namespace {

// Splits pre-sorted, duplicate-free nodes into layers by how many of the
// other nodes are their ancestors; no layer holds two nested nodes, and
// each layer stays sorted by pre.
std::vector<std::vector<filter::NodeMeta>> NestingLayers(
    const std::vector<filter::NodeMeta>& nodes) {
  std::vector<std::vector<filter::NodeMeta>> layers;
  std::vector<uint32_t> open_posts;  // the current node's ancestors
  for (const filter::NodeMeta& node : nodes) {
    while (!open_posts.empty() && open_posts.back() < node.post) {
      open_posts.pop_back();
    }
    if (layers.size() <= open_posts.size()) layers.emplace_back();
    layers[open_posts.size()].push_back(node);
    open_posts.push_back(node.post);
  }
  return layers;
}

// Whether a sub-path can leave its origin's subtree: at some step its
// '..' steps outnumber the steps down ('//' descends at least one level).
bool LeavesOrigin(const std::vector<Step>& path) {
  int depth = 0;
  for (const Step& step : path) {
    depth += step.kind == Step::Kind::kParent ? -1 : 1;
    if (depth < 0) return true;
  }
  return false;
}

}  // namespace

StatusOr<std::vector<filter::NodeMeta>> FilterByPredicate(
    std::vector<filter::NodeMeta> nodes, const std::vector<Step>& predicate,
    const SubPathRunner& run) {
  std::vector<filter::NodeMeta> kept;
  if (LeavesOrigin(predicate)) {
    for (const filter::NodeMeta& node : nodes) {
      SSDB_ASSIGN_OR_RETURN(std::vector<filter::NodeMeta> hits, run({node}));
      if (!hits.empty()) kept.push_back(node);
    }
    return kept;
  }
  Canonicalize(&nodes);
  for (std::vector<filter::NodeMeta>& layer : NestingLayers(nodes)) {
    SSDB_ASSIGN_OR_RETURN(std::vector<filter::NodeMeta> hits, run(layer));
    std::vector<uint8_t> credited(layer.size(), 0);
    for (const filter::NodeMeta& hit : hits) {
      // The last origin at or before the hit in pre order is the only one
      // whose subtree (itself included) can hold it.
      auto origin = std::upper_bound(
          layer.begin(), layer.end(), hit.pre,
          [](uint32_t pre, const filter::NodeMeta& node) {
            return pre < node.pre;
          });
      if (origin == layer.begin()) continue;
      --origin;
      if (hit.post <= origin->post) credited[origin - layer.begin()] = 1;
    }
    std::vector<filter::NodeMeta> layer_kept =
        ApplyMask(std::move(layer), credited);
    kept.insert(kept.end(), layer_kept.begin(), layer_kept.end());
  }
  Canonicalize(&kept);
  return kept;
}

std::vector<filter::NodeMeta> ApplyMask(std::vector<filter::NodeMeta> nodes,
                                        const std::vector<uint8_t>& mask) {
  std::vector<filter::NodeMeta> kept;
  kept.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size() && i < mask.size(); ++i) {
    if (mask[i]) kept.push_back(nodes[i]);
  }
  return kept;
}

void FillStatsDelta(const filter::EvalStats& before,
                    const filter::EvalStats& after, QueryStats* stats) {
  stats->eval.evaluations = after.evaluations - before.evaluations;
  stats->eval.containment_tests =
      after.containment_tests - before.containment_tests;
  stats->eval.equality_tests = after.equality_tests - before.equality_tests;
  stats->eval.shares_fetched = after.shares_fetched - before.shares_fetched;
  stats->eval.nodes_visited = after.nodes_visited - before.nodes_visited;
  stats->eval.server_calls = after.server_calls - before.server_calls;
  stats->eval.round_trips = after.round_trips - before.round_trips;
  stats->eval.batched_evaluations =
      after.batched_evaluations - before.batched_evaluations;
  stats->eval.aggregate_ops = after.aggregate_ops - before.aggregate_ops;
  stats->eval.verified_aggregate_ops =
      after.verified_aggregate_ops - before.verified_aggregate_ops;
  stats->eval.proof_words = after.proof_words - before.proof_words;
  stats->eval.straggler_seconds =
      after.straggler_seconds - before.straggler_seconds;
  stats->eval.per_server_round_trips.assign(
      after.per_server_round_trips.size(), 0);
  for (size_t i = 0; i < after.per_server_round_trips.size(); ++i) {
    uint64_t prior = i < before.per_server_round_trips.size()
                         ? before.per_server_round_trips[i]
                         : 0;
    stats->eval.per_server_round_trips[i] =
        after.per_server_round_trips[i] - prior;
  }
}

}  // namespace internal
}  // namespace ssdb::query
