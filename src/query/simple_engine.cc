#include "query/simple_engine.h"

#include "util/stopwatch.h"

namespace ssdb::query {

using filter::NodeMeta;

StatusOr<std::vector<NodeMeta>> SimpleEngine::Execute(const Query& query,
                                                      MatchMode mode,
                                                      QueryStats* stats) {
  Stopwatch watch;
  filter::EvalStats before = filter_->stats();

  SSDB_ASSIGN_OR_RETURN(NodeMeta root, filter_->Root());
  // Steps run from the virtual document node, whose only child is the root.
  SSDB_ASSIGN_OR_RETURN(
      std::vector<NodeMeta> result,
      RunSteps(query.steps, {root}, /*from_document_root=*/true, mode,
               stats));

  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
    stats->result_size = result.size();
    // Delta of the filter's counters over this query.
    internal::FillStatsDelta(before, filter_->stats(), stats);
  }
  return result;
}

StatusOr<std::vector<NodeMeta>> SimpleEngine::RunSteps(
    const std::vector<Step>& steps, std::vector<NodeMeta> candidates,
    bool from_document_root, MatchMode mode, QueryStats* stats) {
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    bool first = (i == 0);

    // 1. Structural expansion, off the client's skeleton: no exchange
    // (DESIGN.md §6).
    if (step.kind == Step::Kind::kParent) {
      // The root has no parent and drops out; no name filtering on '..'.
      SSDB_ASSIGN_OR_RETURN(candidates, filter_->Parents(candidates));
      continue;
    }
    std::vector<NodeMeta> expanded;
    if (first && from_document_root) {
      // From the virtual document node: '/x' sees only the root as a child;
      // '//x' sees the root and everything below it.
      expanded = candidates;
      if (step.axis == Step::Axis::kDescendant) {
        SSDB_ASSIGN_OR_RETURN(std::vector<NodeMeta> descendants,
                              filter_->DescendantsBatch(candidates));
        expanded.insert(expanded.end(), descendants.begin(),
                        descendants.end());
      }
    } else if (step.axis == Step::Axis::kChild) {
      SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<NodeMeta>> child_lists,
                            filter_->ChildrenBatch(candidates));
      for (std::vector<NodeMeta>& children : child_lists) {
        expanded.insert(expanded.end(), children.begin(), children.end());
      }
    } else {
      SSDB_ASSIGN_OR_RETURN(expanded, filter_->DescendantsBatch(candidates));
    }
    internal::Canonicalize(&expanded);
    if (stats != nullptr) stats->candidates_examined += expanded.size();

    // 2. Name filtering: one test per candidate (§5.3 SimpleQuery), issued
    // as a single step-level batch — one server exchange for the whole set.
    std::vector<NodeMeta> filtered;
    if (step.kind == Step::Kind::kWildcard) {
      filtered = std::move(expanded);
    } else {
      StatusOr<gf::Elem> value = map_->Lookup(step.name);
      if (!value.ok()) {
        // A name outside the map can never match (the map covers the DTD).
        candidates.clear();
        return candidates;
      }
      SSDB_ASSIGN_OR_RETURN(
          filtered,
          internal::TestNodes(filter_, std::move(expanded), *value, mode));
    }

    // 3. Predicate filtering (existence of the relative sub-path), run for
    // the whole set at once.
    if (!step.predicate.empty()) {
      SSDB_ASSIGN_OR_RETURN(
          filtered,
          internal::FilterByPredicate(
              std::move(filtered), step.predicate,
              [&](std::vector<NodeMeta> origins) {
                return RunSteps(step.predicate, std::move(origins),
                                /*from_document_root=*/false, mode, stats);
              }));
    }

    candidates = std::move(filtered);
    if (candidates.empty()) break;
  }
  return candidates;
}

}  // namespace ssdb::query
