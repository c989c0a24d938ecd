#include "query/advanced_engine.h"

#include "util/stopwatch.h"

namespace ssdb::query {

using filter::NodeMeta;

StatusOr<std::vector<NodeMeta>> AdvancedEngine::Execute(const Query& query,
                                                        MatchMode mode,
                                                        QueryStats* stats) {
  Stopwatch watch;
  filter::EvalStats before = filter_->stats();

  SSDB_ASSIGN_OR_RETURN(NodeMeta root, filter_->Root());
  SSDB_ASSIGN_OR_RETURN(
      std::vector<NodeMeta> result,
      RunSteps(query.steps, {root}, /*from_document_root=*/true, mode,
               stats));

  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
    stats->result_size = result.size();
    internal::FillStatsDelta(before, filter_->stats(), stats);
  }
  return result;
}

std::vector<gf::Elem> AdvancedEngine::LookaheadValues(
    const std::vector<Step>& steps, size_t from, bool* absent_name) const {
  std::vector<gf::Elem> values;
  *absent_name = false;
  for (size_t i = from; i < steps.size(); ++i) {
    const Step& step = steps[i];
    if (step.kind == Step::Kind::kParent) break;  // pruning unsound past '..'
    if (step.kind != Step::Kind::kName) continue;
    StatusOr<gf::Elem> value = map_->Lookup(step.name);
    if (!value.ok()) {
      *absent_name = true;
      return values;
    }
    values.push_back(*value);
  }
  return values;
}

StatusOr<std::vector<NodeMeta>> AdvancedEngine::FilterByLookahead(
    std::vector<NodeMeta> nodes, const std::vector<gf::Elem>& values) {
  if (nodes.empty() || values.empty()) return nodes;
  SSDB_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                        filter_->ContainsAllValuesBatch(nodes, values));
  return internal::ApplyMask(std::move(nodes), mask);
}

StatusOr<std::vector<NodeMeta>> AdvancedEngine::RunSteps(
    const std::vector<Step>& steps, std::vector<NodeMeta> candidates,
    bool from_document_root, MatchMode mode, QueryStats* stats) {
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    bool first = (i == 0);

    // The look-ahead: values of every later named step. `lookahead_rest`
    // excludes the current step.
    bool absent = false;
    std::vector<gf::Elem> lookahead_rest = LookaheadValues(steps, i + 1,
                                                           &absent);
    if (absent) return std::vector<NodeMeta>{};

    if (step.kind == Step::Kind::kParent) {
      // One exchange for the whole set; the root drops out.
      SSDB_ASSIGN_OR_RETURN(candidates, filter_->Parents(candidates));
      continue;
    }

    gf::Elem value = 0;
    if (step.kind == Step::Kind::kName) {
      StatusOr<gf::Elem> mapped = map_->Lookup(step.name);
      if (!mapped.ok()) return std::vector<NodeMeta>{};
      value = *mapped;
    }

    std::vector<NodeMeta> next;
    if (step.axis == Step::Axis::kChild) {
      // Step-level batching: expand the whole candidate set in one
      // exchange, name-test the pool in one batch, then apply the
      // look-ahead to the survivors (one grid for all remaining values).
      std::vector<NodeMeta> pool;
      if (first && from_document_root) {
        // The root is the document node's only child: test it in place.
        pool = candidates;
      } else {
        SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<NodeMeta>> child_lists,
                              filter_->ChildrenBatch(candidates));
        for (std::vector<NodeMeta>& children : child_lists) {
          pool.insert(pool.end(), children.begin(), children.end());
        }
      }
      if (stats != nullptr) stats->candidates_examined += pool.size();
      if (step.kind == Step::Kind::kName) {
        SSDB_ASSIGN_OR_RETURN(
            pool, internal::TestNodes(filter_, std::move(pool), value, mode));
      }
      SSDB_ASSIGN_OR_RETURN(
          next, FilterByLookahead(std::move(pool), lookahead_rest));
    } else if (step.kind == Step::Kind::kWildcard) {
      // No tag to prune on: expand all descendants (plus the node itself
      // when stepping from the virtual document node, whose descendants
      // include the root), filter by look-ahead in one batch.
      SSDB_ASSIGN_OR_RETURN(std::vector<NodeMeta> pool,
                            filter_->DescendantsBatch(candidates));
      if (first && from_document_root) {
        pool.insert(pool.end(), candidates.begin(), candidates.end());
      }
      internal::Canonicalize(&pool);
      if (stats != nullptr) stats->candidates_examined += pool.size();
      SSDB_ASSIGN_OR_RETURN(
          next, FilterByLookahead(std::move(pool), lookahead_rest));
    } else {
      // Named descendant step: pruned level-order search.
      if (first && from_document_root) {
        // '//x' from the document node may match the root itself. One
        // containment batch serves both the self-test and root pruning.
        if (stats != nullptr) stats->candidates_examined += candidates.size();
        SSDB_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                              filter_->ContainsValueBatch(candidates, value));
        std::vector<NodeMeta> roots =
            internal::ApplyMask(std::move(candidates), mask);
        SSDB_ASSIGN_OR_RETURN(std::vector<NodeMeta> self_matches,
                              FilterByLookahead(roots, lookahead_rest));
        if (mode == MatchMode::kEquality && !self_matches.empty()) {
          SSDB_ASSIGN_OR_RETURN(
              std::vector<uint8_t> eq_mask,
              filter_->EqualsValueBatch(self_matches, value));
          self_matches =
              internal::ApplyMask(std::move(self_matches), eq_mask);
        }
        next.insert(next.end(), self_matches.begin(), self_matches.end());
        SSDB_RETURN_IF_ERROR(DescendantSearch(roots, value, lookahead_rest,
                                              mode, stats, &next));
      } else {
        SSDB_RETURN_IF_ERROR(DescendantSearch(candidates, value,
                                              lookahead_rest, mode, stats,
                                              &next));
      }
    }
    internal::Canonicalize(&next);

    // Predicate filtering (relative sub-path existence), run for the whole
    // set at once.
    if (!step.predicate.empty()) {
      SSDB_ASSIGN_OR_RETURN(
          next, internal::FilterByPredicate(
                    std::move(next), step.predicate,
                    [&](std::vector<NodeMeta> origins) {
                      return RunSteps(step.predicate, std::move(origins),
                                      /*from_document_root=*/false, mode,
                                      stats);
                    }));
    }

    candidates = std::move(next);
    if (candidates.empty()) break;
  }
  return candidates;
}

Status AdvancedEngine::DescendantSearch(
    const std::vector<NodeMeta>& roots, gf::Elem value,
    const std::vector<gf::Elem>& lookahead, MatchMode mode,
    QueryStats* stats, std::vector<NodeMeta>* out) {
  // Walk downwards level by level while subtrees still contain `value`
  // (§5.3 "//city"). Each level is three batched exchanges — children,
  // containment, look-ahead (plus equality in strict mode) — so the cost in
  // round trips is bounded by the tree depth, never the branch count.
  std::vector<NodeMeta> frontier = roots;
  internal::Canonicalize(&frontier);
  while (!frontier.empty()) {
    SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<NodeMeta>> child_lists,
                          filter_->ChildrenBatch(frontier));
    std::vector<NodeMeta> level;
    for (std::vector<NodeMeta>& children : child_lists) {
      level.insert(level.end(), children.begin(), children.end());
    }
    internal::Canonicalize(&level);
    if (level.empty()) break;
    if (stats != nullptr) stats->candidates_examined += level.size();

    // Prune dead branches: only children whose subtree still contains the
    // value survive (and only they are descended into).
    SSDB_ASSIGN_OR_RETURN(std::vector<uint8_t> contains_mask,
                          filter_->ContainsValueBatch(level, value));
    std::vector<NodeMeta> survivors =
        internal::ApplyMask(std::move(level), contains_mask);

    // Matches at this level: survivors that can also complete the rest of
    // the query (and, in strict mode, whose own tag is the value).
    SSDB_ASSIGN_OR_RETURN(std::vector<NodeMeta> matches,
                          FilterByLookahead(survivors, lookahead));
    if (mode == MatchMode::kEquality && !matches.empty()) {
      SSDB_ASSIGN_OR_RETURN(std::vector<uint8_t> eq_mask,
                            filter_->EqualsValueBatch(matches, value));
      matches = internal::ApplyMask(std::move(matches), eq_mask);
    }
    out->insert(out->end(), matches.begin(), matches.end());

    frontier = std::move(survivors);
  }
  return Status::OK();
}

}  // namespace ssdb::query
