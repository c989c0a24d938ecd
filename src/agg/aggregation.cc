#include "agg/aggregation.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace ssdb::agg {

using filter::NodeMeta;
using query::Aggregate;
using query::MatchMode;
using query::Step;

uint64_t Result::Total() const {
  uint64_t total = 0;
  for (uint64_t value : values) total += value;
  return total;
}

uint8_t ColumnsFor(Aggregate fn, MatchMode mode, Slot slot) {
  // COUNT and EXISTS read the indicator families; SUM reads the occurrence
  // families, using the identities of agg/columns.h:
  //   mult(v)                 = kEqualSelf + kEqualDesc
  //   Σ_children mult         = kEqualDesc
  // In equality mode a match contributes exactly its own tag occurrence,
  // so SUM degenerates to COUNT by construction (DESIGN.md §8).
  bool contain = mode == MatchMode::kContainment;
  if (fn == Aggregate::kSum && contain) {
    switch (slot) {
      case Slot::kSelf:
        return ColBit(Col::kEqualSelf) | ColBit(Col::kEqualDesc);
      case Slot::kChild:
        return ColBit(Col::kEqualDesc);
      case Slot::kDesc:
        return ColBit(Col::kMultDesc);
      case Slot::kSelfAndDesc:
        return ColBit(Col::kEqualSelf) | ColBit(Col::kEqualDesc) |
               ColBit(Col::kMultDesc);
    }
  }
  Col self = contain ? Col::kContainSelf : Col::kEqualSelf;
  Col child = contain ? Col::kContainChild : Col::kEqualChild;
  Col desc = contain ? Col::kContainDesc : Col::kEqualDesc;
  switch (slot) {
    case Slot::kSelf:
      return ColBit(self);
    case Slot::kChild:
      return ColBit(child);
    case Slot::kDesc:
      return ColBit(desc);
    case Slot::kSelfAndDesc:
      return ColBit(self) | ColBit(desc);
  }
  return 0;
}

StatusOr<Result> AggregationEngine::RunPlan(const Plan& plan) {
  Result result;
  result.fn = plan.fn;
  result.group_by = plan.group_by;
  result.group_names = plan.group_names;
  result.values.assign(
      std::max(plan.group_names.size(), plan.value_indexes.size()), 0);
  if (plan.frontier.empty() || plan.value_indexes.empty()) {
    // Empty frontier or an unmapped tag: every group aggregates to zero,
    // which needs no proof to trust.
    result.verified = plan.verify;
    return result;
  }
  Spec spec;
  spec.columns = plan.columns;
  spec.value_indexes = plan.value_indexes;
  spec.value_count = static_cast<uint32_t>(map_->size());
  spec.pres.reserve(plan.frontier.size());
  spec.nonces.reserve(plan.frontier.size());
  for (const NodeMeta& node : plan.frontier) {
    spec.pres.push_back(node.pre);
    spec.nonces.push_back(node.nonce);  // 0 = unmutated (DESIGN.md §12)
  }
  if (plan.verify) {
    SSDB_ASSIGN_OR_RETURN(filter::ClientFilter::VerifiedAggregate verified,
                          filter_->AggregateVerified(spec));
    for (size_t g = 0; g < verified.totals.size(); ++g) {
      result.values[g] = verified.totals[g];
    }
    result.verified = true;
    result.proof_words = verified.proof_words;
    return result;
  }
  SSDB_ASSIGN_OR_RETURN(std::vector<Word> words, filter_->Aggregate(spec));
  for (size_t g = 0; g < words.size(); ++g) {
    result.values[g] = words[g];
  }
  return result;
}

StatusOr<Result> AggregationEngine::Execute(query::QueryEngine* engine,
                                            const query::Query& query,
                                            MatchMode mode,
                                            query::QueryStats* stats) {
  if (query.aggregate == Aggregate::kNone) {
    return Status::InvalidArgument(
        "query has no aggregate form: " + query.text);
  }
  if (query.steps.empty()) {
    return Status::InvalidArgument("aggregate of an empty path");
  }
  Stopwatch watch;
  filter::EvalStats before = filter_->stats();

  const Step& final = query.steps.back();
  // Final steps outside the column algebra: materialize and reduce. Exact,
  // just without the O(1)-response win.
  bool fast = final.predicate.empty() && final.kind != Step::Kind::kParent;
  if (final.kind == Step::Kind::kParent &&
      query.aggregate == Aggregate::kSum) {
    return Status::InvalidArgument(
        "sum() needs a named or wildcard final step: " + query.text);
  }

  // Groups: one for a named final step, one per mapped tag for '*'. A
  // named tag outside the map can never match — the plan keeps its group
  // with no value index and RunPlan reports zero.
  Plan plan;
  plan.fn = query.aggregate;
  plan.verify = verify_;
  if (final.kind == Step::Kind::kName) {
    plan.group_names = {final.name};
    StatusOr<gf::Elem> value = map_->Lookup(final.name);
    if (value.ok()) {
      SSDB_ASSIGN_OR_RETURN(uint32_t index, map_->ValueIndex(*value));
      plan.value_indexes = {index};
    }
  } else if (final.kind == Step::Kind::kWildcard) {
    plan.group_by = true;
    for (uint32_t i = 0; i < map_->size(); ++i) {
      SSDB_ASSIGN_OR_RETURN(std::string name, map_->NameAt(i));
      plan.value_indexes.push_back(i);
      plan.group_names.push_back(std::move(name));
    }
  }

  StatusOr<Result> result = Status::Internal("unset");
  if (!fast) {
    // The materialized result set is the frontier; a kSelf fold turns it
    // into the same counts/sums/histograms the fast path computes.
    query::QueryStats sub_stats;
    SSDB_ASSIGN_OR_RETURN(plan.frontier,
                          engine->Execute(query, mode, &sub_stats));
    if (stats != nullptr) {
      stats->candidates_examined = sub_stats.candidates_examined;
    }
    if (final.kind == Step::Kind::kParent) {
      // '..' has no tag to fold on; COUNT/EXISTS are local to the client.
      Result local;
      local.fn = query.aggregate;
      local.group_names = {".."};
      local.values = {plan.frontier.size()};
      result = local;
    } else {
      plan.columns = ColumnsFor(query.aggregate, mode, Slot::kSelf);
      result = RunPlan(plan);
    }
  } else {
    // Frontier = candidates after the prefix steps; the engine (simple or
    // advanced) runs them under the requested match mode. A single-step
    // aggregate folds over the document root instead.
    Slot slot;
    if (query.steps.size() == 1) {
      SSDB_ASSIGN_OR_RETURN(NodeMeta root, filter_->Root());
      plan.frontier = {root};
      slot = final.axis == Step::Axis::kDescendant ? Slot::kSelfAndDesc
                                                   : Slot::kSelf;
    } else {
      query::Query prefix;
      prefix.steps.assign(query.steps.begin(), query.steps.end() - 1);
      prefix.text = query::QueryToString(prefix);
      query::QueryStats prefix_stats;
      SSDB_ASSIGN_OR_RETURN(plan.frontier,
                            engine->Execute(prefix, mode, &prefix_stats));
      if (stats != nullptr) {
        stats->candidates_examined = prefix_stats.candidates_examined;
      }
      slot = final.axis == Step::Axis::kDescendant ? Slot::kDesc
                                                   : Slot::kChild;
    }
    if (slot == Slot::kDesc || slot == Slot::kSelfAndDesc) {
      plan.frontier = CoveringSet(std::move(plan.frontier));
    } else {
      query::internal::Canonicalize(&plan.frontier);
    }
    plan.columns = ColumnsFor(query.aggregate, mode, slot);
    result = RunPlan(plan);
  }
  SSDB_RETURN_IF_ERROR(result.status());

  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
    // Aggregates materialize groups, not nodes: result_size counts groups.
    stats->result_size = result->values.size();
    query::internal::FillStatsDelta(before, filter_->stats(), stats);
  }
  return result;
}

}  // namespace ssdb::agg
