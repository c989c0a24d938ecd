// Common query-engine interface and shared machinery for the two search
// strategies of §5.3 (SimpleQuery and AdvancedQuery).
//
// MatchMode selects the §6.3 strictness:
//   kContainment (non-strict) — cheap subtree test; result is a superset.
//   kEquality    (strict)     — exact tag test via polynomial division.

#ifndef SSDB_QUERY_ENGINE_H_
#define SSDB_QUERY_ENGINE_H_

#include <functional>
#include <string_view>
#include <vector>

#include "filter/client_filter.h"
#include "mapping/tag_map.h"
#include "query/xpath.h"
#include "util/statusor.h"

namespace ssdb::query {

enum class MatchMode {
  kContainment,  // non-strict
  kEquality,     // strict
};

std::string_view MatchModeName(MatchMode mode);

struct QueryStats {
  filter::EvalStats eval;          // delta over the query's execution
  uint64_t result_size = 0;
  uint64_t candidates_examined = 0;
  double seconds = 0.0;
};

class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  virtual std::string_view name() const = 0;

  // Runs an absolute query; the result is the candidate set after the final
  // step, sorted by pre. `stats` may be null.
  virtual StatusOr<std::vector<filter::NodeMeta>> Execute(
      const Query& query, MatchMode mode, QueryStats* stats) = 0;
};

namespace internal {

// Sorts by pre and removes duplicates.
void Canonicalize(std::vector<filter::NodeMeta>* nodes);

// Filters a whole candidate set against a mapped tag value under the given
// mode — the step-level primitive of the batched pipeline: one joint server
// exchange for containment, two for equality, independent of the number of
// candidates.
StatusOr<std::vector<filter::NodeMeta>> TestNodes(
    filter::ClientFilter* filter, std::vector<filter::NodeMeta> nodes,
    gf::Elem value, MatchMode mode);

// Runs a predicate's relative sub-path from a set of origins and returns
// the nodes it reaches.
using SubPathRunner = std::function<StatusOr<std::vector<filter::NodeMeta>>(
    std::vector<filter::NodeMeta> origins)>;

// Predicate filtering, set-at-a-time (DESIGN.md §6): keeps the nodes from
// which `run` reaches at least one node. A sub-path that stays inside its
// origin's subtree — every '..' undoes a step down — runs once per nesting
// layer of `nodes` (once when no node is another's ancestor), and each hit
// is credited to the origin whose subtree holds it, by pre/post
// containment; within a layer the subtrees are disjoint, so the credit is
// exact. A sub-path that climbs above its origin ('[..]', '[../x]') runs
// once per node.
StatusOr<std::vector<filter::NodeMeta>> FilterByPredicate(
    std::vector<filter::NodeMeta> nodes, const std::vector<Step>& predicate,
    const SubPathRunner& run);

// Keeps nodes[i] iff mask[i] != 0.
std::vector<filter::NodeMeta> ApplyMask(std::vector<filter::NodeMeta> nodes,
                                        const std::vector<uint8_t>& mask);

// Fills stats->eval with the filter-counter delta across a query execution.
void FillStatsDelta(const filter::EvalStats& before,
                    const filter::EvalStats& after, QueryStats* stats);

}  // namespace internal

}  // namespace ssdb::query

#endif  // SSDB_QUERY_ENGINE_H_
