// AdvancedQuery (§5.3): walks the tree root-to-leaf and, at every node,
// takes the *whole remaining query* into account — because each polynomial
// knows all tags in its subtree, a node that lacks any remaining tag can be
// pruned immediately ("identify dead branches early ... at the cost of more
// evaluations for each node").
//
// Descendant steps run as a pruned DFS: recurse only into children whose
// subtree still contains the target; in non-strict mode every such node
// joins the result ("all nodes having a city inside"), in strict mode only
// nodes whose own tag matches.
//
// Caveat: the look-ahead set stops at the first '..' step (a parent step can
// climb out of the subtree, invalidating subtree-containment pruning).

#ifndef SSDB_QUERY_ADVANCED_ENGINE_H_
#define SSDB_QUERY_ADVANCED_ENGINE_H_

#include "query/engine.h"

namespace ssdb::query {

class AdvancedEngine : public QueryEngine {
 public:
  AdvancedEngine(filter::ClientFilter* filter, const mapping::TagMap* map)
      : filter_(filter), map_(map) {}

  std::string_view name() const override { return "advanced"; }

  StatusOr<std::vector<filter::NodeMeta>> Execute(const Query& query,
                                                  MatchMode mode,
                                                  QueryStats* stats) override;

 private:
  // Mapped values of the named steps in steps[from..], stopping at '..'.
  // absent_name is set when a named step is not in the map (=> empty result).
  std::vector<gf::Elem> LookaheadValues(const std::vector<Step>& steps,
                                        size_t from, bool* absent_name) const;

  // Keeps the nodes whose subtree contains every value in `values` — one
  // server exchange (a grid of every node at every value), not one per
  // node or per value.
  StatusOr<std::vector<filter::NodeMeta>> FilterByLookahead(
      std::vector<filter::NodeMeta> nodes,
      const std::vector<gf::Elem>& values);

  StatusOr<std::vector<filter::NodeMeta>> RunSteps(
      const std::vector<Step>& steps,
      std::vector<filter::NodeMeta> candidates, bool from_document_root,
      MatchMode mode, QueryStats* stats);

  // Pruned search for a descendant step, level by level: each tree level
  // costs a constant number of server exchanges regardless of how many
  // branches survive. Collects matches under (but excluding) `roots`.
  Status DescendantSearch(const std::vector<filter::NodeMeta>& roots,
                          gf::Elem value,
                          const std::vector<gf::Elem>& lookahead,
                          MatchMode mode, QueryStats* stats,
                          std::vector<filter::NodeMeta>* out);

  filter::ClientFilter* filter_;
  const mapping::TagMap* map_;
};

}  // namespace ssdb::query

#endif  // SSDB_QUERY_ADVANCED_ENGINE_H_
