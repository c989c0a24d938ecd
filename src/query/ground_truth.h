// Plaintext reference evaluators: run the same XPath subset over a DOM.
// With exact name matching this is the baseline E for the fig. 7 accuracy
// experiment (E/C) and the oracle the strict engines must agree with
// exactly; with the engines' containment rules it is the oracle for the
// non-strict modes.

#ifndef SSDB_QUERY_GROUND_TRUTH_H_
#define SSDB_QUERY_GROUND_TRUTH_H_

#include <vector>

#include "query/xpath.h"
#include "util/statusor.h"
#include "xml/dom.h"

namespace ssdb::query {

// Evaluates `query` on `doc` (must be AnnotatePrePost'ed) and returns the
// matching nodes' pre numbers in document order.
StatusOr<std::vector<uint32_t>> EvaluateGroundTruth(const Query& query,
                                                    const xml::Document& doc);

// The containment-mode (§6.3 non-strict) matching rule of each engine.
enum class ContainmentRule {
  // SimpleQuery: a named step keeps the candidates whose subtree, the node
  // itself included, holds the name.
  kSimple,
  // AdvancedQuery: as kSimple, and every step keeps only the nodes whose
  // subtree also holds the names of the later steps up to the first '..'
  // (the look-ahead pruning, DESIGN.md §3).
  kLookahead,
};

// Plaintext mirror of a containment-mode engine run: what the engine with
// `rule` answers in non-strict mode, computed from the DOM. A name outside
// the engine's tag map behaves like a name absent from the document.
StatusOr<std::vector<uint32_t>> EvaluateContainmentTruth(
    const Query& query, const xml::Document& doc, ContainmentRule rule);

}  // namespace ssdb::query

#endif  // SSDB_QUERY_GROUND_TRUTH_H_
