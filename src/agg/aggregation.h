/// AggregationEngine (DESIGN.md §8): answers count()/sum()/exists() and
/// group-by-tag queries without materializing the final candidate set at
/// the client. The prefix steps run through a normal QueryEngine (simple or
/// advanced, either match mode); the final step is then answered by a
/// single partial-aggregate exchange: every server folds its additive
/// column slice over the penultimate frontier and returns one masked
/// Z_{2^32} word per group, which ClientFilter::Aggregate unmasks — the
/// servers never learn which nodes matched, the client never downloads the
/// candidates.
///
/// Axis handling is pure column selection (agg/columns.h): a child final
/// step reads the *Child columns of the frontier, a descendant final step
/// the *Desc columns of the frontier's covering set — so the expansion the
/// fetch path pays O(candidates) round-trip bytes for costs the aggregate
/// path nothing. Final steps the column algebra cannot express (a
/// predicate, a '..' test) fall back to the materialized query, keeping
/// answers exact everywhere.

#ifndef SSDB_AGG_AGGREGATION_H_
#define SSDB_AGG_AGGREGATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agg/columns.h"
#include "filter/client_filter.h"
#include "mapping/tag_map.h"
#include "query/engine.h"
#include "query/xpath.h"
#include "util/statusor.h"

namespace ssdb::agg {

// Which family slot of the column algebra a plan reads, decided by the
// final step's axis and position (agg/columns.h).
enum class Slot : uint8_t {
  kSelf,         // aggregate over the frontier nodes themselves
  kChild,        // ... over their children         (final '/x')
  kDesc,         // ... over their proper descendants (final '//x')
  kSelfAndDesc,  // ... over frontier ∪ descendants (single-step '//x')
};

// A planned aggregate: the frontier to fold over and the columns that
// encode (aggregate function × match mode × axis). Exposed for tests and
// direct API use; Execute() builds it from a parsed aggregate query.
struct Plan {
  query::Aggregate fn = query::Aggregate::kCount;
  uint8_t columns = 0;                     // ColBit() mask
  bool group_by = false;                   // wildcard final step
  bool verify = false;                     // check proofs (DESIGN.md §9)
  std::vector<filter::NodeMeta> frontier;  // deduped; covering for kDesc
  std::vector<uint32_t> value_indexes;     // one group per entry
  std::vector<std::string> group_names;    // parallel to value_indexes
};

struct Result {
  query::Aggregate fn = query::Aggregate::kCount;
  bool group_by = false;
  bool verified = false;       // every value passed proof checks (§9)
  uint64_t proof_words = 0;    // verification words checked
  std::vector<std::string> group_names;  // tag names, parallel to values
  std::vector<uint64_t> values;          // exact counts / sums per group

  // Sum over all groups — the scalar answer of a non-group-by aggregate.
  uint64_t Total() const;
  bool Exists() const { return Total() != 0; }
};

// The column set for one (aggregate, match mode, slot) cell; see the
// semantics table in DESIGN.md §8.
uint8_t ColumnsFor(query::Aggregate fn, query::MatchMode mode, Slot slot);

class AggregationEngine {
 public:
  // Both must outlive the engine. The filter is the same client stack the
  // query engines use, so round trips and masks share one accounting.
  AggregationEngine(filter::ClientFilter* filter,
                    const mapping::TagMap* map)
      : filter_(filter), map_(map) {}

  // Answers `query` (which must carry an aggregate form). The prefix steps
  // run through `engine`; `stats` (may be null) receives the usual
  // QueryStats with result_size = number of groups, NOT matched nodes —
  // the matched set never reaches the client.
  StatusOr<Result> Execute(query::QueryEngine* engine,
                           const query::Query& query, query::MatchMode mode,
                           query::QueryStats* stats);

  // Runs a prepared plan: one masked exchange, unmasked exact answers.
  StatusOr<Result> RunPlan(const Plan& plan);

  // Verified mode (DESIGN.md §9): every Execute() plan also fetches and
  // checks the proof track, so a tampering server turns the query into a
  // Corruption error naming the server instead of a wrong answer. Needs a
  // database encoded with the track (ssdb_encode --verify-agg).
  void set_verify(bool on) { verify_ = on; }
  bool verify() const { return verify_; }

 private:
  filter::ClientFilter* filter_;
  const mapping::TagMap* map_;
  bool verify_ = false;
};

}  // namespace ssdb::agg

#endif  // SSDB_AGG_AGGREGATION_H_
