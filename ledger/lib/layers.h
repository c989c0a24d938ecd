// Per-layer metrics of the traced ledger run, computed from the span log
// (lib/spans.h), the op records, and the primary slices' replay log.
//
// Each op's wall time splits into
//   client self   wall minus the union of the op's channel-call intervals
//                 (query, agg, PRG and ring work plus the client wire codec)
//   per exchange  the slowest call of each fan-out exchange (overlapping
//                 calls of one document's slices), decomposed into the
//                 matched server filter span's self time (the fold for
//                 aggregates), its store and column-store self times, and
//                 the rest of the call (rpc overhead: codec, dispatch,
//                 queueing, socket).
// On corpus ops the straggler document's exchanges are the critical path.
// trace.coverage is the sum of those self times over the sum of op wall
// times; it must sit within 0.9-1.1 for the split to be trusted.

#ifndef SSDB_LEDGER_LIB_LAYERS_H_
#define SSDB_LEDGER_LIB_LAYERS_H_

#include <cstdint>
#include <vector>

#include "lib/spans.h"
#include "lib/stats.h"
#include "lib/traced.h"
#include "lib/workload.h"

namespace ssdb::ledger {

struct LayerInput {
  const Workload* workload = nullptr;
  std::vector<Span> spans;        // everything recorded in the traced phase
  std::vector<OpRecord> ops;      // op id i + 1 is ops[i]
  std::vector<ReplayItem> replay; // the primary slices' replay log
  uint64_t cycles = 0;            // mix passes run traced
  double encode_s = 0;            // encode time of the traced set-up
  double untraced_ops_per_s = 0;  // 1 client, plain stack
  double traced_ops_per_s = 0;    // 1 client, traced stack
  uint64_t queue_depth_peak = 0;  // untraced run's server Snapshot()
  int64_t file_growth_bytes = 0;  // stored bytes after minus before
};

// Every per-layer metric whose layer ran on this workload.
std::vector<Metric> LayerMetrics(const LayerInput& input);

}  // namespace ssdb::ledger

#endif  // SSDB_LEDGER_LIB_LAYERS_H_
