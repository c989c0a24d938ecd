// Summary statistics of the cost ledger: nearest-rank percentiles, the
// per-class geometric mean the latency metrics use, the medians over slices
// of the timed window that keep them steady, and the sample guard.

#ifndef SSDB_LEDGER_LIB_STATS_H_
#define SSDB_LEDGER_LIB_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ssdb::ledger {

// One named ledger metric as printed: `metric <name> <value> <unit>`.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// p90 is reported only when at least ten samples lie beyond it, so every
// class must collect this many samples in the timed window.
inline constexpr size_t kMinClassSamples = 100;

// The timed window is cut into this many equal slices. A time metric is the
// median over slices of its value within each slice, so a burst of outside
// load that covers fewer than half of the slices does not move it.
inline constexpr int kWindowSlices = 5;

// One op's latency, stamped with the time it completed.
struct Sample {
  int64_t end_ns = 0;
  double ms = 0;
};

// Nearest-rank percentile of `values` (any order): the smallest value such
// that at least p% of all values are <= it. p in (0, 100]; 0 for an empty
// input.
double NearestRank(std::vector<double> values, double p);

// Geometric mean of strictly positive values; 0 when `values` is empty or
// holds a non-positive entry.
double GeoMean(const std::vector<double>& values);

// Median over the window's slices of the nearest-rank percentile p of the
// samples that completed in each slice of [start_ns, end_ns). Slices
// without samples are skipped.
double SlicedPercentile(const std::vector<Sample>& samples, double p,
                        int64_t start_ns, int64_t end_ns);

// Median over the window's slices of the samples completed per second.
double SlicedRate(const std::vector<Sample>& samples, int64_t start_ns,
                  int64_t end_ns);

// Names of the classes with fewer than kMinClassSamples samples.
std::vector<std::string> UndersampledClasses(
    const std::map<std::string, size_t>& sample_counts);

}  // namespace ssdb::ledger

#endif  // SSDB_LEDGER_LIB_STATS_H_
