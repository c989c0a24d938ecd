#include "lib/stats.h"

#include <algorithm>
#include <cmath>

namespace ssdb::ledger {
namespace {

// Samples grouped by the slice of [start_ns, end_ns) they completed in.
std::vector<std::vector<double>> BySlice(const std::vector<Sample>& samples,
                                         int64_t start_ns, int64_t end_ns) {
  std::vector<std::vector<double>> slices(kWindowSlices);
  const int64_t length = std::max<int64_t>(1, end_ns - start_ns);
  for (const Sample& s : samples) {
    if (s.end_ns < start_ns || s.end_ns >= end_ns) continue;
    slices[(s.end_ns - start_ns) * kWindowSlices / length].push_back(s.ms);
  }
  return slices;
}

}  // namespace

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double SlicedPercentile(const std::vector<Sample>& samples, double p,
                        int64_t start_ns, int64_t end_ns) {
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : BySlice(samples, start_ns, end_ns)) {
    if (!slice.empty()) per_slice.push_back(NearestRank(slice, p));
  }
  return NearestRank(per_slice, 50);
}

double SlicedRate(const std::vector<Sample>& samples, int64_t start_ns,
                  int64_t end_ns) {
  const double slice_s =
      static_cast<double>(end_ns - start_ns) / 1e9 / kWindowSlices;
  std::vector<double> rates;
  for (const std::vector<double>& slice : BySlice(samples, start_ns, end_ns)) {
    rates.push_back(static_cast<double>(slice.size()) / slice_s);
  }
  return NearestRank(rates, 50);
}

std::vector<std::string> UndersampledClasses(
    const std::map<std::string, size_t>& sample_counts) {
  std::vector<std::string> out;
  for (const auto& [name, count] : sample_counts) {
    if (count < kMinClassSamples) out.push_back(name);
  }
  return out;
}

}  // namespace ssdb::ledger
