#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// A tail percentile is reported only when at least this many samples lie
// beyond it (p95 therefore needs >= 200 samples).
constexpr size_t kMinSamplesBeyond = 10;

// 1-based nearest rank of the p-th percentile (p in [1, 100]) among n
// samples: ceil(p * n / 100), computed in integers.
size_t NearestRank(size_t n, int p);

// True when the p-th percentile of n samples has kMinSamplesBeyond samples
// above its rank.
bool TailSupported(size_t n, int p);

// Nearest-rank percentile of `values`; nullopt when empty.
std::optional<double> Percentile(std::vector<double> values, int p);

// Nearest-rank percentile, or nullopt when TailSupported(values.size(), p)
// does not hold.
std::optional<double> TailPercentile(std::vector<double> values, int p);

// Median of `values`: the mean of the two middle samples for an even count.
// Returns 0 for an empty input.
double Median(std::vector<double> values);

// Geometric mean of `values`, all of which must be positive; 0 when empty
// or when any value is not positive. It weighs a relative change of every
// value the same, however large the value is.
double GeoMean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
