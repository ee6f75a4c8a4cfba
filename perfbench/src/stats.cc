#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRank(size_t n, int p) {
  const size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
  return std::max<size_t>(rank, 1);
}

bool TailSupported(size_t n, int p) {
  return n > 0 && n - NearestRank(n, p) >= kMinSamplesBeyond;
}

std::optional<double> Percentile(std::vector<double> values, int p) {
  if (values.empty()) return std::nullopt;
  const size_t index = NearestRank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

std::optional<double> TailPercentile(std::vector<double> values, int p) {
  if (!TailSupported(values.size(), p)) return std::nullopt;
  return Percentile(std::move(values), p);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / values.size());
}

}  // namespace perfbench
