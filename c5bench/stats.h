// Exact order statistics and a least-squares slope over raw samples. Load
// threads keep every measured sample (preallocated), so percentiles here are
// exact nearest-rank values, not bucket interpolations.

#ifndef C5BENCH_STATS_H_
#define C5BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace c5bench {

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample. Reorders `v`.
inline double Quantile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return static_cast<double>(v[rank - 1]);
}

inline double Max(const std::vector<std::int64_t>& v) {
  return v.empty() ? 0 : static_cast<double>(*std::max_element(v.begin(),
                                                               v.end()));
}

// Least-squares slope of y over x; 0 with fewer than two distinct x.
inline double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace c5bench

#endif  // C5BENCH_STATS_H_
