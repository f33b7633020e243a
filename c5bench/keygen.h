// Key choosers for the key-value workloads. Every draw comes from the load
// thread's seeded c5::Rng, so a seed fixes the whole request stream.

#ifndef C5BENCH_KEYGEN_H_
#define C5BENCH_KEYGEN_H_

#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace c5bench {

// YCSB's scrambled Zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases"): ranks in [0, n) drawn with skew
// theta, then hashed (FNV-1a) over the key space so the hot keys are spread
// out instead of clustered at the low end — a hot set that fits in cache but
// is scattered across the table and its ordered index.
class ScrambledZipf {
 public:
  ScrambledZipf(std::uint64_t n, double theta)
      : n_(n), alpha_(1.0 / (1.0 - theta)) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }

  std::uint64_t Next(c5::Rng& rng) const {
    return Fnv1a(Rank(rng)) % n_;
  }

 private:
  std::uint64_t Rank(c5::Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_theta_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

  static std::uint64_t Fnv1a(std::uint64_t v) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (int i = 0; i < 8; ++i) {
      h ^= v & 0xFF;
      h *= 0x100000001B3ull;
      v >>= 8;
    }
    return h;
  }

  std::uint64_t n_;
  double alpha_;
  double zetan_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;
};

}  // namespace c5bench

#endif  // C5BENCH_KEYGEN_H_
