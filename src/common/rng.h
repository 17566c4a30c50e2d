// Deterministic random number generation for simulations.
//
// Every stochastic component in guesslib draws from an Rng that is seeded
// explicitly; the same seed always reproduces the same run. A single
// mt19937_64 per simulation keeps runs deterministic regardless of the order
// in which components were constructed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/check.h"

namespace guess {

/// Seeded pseudo-random source with the sampling helpers the simulator needs.
///
/// Not thread-safe; the discrete-event simulator is single-threaded by design
/// (determinism is a feature, see DESIGN.md).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    GUESS_CHECK(lo <= hi);
    return lo + (hi - lo) * unit_(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    GUESS_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    GUESS_CHECK(n > 0);
    return static_cast<std::size_t>(
        std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_));
  }

  /// True with probability p.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return unit_(engine_) < p;
  }

  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) {
    GUESS_CHECK(rate > 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Log-normal variate with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    GUESS_CHECK(!items.empty());
    return items[index(items.size())];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  /// Sample k distinct indices from [0, n) (k <= n). O(k) expected when
  /// k << n, O(n) otherwise.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Allocation-free variant for hot paths: writes the sample into `out`
  /// (cleared first) using `scratch` for the dense branch's index pool or
  /// the sparse branch's membership table (k > 16; below that a scan of
  /// `out` is faster). Both vectors keep their capacity across calls, so a
  /// warmed caller never allocates. Draws the exact engine sequence of
  /// sample_indices — callers may switch between the two without perturbing
  /// determinism.
  void sample_indices_into(std::size_t n, std::size_t k,
                           std::vector<std::size_t>& out,
                           std::vector<std::size_t>& scratch);

  /// Raw engine access for std distributions not wrapped above.
  std::mt19937_64& engine() { return engine_; }

  /// Derive an independent child generator (stable: depends only on this
  /// generator's current state). Used to give subsystems their own streams.
  Rng split() { return Rng(engine_()); }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace guess
