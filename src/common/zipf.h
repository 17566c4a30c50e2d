// Zipf (power-law) discrete distribution over ranks 0..n-1.
//
// Rank r (0-based) has weight 1 / (r+1)^alpha. Used for file popularity and
// query popularity in the content model (the paper's workload model [21]
// assumes Zipf-like popularity, as measured for Gnutella-era systems).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace guess {

/// Precomputed-CDF Zipf sampler. A draw is an inverse-CDF search for the
/// first rank whose CDF reaches u, started from a guide table that splits
/// [0, 1) into kBucketsPerRank * n equal buckets, so it walks a few ranks at
/// most instead of binary-searching all n. The answer is exactly
/// std::lower_bound's: the guide only picks where the search starts, never
/// which rank a u maps to.
///
/// Why four buckets per rank: in the CDF's tail a rank holds less than 1/n
/// of the mass, so a bucket of width 1/n spans several ranks and a draw
/// walks past them: 0.50 steps per draw on average at the default catalog
/// (8000 ranks, alpha 0.8), 0.12 with four buckets per rank. That cut the
/// 5000 library draws of a flood-open-5k bootstrap from ~50 to ~42 ms
/// (Release, 4-vCPU Xeon) and pays for most of the flood backend's
/// holder-list build (DESIGN.md §12.5). The table costs 16 B per rank.
class ZipfDistribution {
 public:
  /// Guide buckets per rank.
  static constexpr std::size_t kBucketsPerRank = 4;

  /// @param n      number of ranks (> 0)
  /// @param alpha  skew exponent (>= 0; 0 degenerates to uniform)
  ZipfDistribution(std::size_t n, double alpha);

  std::size_t n() const { return cdf_.size(); }
  double alpha() const { return alpha_; }

  /// Draw a rank in [0, n): rank(rng.uniform()).
  std::size_t sample(Rng& rng) const { return rank(rng.uniform()); }

  /// The rank a uniform u >= 0 maps to: the first r with P(rank <= r) >= u,
  /// clamped to n-1.
  std::size_t rank(double u) const {
    std::size_t r = guide_[bucket(u)];
    const std::size_t last = cdf_.size() - 1;
    while (r < last && cdf_[r] < u) ++r;
    return r;
  }

  /// Probability mass of a given rank.
  double pmf(std::size_t rank) const;

  /// The normalizing constant H = sum_r (r+1)^-alpha.
  double normalizer() const { return normalizer_; }

 private:
  /// min(floor(u * buckets), buckets - 1): the guide bucket holding u.
  std::size_t bucket(double u) const {
    auto b = static_cast<std::size_t>(u * scale_);
    return b < guide_.size() ? b : guide_.size() - 1;
  }

  double alpha_;
  double normalizer_;
  double scale_;                     // the bucket count as a double
  std::vector<double> cdf_;          // cdf_[r] = P(rank <= r)
  std::vector<std::uint32_t> guide_; // first rank whose cdf_ is in bucket >= b
};

}  // namespace guess
