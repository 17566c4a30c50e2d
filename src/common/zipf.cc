#include "common/zipf.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace guess {

ZipfDistribution::ZipfDistribution(std::size_t n, double alpha)
    : alpha_(alpha), scale_(static_cast<double>(n * kBucketsPerRank)) {
  GUESS_CHECK(n > 0);
  GUESS_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  GUESS_CHECK(alpha >= 0.0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -alpha);
    cdf_[r] = acc;
  }
  normalizer_ = acc;
  for (double& c : cdf_) c /= normalizer_;
  cdf_.back() = 1.0;  // guard against rounding drift
  // guide_[b] counts the ranks whose CDF falls in a bucket below b. Every
  // u with bucket(u) == b is at least as large as each such CDF value
  // (bucket() is monotone in u), so lower_bound(u) >= guide_[b]: the walk in
  // rank() can start there and still stop at lower_bound's answer. Built
  // with bucket() itself, so no rounding of b / buckets can put the start
  // past it.
  const std::size_t buckets = n * kBucketsPerRank;
  guide_.resize(buckets);
  std::size_t r = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    // Terminates: cdf_.back() == 1.0 lands in the last bucket, >= b.
    while (bucket(cdf_[r]) < b) ++r;
    guide_[b] = static_cast<std::uint32_t>(r);
  }
}

double ZipfDistribution::pmf(std::size_t rank) const {
  GUESS_CHECK(rank < cdf_.size());
  return std::pow(static_cast<double>(rank + 1), -alpha_) / normalizer_;
}

}  // namespace guess
