// The Zipf sampler as a plain binary search: the oracle that the guide-table
// search in common/zipf.h (tests/common/zipf_test.cc) and the library
// sampler built on it (tests/content/content_model_test.cc) must match draw
// for draw. Rebuilds the CDF with the constructor's own loop, so the oracle
// reads nothing from the class under test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace guess::testsupport {

/// cdf[r] = P(rank <= r) for weights (r+1)^-alpha, last entry pinned to 1.
inline std::vector<double> zipf_reference_cdf(std::size_t n, double alpha) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -alpha);
    cdf[r] = acc;
  }
  for (double& c : cdf) c /= acc;
  cdf.back() = 1.0;
  return cdf;
}

/// The first rank whose CDF is >= u (lower_bound), clamped to the last rank.
inline std::size_t zipf_reference_rank(const std::vector<double>& cdf,
                                       double u) {
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<std::size_t>(it - cdf.begin());
}

}  // namespace guess::testsupport
