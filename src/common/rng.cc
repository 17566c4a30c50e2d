#include "common/rng.h"

#include <bit>

namespace guess {

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  std::vector<std::size_t> scratch;
  sample_indices_into(n, k, out, scratch);
  return out;
}

void Rng::sample_indices_into(std::size_t n, std::size_t k,
                              std::vector<std::size_t>& out,
                              std::vector<std::size_t>& scratch) {
  GUESS_CHECK(k <= n);
  out.clear();
  if (out.capacity() < k) out.reserve(k);
  if (k == 0) return;
  // Dense case: partial Fisher–Yates over an explicit index vector.
  if (k * 3 >= n) {
    scratch.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + index(n - i);
      std::swap(scratch[i], scratch[j]);
      out.push_back(scratch[i]);
    }
    return;
  }
  // Sparse case: rejection sampling. Every draw is accepted or rejected by
  // exact membership in the accepted set, so how membership is tested never
  // changes the draws. For small k a linear scan of the accepted prefix is
  // fastest (the per-Pong case); past kScanLimit an open-addressing table
  // held in `scratch` keeps the test O(1) and the whole sample O(k).
  constexpr std::size_t kScanLimit = 16;
  if (k <= kScanLimit) {
    while (out.size() < k) {
      std::size_t candidate = index(n);
      bool fresh = true;
      for (std::size_t prior : out) {
        if (prior == candidate) {
          fresh = false;
          break;
        }
      }
      if (fresh) out.push_back(candidate);
    }
    return;
  }
  // Load factor <= 1/2. Candidates are < n, so the all-ones value marks an
  // empty slot; a Fibonacci hash spreads any n over the table.
  constexpr std::size_t kEmpty = ~std::size_t{0};
  const int bits = std::bit_width(2 * k - 1);  // 2^bits >= 2k
  scratch.assign(std::size_t{1} << bits, kEmpty);
  const std::size_t mask = scratch.size() - 1;
  while (out.size() < k) {
    std::size_t candidate = index(n);
    std::size_t slot = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(candidate) * 0x9E3779B97F4A7C15ull) >>
        (64 - bits));
    while (scratch[slot] != kEmpty && scratch[slot] != candidate) {
      slot = (slot + 1) & mask;
    }
    if (scratch[slot] == kEmpty) {
      scratch[slot] = candidate;
      out.push_back(candidate);
    }
  }
}

}  // namespace guess
