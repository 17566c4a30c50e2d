#include "content/query_stream.h"

#include "common/check.h"

namespace guess::content {

QueryStream::QueryStream(double query_rate) : query_rate_(query_rate) {
  GUESS_CHECK(query_rate_ > 0.0);
}

double QueryStream::mean_burst_size() {
  return 0.5 * static_cast<double>(kBurstMin + kBurstMax);
}

double QueryStream::burst_rate() const {
  return query_rate_ / mean_burst_size();
}

sim::Duration QueryStream::next_burst_gap(Rng& rng) const {
  return rng.exponential(burst_rate());
}

std::size_t QueryStream::next_burst_size(Rng& rng) const {
  return static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(kBurstMin),
                      static_cast<std::int64_t>(kBurstMax)));
}

}  // namespace guess::content
