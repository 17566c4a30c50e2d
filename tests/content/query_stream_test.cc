#include "content/query_stream.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace guess::content {
namespace {

TEST(QueryStream, BurstSizeWithinBounds) {
  QueryStream stream(0.01);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    std::size_t size = stream.next_burst_size(rng);
    EXPECT_GE(size, kBurstMin);
    EXPECT_LE(size, kBurstMax);
  }
}

TEST(QueryStream, MeanBurstSizeIsMidpoint) {
  EXPECT_DOUBLE_EQ(QueryStream::mean_burst_size(), 3.0);
}

TEST(QueryStream, BurstRateDeliversTargetQueryRate) {
  // rate = queries/sec; bursts of mean size B arrive at rate/B.
  const double query_rate = 9.26e-3;
  QueryStream stream(query_rate);
  EXPECT_NEAR(stream.burst_rate(), query_rate / 3.0, 1e-12);

  // Empirically: total queries over simulated gaps ≈ rate × time.
  Rng rng(7);
  double elapsed = 0.0;
  double queries = 0.0;
  for (int i = 0; i < 20000; ++i) {
    elapsed += stream.next_burst_gap(rng);
    queries += static_cast<double>(stream.next_burst_size(rng));
  }
  EXPECT_NEAR(queries / elapsed, query_rate, query_rate * 0.05);
}

TEST(QueryStream, GapsAreExponentialish) {
  QueryStream stream(0.1);
  Rng rng(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += stream.next_burst_gap(rng);
  const double mean_gap = 1.0 / stream.burst_rate();
  EXPECT_NEAR(sum / n, mean_gap, 0.03 * mean_gap);
}

TEST(QueryStream, InvalidParamsRejected) {
  EXPECT_THROW(QueryStream(0.0), CheckError);
  EXPECT_THROW(QueryStream(-0.01), CheckError);
}

}  // namespace
}  // namespace guess::content
