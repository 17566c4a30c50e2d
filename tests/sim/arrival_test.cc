// ArrivalProcess: the open-loop arrival stream (DESIGN.md §13.1).
#include "sim/arrival.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "sim/simulator.h"

namespace guess::sim {
namespace {

TEST(ArrivalNames, RoundTrip) {
  EXPECT_EQ(parse_arrival_mode(arrival_mode_name(ArrivalMode::kClosed)),
            ArrivalMode::kClosed);
  EXPECT_EQ(parse_arrival_mode(arrival_mode_name(ArrivalMode::kOpen)),
            ArrivalMode::kOpen);
  EXPECT_THROW(parse_arrival_mode("ajar"), CheckError);
}

TEST(ArrivalProcess, PoissonRateIsApproximatelyHonored) {
  Simulator simulator;
  ArrivalProcess arrivals(simulator, 10.0, Rng(2));
  std::uint64_t count = 0;
  arrivals.start([&] { ++count; });
  simulator.run_until(1000.0);
  // ~10000 expected; 5 sigma is ~±500.
  EXPECT_GT(count, 9500u);
  EXPECT_LT(count, 10500u);
}

TEST(ArrivalProcess, SameSeedSameStream) {
  auto trace = [](std::uint64_t seed) {
    Simulator simulator;
    ArrivalProcess arrivals(simulator, 5.0, Rng(seed));
    std::vector<Time> times;
    arrivals.start([&] { times.push_back(simulator.now()); });
    simulator.run_until(50.0);
    return times;
  };
  EXPECT_EQ(trace(7), trace(7));
  EXPECT_NE(trace(7), trace(8));
}

TEST(ArrivalProcess, RejectsNonPositiveRate) {
  Simulator simulator;
  EXPECT_THROW(ArrivalProcess(simulator, 0.0, Rng(1)), CheckError);
  EXPECT_THROW(ArrivalProcess(simulator, -1.0, Rng(1)), CheckError);
}

}  // namespace
}  // namespace guess::sim
