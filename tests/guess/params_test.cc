#include "guess/params.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace guess {
namespace {

TEST(Params, Table1Defaults) {
  SystemParams system;
  EXPECT_EQ(system.network_size, 1000u);
  EXPECT_EQ(system.num_desired_results, 1u);
  EXPECT_DOUBLE_EQ(system.lifespan_multiplier, 1.0);
  EXPECT_DOUBLE_EQ(system.query_rate, 9.26e-3);
  EXPECT_EQ(system.max_probes_per_second, 100u);
  EXPECT_DOUBLE_EQ(system.percent_bad_peers, 0.0);
  EXPECT_EQ(system.bad_pong_behavior, BadPongBehavior::kDead);
}

TEST(Params, Table2Defaults) {
  ProtocolParams protocol;
  EXPECT_EQ(protocol.query_probe, Policy::kRandom);
  EXPECT_EQ(protocol.query_pong, Policy::kRandom);
  EXPECT_EQ(protocol.ping_probe, Policy::kRandom);
  EXPECT_EQ(protocol.ping_pong, Policy::kRandom);
  EXPECT_EQ(protocol.cache_replacement, Replacement::kRandom);
  EXPECT_DOUBLE_EQ(protocol.ping_interval, 30.0);
  EXPECT_EQ(protocol.cache_size, 100u);
  EXPECT_FALSE(protocol.reset_num_results);
  EXPECT_FALSE(protocol.do_backoff);
  EXPECT_EQ(protocol.pong_size, 5u);
  EXPECT_DOUBLE_EQ(protocol.intro_prob, 0.1);
}

TEST(Params, CacheSeedDefaultsToNetworkFraction) {
  SystemParams system;
  system.network_size = 1000;
  EXPECT_EQ(system.resolved_cache_seed(100), 10u);  // N/100
  system.network_size = 200;
  EXPECT_EQ(system.resolved_cache_seed(100), 5u);  // floor of 5
  system.network_size = 10000;
  EXPECT_EQ(system.resolved_cache_seed(20), 20u);  // clamped to cache size
}

TEST(Params, BadFractionFromPercent) {
  SystemParams system;
  system.percent_bad_peers = 15.0;
  EXPECT_DOUBLE_EQ(system.bad_fraction(), 0.15);
}

TEST(Params, MrStarDefaults) {
  ProtocolParams mr_star = ProtocolParams::mr_star_defaults();
  EXPECT_EQ(mr_star.query_probe, Policy::kMR);
  EXPECT_EQ(mr_star.query_pong, Policy::kMR);
  EXPECT_EQ(mr_star.cache_replacement, Replacement::kLR);
  EXPECT_TRUE(mr_star.reset_num_results);
}

TEST(Params, DescribeMentionsKeyFields) {
  SystemParams system;
  std::string s = describe(system);
  EXPECT_NE(s.find("NetworkSize=1000"), std::string::npos);
  EXPECT_NE(s.find("BadPongBehavior=Dead"), std::string::npos);

  ProtocolParams protocol;
  protocol.query_pong = Policy::kMFS;
  std::string p = describe(protocol);
  EXPECT_NE(p.find("QueryPong=MFS"), std::string::npos);
  EXPECT_NE(p.find("CacheSize=100"), std::string::npos);
}

TEST(Params, BadPongBehaviorNames) {
  EXPECT_EQ(to_string(BadPongBehavior::kDead), "Dead");
  EXPECT_EQ(to_string(BadPongBehavior::kBad), "Bad");
  for (BadPongBehavior behavior :
       {BadPongBehavior::kDead, BadPongBehavior::kBad}) {
    EXPECT_EQ(parse_bad_pong_behavior(to_string(behavior)), behavior);
  }
  // Names are exact: a near miss must not silently run another attack.
  for (const char* name : {"bad", "dead", "Collude", "", "Dead "}) {
    EXPECT_THROW(parse_bad_pong_behavior(name), CheckError) << name;
  }
}

}  // namespace
}  // namespace guess
