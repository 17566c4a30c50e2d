#include "guess/params.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace guess {

std::size_t SystemParams::resolved_cache_seed(std::size_t cache_size) const {
  std::size_t seed = cache_seed_size;
  if (seed == 0) seed = network_size / 100;
  seed = std::max<std::size_t>(seed, 5);
  seed = std::min(seed, cache_size);
  seed = std::min(seed, network_size > 1 ? network_size - 1 : 1);
  return seed;
}

DetectionParams DetectionParams::hardened() {
  DetectionParams params;
  params.enabled = true;
  params.min_referrals = 2;
  params.bad_threshold = 0.5;
  params.switch_threshold = 3;
  params.lie_claim_threshold = 3;
  params.max_pong_entries = 8;
  params.charge_no_reply = true;
  params.first_hand_floor = 10;
  return params;
}

ProtocolParams ProtocolParams::mr_star_defaults() {
  ProtocolParams params;
  params.query_probe = Policy::kMR;
  params.query_pong = Policy::kMR;
  params.cache_replacement = Replacement::kLR;
  params.reset_num_results = true;
  return params;
}

std::string to_string(BadPongBehavior behavior) {
  switch (behavior) {
    case BadPongBehavior::kDead: return "Dead";
    case BadPongBehavior::kBad: return "Bad";
  }
  return "?";
}

BadPongBehavior parse_bad_pong_behavior(const std::string& name) {
  if (name == "Dead") return BadPongBehavior::kDead;
  if (name == "Bad") return BadPongBehavior::kBad;
  GUESS_CHECK_MSG(false,
                  "unknown bad-pong behavior: " << name << " (Dead | Bad)");
  return BadPongBehavior::kDead;
}

std::string describe(const SystemParams& params) {
  std::ostringstream os;
  os << "NetworkSize=" << params.network_size
     << " NumDesiredResults=" << params.num_desired_results
     << " LifespanMultiplier=" << params.lifespan_multiplier
     << " QueryRate=" << params.query_rate
     << " MaxProbesPerSecond=" << params.max_probes_per_second
     << " PercentBadPeers=" << params.percent_bad_peers
     << " BadPongBehavior=" << to_string(params.bad_pong_behavior);
  return os.str();
}

std::string describe(const ProtocolParams& params) {
  std::ostringstream os;
  os << "QueryProbe=" << to_string(params.query_probe)
     << " QueryPong=" << to_string(params.query_pong)
     << " PingProbe=" << to_string(params.ping_probe)
     << " PingPong=" << to_string(params.ping_pong)
     << " CacheReplacement=" << to_string(params.cache_replacement)
     << " PingInterval=" << params.ping_interval
     << " CacheSize=" << params.cache_size
     << " ResetNumResults=" << (params.reset_num_results ? "Yes" : "No")
     << " DoBackoff=" << (params.do_backoff ? "Yes" : "No")
     << " PongSize=" << params.pong_size
     << " IntroProb=" << params.intro_prob;
  return os.str();
}

}  // namespace guess
