#include "guess/config.h"

#include <cmath>

#include "common/check.h"

namespace guess {

const char* backend_name(SearchBackendId id) {
  switch (id) {
    case SearchBackendId::kGuess: return "guess";
    case SearchBackendId::kFlood: return "flood";
    case SearchBackendId::kIterative: return "iterative";
    case SearchBackendId::kOneHop: return "onehop";
    case SearchBackendId::kGossip: return "gossip";
  }
  GUESS_CHECK_MSG(false, "unknown SearchBackendId");
  return "?";
}

SearchBackendId parse_backend(const std::string& name) {
  if (name == "guess") return SearchBackendId::kGuess;
  if (name == "flood") return SearchBackendId::kFlood;
  if (name == "iterative") return SearchBackendId::kIterative;
  if (name == "onehop") return SearchBackendId::kOneHop;
  if (name == "gossip") return SearchBackendId::kGossip;
  GUESS_CHECK_MSG(false, "unknown backend '"
                             << name
                             << "' (expected guess | flood | iterative | "
                                "onehop | gossip)");
  return SearchBackendId::kGuess;
}

const SimulationConfig& SimulationConfig::validate() const {
  // Non-finite doubles sail through every range check below (NaN compares
  // false against everything), so reject them by name first.
  GUESS_CHECK_MSG(std::isfinite(system_.lifespan_multiplier),
                  "lifespan_multiplier must be finite");
  GUESS_CHECK_MSG(std::isfinite(system_.query_rate),
                  "query_rate must be finite");
  GUESS_CHECK_MSG(std::isfinite(system_.percent_bad_peers),
                  "percent_bad_peers must be finite");
  GUESS_CHECK_MSG(std::isfinite(system_.percent_selfish_peers),
                  "percent_selfish_peers must be finite");
  GUESS_CHECK_MSG(std::isfinite(transport_.loss),
                  "transport loss must be finite");
  GUESS_CHECK_MSG(std::isfinite(transport_.link_latency),
                  "transport link_latency must be finite");
  GUESS_CHECK_MSG(std::isfinite(transport_.probe_timeout),
                  "transport probe_timeout must be finite");
  GUESS_CHECK_MSG(std::isfinite(options_.warmup), "warmup must be finite");
  GUESS_CHECK_MSG(std::isfinite(options_.measure), "measure must be finite");
  GUESS_CHECK_MSG(std::isfinite(options_.metrics_interval),
                  "metrics_interval must be finite");
  GUESS_CHECK_MSG(std::isfinite(options_.connectivity_sample_interval),
                  "connectivity_sample_interval must be finite");
  GUESS_CHECK_MSG(std::isfinite(options_.offered_qps),
                  "offered_qps must be finite");
  GUESS_CHECK_MSG(std::isfinite(options_.slo), "slo must be finite");
  const content::ContentParams& content = system_.content;
  GUESS_CHECK_MSG(std::isfinite(content.file_alpha),
                  "content file_alpha must be finite");
  GUESS_CHECK_MSG(std::isfinite(content.query_alpha),
                  "content query_alpha must be finite");
  GUESS_CHECK_MSG(std::isfinite(content.free_rider_fraction),
                  "content free_rider_fraction must be finite");
  GUESS_CHECK_MSG(std::isfinite(content.max_library_fraction),
                  "content max_library_fraction must be finite");
  // System (Table 1).
  GUESS_CHECK_MSG(system_.network_size >= 2,
                  "network_size must be >= 2, got " << system_.network_size);
  GUESS_CHECK_MSG(system_.num_desired_results >= 1,
                  "num_desired_results must be >= 1");
  GUESS_CHECK_MSG(system_.lifespan_multiplier > 0.0,
                  "lifespan_multiplier must be > 0, got "
                      << system_.lifespan_multiplier);
  // Every backend builds its bursty query stream from the rate, open-loop
  // runs included, so a zero rate is as invalid as a negative one.
  GUESS_CHECK_MSG(system_.query_rate > 0.0,
                  "query_rate must be > 0, got " << system_.query_rate);
  GUESS_CHECK_MSG(
      system_.percent_bad_peers >= 0.0 && system_.percent_bad_peers <= 100.0,
      "percent_bad_peers must be in [0, 100], got "
          << system_.percent_bad_peers);
  GUESS_CHECK_MSG(system_.percent_selfish_peers >= 0.0 &&
                      system_.percent_selfish_peers <= 100.0,
                  "percent_selfish_peers must be in [0, 100], got "
                      << system_.percent_selfish_peers);
  GUESS_CHECK_MSG(
      system_.percent_bad_peers + system_.percent_selfish_peers <= 100.0,
      "bad + selfish percentages exceed the population");

  // Content model (§3). ContentModel checks these too, but only after its
  // member initializers have used them (a negative library fraction is
  // cast to size_t first), and a library cap past the catalog would leave
  // distinct-file sampling looping forever.
  GUESS_CHECK_MSG(content.catalog_size >= 1,
                  "content catalog_size must be >= 1");
  GUESS_CHECK_MSG(content.query_universe >= content.catalog_size,
                  "content query_universe must be >= catalog_size, got "
                      << content.query_universe << " < "
                      << content.catalog_size);
  GUESS_CHECK_MSG(content.file_alpha >= 0.0,
                  "content file_alpha must be >= 0, got "
                      << content.file_alpha);
  GUESS_CHECK_MSG(content.query_alpha >= 0.0,
                  "content query_alpha must be >= 0, got "
                      << content.query_alpha);
  GUESS_CHECK_MSG(content.free_rider_fraction >= 0.0 &&
                      content.free_rider_fraction < 1.0,
                  "content free_rider_fraction must be in [0, 1), got "
                      << content.free_rider_fraction);
  GUESS_CHECK_MSG(content.max_library_fraction > 0.0 &&
                      content.max_library_fraction <= 1.0,
                  "content max_library_fraction must be in (0, 1], got "
                      << content.max_library_fraction);
  GUESS_CHECK_MSG(
      std::floor(content.max_library_fraction *
                 static_cast<double>(content.catalog_size)) >= 1.0,
      "content max_library_fraction x catalog_size must allow one file, "
      "got " << content.max_library_fraction << " x "
             << content.catalog_size);

  // Protocol (Table 2).
  GUESS_CHECK_MSG(protocol_.ping_interval > 0.0,
                  "ping_interval must be > 0, got "
                      << protocol_.ping_interval);
  GUESS_CHECK_MSG(protocol_.cache_size >= 1, "cache_size must be >= 1");
  GUESS_CHECK_MSG(protocol_.pong_size >= 1, "pong_size must be >= 1");
  GUESS_CHECK_MSG(protocol_.intro_prob >= 0.0 && protocol_.intro_prob <= 1.0,
                  "intro_prob must be in [0, 1], got "
                      << protocol_.intro_prob);
  GUESS_CHECK_MSG(protocol_.parallel_probes >= 1,
                  "parallel_probes must be >= 1");

  // Transport (DESIGN.md §8).
  GUESS_CHECK_MSG(transport_.loss >= 0.0 && transport_.loss <= 1.0,
                  "transport loss must be in [0, 1], got "
                      << transport_.loss);
  GUESS_CHECK_MSG(transport_.probe_timeout > 0.0,
                  "transport probe_timeout must be > 0, got "
                      << transport_.probe_timeout);
  GUESS_CHECK_MSG(transport_.link_latency >= 0.0,
                  "transport link_latency must be >= 0, got "
                      << transport_.link_latency);
  // Far above any sensible retry policy; catches negative values wrapped
  // through an unsigned cast (e.g. a mis-parsed --max-retries).
  GUESS_CHECK_MSG(transport_.max_retries <= 1000,
                  "transport max_retries must be <= 1000, got "
                      << transport_.max_retries);

  // Run control.
  GUESS_CHECK_MSG(options_.warmup >= 0.0, "warmup must be >= 0");
  GUESS_CHECK_MSG(options_.measure >= 0.0, "measure must be >= 0");
  GUESS_CHECK_MSG(options_.connectivity_sample_interval > 0.0,
                  "connectivity_sample_interval must be > 0");
  GUESS_CHECK_MSG(options_.threads >= 0, "threads must be >= 0");
  GUESS_CHECK_MSG(options_.metrics_interval >= 0.0,
                  "metrics_interval must be >= 0, got "
                      << options_.metrics_interval);

  // Open-loop arrivals + overload control (DESIGN.md §13).
  GUESS_CHECK_MSG(options_.offered_qps >= 0.0,
                  "offered_qps must be >= 0, got " << options_.offered_qps);
  if (options_.arrival == sim::ArrivalMode::kOpen) {
    GUESS_CHECK_MSG(options_.offered_qps > 0.0,
                    "open-loop arrivals require offered_qps > 0 "
                    "(--offered-qps)");
  } else {
    GUESS_CHECK_MSG(options_.offered_qps == 0.0,
                    "offered_qps is set but arrival mode is closed; pass "
                    "--arrival=open");
    GUESS_CHECK_MSG(options_.overload.policy == OverloadPolicy::kNone,
                    "overload policies require open-loop arrivals "
                    "(--arrival=open)");
  }
  GUESS_CHECK_MSG(options_.slo > 0.0,
                  "slo must be > 0 seconds, got " << options_.slo);
  const OverloadParams& ol = options_.overload;
  GUESS_CHECK_MSG(ol.max_in_flight >= 1, "overload max_in_flight must be >= 1");
  GUESS_CHECK_MSG(ol.shed_watermark >= 1,
                  "overload shed_watermark must be >= 1");

  // Backend tuning blocks (only the selected backend reads its block, but
  // nonsense in any block is rejected up front — a config is one value).
  GUESS_CHECK_MSG(backends_.flood.ttl >= 1, "flood ttl must be >= 1");
  GUESS_CHECK_MSG(backends_.onehop.dissemination_delay >= 0.0,
                  "onehop dissemination_delay must be >= 0");
  GUESS_CHECK_MSG(backends_.gossip.gossip_interval > 0.0,
                  "gossip gossip_interval must be > 0");
  GUESS_CHECK_MSG(backends_.gossip.fanout >= 1, "gossip fanout must be >= 1");
  // A gossip round needs `fanout` distinct partners besides the peer itself.
  GUESS_CHECK_MSG(backend_ != SearchBackendId::kGossip ||
                      backends_.gossip.fanout < system_.network_size,
                  "gossip fanout must be < network_size, got fanout "
                      << backends_.gossip.fanout << " with network_size "
                      << system_.network_size);
  GUESS_CHECK_MSG(backends_.gossip.ads_per_exchange >= 1,
                  "gossip ads_per_exchange must be >= 1");
  GUESS_CHECK_MSG(backends_.gossip.knowledge_capacity >= 1,
                  "gossip knowledge_capacity must be >= 1");
  GUESS_CHECK_MSG(backends_.gossip.ad_ttl > 0.0, "gossip ad_ttl must be > 0");
  GUESS_CHECK_MSG(backends_.gossip.max_probes >= 1,
                  "gossip max_probes must be >= 1");
  GUESS_CHECK_MSG(backends_.gossip.probe_interval > 0.0,
                  "gossip probe_interval must be > 0");

  // Fault scenario (DESIGN.md §9).
  scenario_.validate();
  GUESS_CHECK_MSG(!scenario_.uses_degradation() ||
                      transport_.kind == TransportParams::Kind::kLossy,
                  "scenario degrades the transport but the transport is "
                  "synchronous; degrade windows require --loss (a lossy "
                  "transport)");
  return *this;
}

}  // namespace guess
