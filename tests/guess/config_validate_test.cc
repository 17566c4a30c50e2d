// SimulationConfig::validate() bounds audit: every numeric field rejects
// out-of-range AND non-finite values (NaN compares false against every
// range check, so each field needs an explicit isfinite guard).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "faults/scenario.h"
#include "guess/config.h"
#include "search/backend.h"

namespace guess {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ConfigValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(SimulationConfig().validate());
}

// --- SystemParams (Table 1) ---

TEST(ConfigValidate, SystemBounds) {
  auto with = [](auto mutate) {
    SystemParams system;
    mutate(system);
    return SimulationConfig().system(system);
  };
  EXPECT_THROW(with([](SystemParams& s) { s.network_size = 1; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.num_desired_results = 0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.lifespan_multiplier = 0.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.lifespan_multiplier = kNaN; }).validate(),
      CheckError);
  EXPECT_THROW(with([](SystemParams& s) { s.query_rate = -1.0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](SystemParams& s) { s.query_rate = kNaN; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.percent_bad_peers = 101.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.percent_bad_peers = kNaN; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](SystemParams& s) { s.percent_selfish_peers = -0.5; }).validate(),
      CheckError);
  EXPECT_THROW(with([](SystemParams& s) {
                 s.percent_bad_peers = 60.0;
                 s.percent_selfish_peers = 60.0;  // together > 100
               }).validate(),
               CheckError);
}

// --- ContentParams (§3) ---

// A short n = 50 run with `mutate`d content params, the rest at defaults.
template <typename Mutate>
SimulationConfig with_content(Mutate mutate) {
  SystemParams system;
  system.network_size = 50;
  mutate(system.content);
  return SimulationConfig().system(system).seed(3).warmup(50.0).measure(
      100.0);
}

// Success iff `fn` throws a CheckError whose message names content `field`.
template <typename Fn>
testing::AssertionResult rejects_naming(const std::string& field, Fn fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    if (std::string(e.what()).find("content " + field) != std::string::npos) {
      return testing::AssertionSuccess();
    }
    return testing::AssertionFailure()
           << "rejected without naming " << field << ": " << e.what();
  }
  return testing::AssertionFailure() << "accepted; expected " << field
                                      << " to be rejected";
}

template <typename Mutate>
testing::AssertionResult validate_rejects(const std::string& field,
                                          Mutate mutate) {
  return rejects_naming(field, [&] { with_content(mutate).validate(); });
}

// Each bound both ways: the bound itself is accepted, one step past it is
// rejected by name.
TEST(ConfigValidate, ContentBounds) {
  using content::ContentParams;
  const double below_zero = std::nextafter(0.0, -1.0);
  EXPECT_NO_THROW(with_content([](ContentParams& c) {
                    c.catalog_size = 1;
                    c.max_library_fraction = 1.0;
                  }).validate());
  EXPECT_TRUE(validate_rejects(
      "catalog_size", [](ContentParams& c) { c.catalog_size = 0; }));
  EXPECT_NO_THROW(with_content([](ContentParams& c) {
                    c.catalog_size = 400;
                    c.query_universe = 400;
                  }).validate());
  EXPECT_TRUE(validate_rejects("query_universe", [](ContentParams& c) {
    c.catalog_size = 400;
    c.query_universe = 399;
  }));
  EXPECT_NO_THROW(
      with_content([](ContentParams& c) { c.file_alpha = 0.0; }).validate());
  EXPECT_TRUE(validate_rejects(
      "file_alpha", [&](ContentParams& c) { c.file_alpha = below_zero; }));
  EXPECT_NO_THROW(
      with_content([](ContentParams& c) { c.query_alpha = 0.0; }).validate());
  EXPECT_TRUE(validate_rejects(
      "query_alpha", [&](ContentParams& c) { c.query_alpha = below_zero; }));
  EXPECT_NO_THROW(
      with_content([](ContentParams& c) { c.free_rider_fraction = 0.0; })
          .validate());
  EXPECT_TRUE(validate_rejects("free_rider_fraction", [&](ContentParams& c) {
    c.free_rider_fraction = below_zero;
  }));
  EXPECT_NO_THROW(with_content([](ContentParams& c) {
                    c.free_rider_fraction = std::nextafter(1.0, 0.0);
                  }).validate());
  EXPECT_TRUE(validate_rejects(
      "free_rider_fraction",
      [](ContentParams& c) { c.free_rider_fraction = 1.0; }));
  EXPECT_NO_THROW(
      with_content([](ContentParams& c) { c.max_library_fraction = 1.0; })
          .validate());
  EXPECT_TRUE(validate_rejects("max_library_fraction", [](ContentParams& c) {
    c.max_library_fraction = std::nextafter(1.0, 2.0);
  }));
  EXPECT_TRUE(validate_rejects(
      "max_library_fraction",
      [](ContentParams& c) { c.max_library_fraction = 0.0; }));
  // The library cap floor(fraction x catalog) must hold one file.
  EXPECT_NO_THROW(with_content([](ContentParams& c) {
                    c.catalog_size = 5;
                    c.max_library_fraction = 0.2;
                  }).validate());
  EXPECT_TRUE(validate_rejects("max_library_fraction", [](ContentParams& c) {
    c.catalog_size = 5;
    c.max_library_fraction = 0.19;
  }));
  EXPECT_TRUE(validate_rejects("max_library_fraction", [](ContentParams& c) {
    c.catalog_size = 5;
    c.max_library_fraction = std::nextafter(0.2, 0.0);
  }));
}

TEST(ConfigValidate, ContentRejectsNonFinite) {
  using content::ContentParams;
  for (double bad : {kNaN, kInf, -kInf}) {
    EXPECT_TRUE(validate_rejects(
        "file_alpha", [&](ContentParams& c) { c.file_alpha = bad; }));
    EXPECT_TRUE(validate_rejects(
        "query_alpha", [&](ContentParams& c) { c.query_alpha = bad; }));
    EXPECT_TRUE(validate_rejects("free_rider_fraction", [&](ContentParams& c) {
      c.free_rider_fraction = bad;
    }));
    EXPECT_TRUE(validate_rejects("max_library_fraction",
                                 [&](ContentParams& c) {
                                   c.max_library_fraction = bad;
                                 }));
  }
}

// --- ProtocolParams (Table 2) ---

TEST(ConfigValidate, ProtocolBounds) {
  auto with = [](auto mutate) {
    ProtocolParams protocol;
    mutate(protocol);
    return SimulationConfig().protocol(protocol);
  };
  EXPECT_THROW(
      with([](ProtocolParams& p) { p.ping_interval = 0.0; }).validate(),
      CheckError);
  EXPECT_THROW(with([](ProtocolParams& p) { p.cache_size = 0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](ProtocolParams& p) { p.pong_size = 0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](ProtocolParams& p) { p.intro_prob = 1.5; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](ProtocolParams& p) { p.parallel_probes = 0; }).validate(),
      CheckError);
}

// --- TransportParams (DESIGN.md §8) ---

TEST(ConfigValidate, TransportBounds) {
  auto with = [](auto mutate) {
    TransportParams transport;
    mutate(transport);
    return SimulationConfig().transport(transport);
  };
  EXPECT_THROW(with([](TransportParams& t) { t.loss = 1.5; }).validate(),
               CheckError);
  EXPECT_THROW(with([](TransportParams& t) { t.loss = kNaN; }).validate(),
               CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.probe_timeout = 0.0; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.link_latency = -0.1; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.link_latency = kInf; }).validate(),
      CheckError);
  EXPECT_THROW(
      with([](TransportParams& t) { t.max_retries = 1001; }).validate(),
      CheckError);
}

// --- Run control ---

TEST(ConfigValidate, RunControlBounds) {
  EXPECT_THROW(SimulationConfig().warmup(-1.0).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().warmup(kNaN).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().measure(-1.0).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().measure(kInf).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().metrics_interval(-60.0).validate(),
               CheckError);
  EXPECT_THROW(SimulationConfig().metrics_interval(kNaN).validate(),
               CheckError);
  EXPECT_THROW(SimulationConfig().threads(-1).validate(), CheckError);

  // Only GUESS reads enable_queries and sample_connectivity: any other
  // backend rejects them, naming the field, instead of ignoring them.
  auto rejection = [](const SimulationConfig& config) -> std::string {
    try {
      config.validate();
    } catch (const CheckError& e) {
      return e.what();
    }
    return "accepted";
  };
  for (SearchBackendId id :
       {SearchBackendId::kFlood, SearchBackendId::kIterative,
        SearchBackendId::kOneHop, SearchBackendId::kGossip}) {
    auto config = SimulationConfig().backend(id);
    EXPECT_NE(rejection(SimulationConfig(config).enable_queries(false))
                  .find("enable_queries"),
              std::string::npos)
        << backend_name(id);
    EXPECT_NE(rejection(SimulationConfig(config).sample_connectivity(true))
                  .find("sample_connectivity"),
              std::string::npos)
        << backend_name(id);
  }
  EXPECT_NO_THROW(
      SimulationConfig().enable_queries(false).sample_connectivity(true)
          .validate());
}

// --- Open-loop arrivals + overload control (DESIGN.md §13) ---

TEST(ConfigValidate, OpenLoopRequiresPositiveOfferedRate) {
  EXPECT_THROW(
      SimulationConfig().arrival(sim::ArrivalMode::kOpen).validate(),
      CheckError);
  EXPECT_THROW(SimulationConfig()
                   .arrival(sim::ArrivalMode::kOpen)
                   .offered_qps(-5.0)
                   .validate(),
               CheckError);
  EXPECT_THROW(SimulationConfig()
                   .arrival(sim::ArrivalMode::kOpen)
                   .offered_qps(kNaN)
                   .validate(),
               CheckError);
  EXPECT_NO_THROW(SimulationConfig()
                      .arrival(sim::ArrivalMode::kOpen)
                      .offered_qps(10.0)
                      .validate());
}

TEST(ConfigValidate, ClosedLoopRejectsOpenLoopKnobs) {
  // offered_qps without --arrival=open is a silent no-op the user almost
  // certainly did not intend; validate turns it into a hard error.
  EXPECT_THROW(SimulationConfig().offered_qps(10.0).validate(), CheckError);
  EXPECT_THROW(
      SimulationConfig().overload_policy(OverloadPolicy::kAdmit).validate(),
      CheckError);
}

TEST(ConfigValidate, SloMustBePositiveAndFinite) {
  EXPECT_THROW(SimulationConfig().slo(0.0).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().slo(-2.0).validate(), CheckError);
  EXPECT_THROW(SimulationConfig().slo(kNaN).validate(), CheckError);
}

TEST(ConfigValidate, OverloadParamBounds) {
  auto with = [](auto mutate) {
    OverloadParams overload;
    mutate(overload);
    return SimulationConfig()
        .arrival(sim::ArrivalMode::kOpen)
        .offered_qps(10.0)
        .overload(overload);
  };
  EXPECT_THROW(with([](OverloadParams& o) { o.max_in_flight = 0; }).validate(),
               CheckError);
  EXPECT_THROW(with([](OverloadParams& o) { o.shed_watermark = 0; }).validate(),
               CheckError);
  EXPECT_NO_THROW(with([](OverloadParams& o) {
                    o.policy = OverloadPolicy::kShed;
                    o.max_in_flight = 1;
                    o.shed_watermark = 1;
                  }).validate());
}

// --- Backend tuning blocks ---

TEST(ConfigValidate, BackendBlockBounds) {
  {
    FloodBackendParams flood;
    flood.ttl = 0;
    EXPECT_THROW(SimulationConfig().flood(flood).validate(), CheckError);
  }
  {
    OneHopBackendParams onehop;
    onehop.dissemination_delay = -1.0;
    EXPECT_THROW(SimulationConfig().onehop(onehop).validate(), CheckError);
  }
  {
    GossipBackendParams gossip;
    gossip.fanout = 0;
    EXPECT_THROW(SimulationConfig().gossip(gossip).validate(), CheckError);
  }
  {
    GossipBackendParams gossip;
    gossip.probe_interval = 0.0;
    EXPECT_THROW(SimulationConfig().gossip(gossip).validate(), CheckError);
  }
}

// --- validate() is the one bound: every config it accepts runs ---

SimulationConfig small_run(std::size_t n, SearchBackendId backend) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  return SimulationConfig().system(system).backend(backend).seed(3).warmup(
      50.0).measure(100.0);
}

// Every backend builds its bursty query stream from the rate, open-loop
// runs included, so a zero rate is rejected up front instead of by a
// constructor after validate() passed.
TEST(ValidatedConfigsRun, ZeroQueryRateRejectedClosedAndOpen) {
  SimulationConfig config = small_run(100, SearchBackendId::kGuess);
  SystemParams system = config.system();
  system.query_rate = 0.0;
  config.system(system);
  EXPECT_THROW(config.validate(), CheckError);
  config.arrival(sim::ArrivalMode::kOpen).offered_qps(5.0);
  EXPECT_THROW(config.validate(), CheckError);
}

// A gossip round needs `fanout` distinct partners besides the peer itself.
TEST(ValidatedConfigsRun, GossipFanoutMustLeaveAPartner) {
  EXPECT_THROW(small_run(2, SearchBackendId::kGossip).validate(), CheckError);
  // The bound is the gossip backend's alone.
  EXPECT_NO_THROW(small_run(2, SearchBackendId::kGuess).validate());
  EXPECT_NO_THROW(search::run_search(small_run(3, SearchBackendId::kGossip)));
}

// Three ContentParams that validate() used to accept, each run through the
// API at n = 50 with the other content fields at their defaults: the first
// threw in the Zipf constructor without naming a field, the second cast
// -4000.0 to size_t (undefined behaviour) and ran, the third capped
// libraries at 20 files of a 10-file catalog and hung in distinct-file
// sampling.
TEST(ValidatedConfigsRun, EmptyCatalogRejectedByName) {
  EXPECT_TRUE(rejects_naming("catalog_size", [] {
    search::run_search(
        with_content([](content::ContentParams& c) { c.catalog_size = 0; }));
  }));
}

TEST(ValidatedConfigsRun, NegativeLibraryFractionRejectedByName) {
  EXPECT_TRUE(rejects_naming("max_library_fraction", [] {
    search::run_search(with_content(
        [](content::ContentParams& c) { c.max_library_fraction = -0.5; }));
  }));
}

TEST(ValidatedConfigsRun, LibraryCapPastCatalogRejectedByName) {
  EXPECT_TRUE(rejects_naming("max_library_fraction", [] {
    search::run_search(with_content([](content::ContentParams& c) {
      c.catalog_size = 10;
      c.query_universe = 20;
      c.max_library_fraction = 2.0;
    }));
  }));
}

// The accepted side of those bounds runs: a one-file cap on a five-file
// catalog, and whole-catalog libraries under uniform popularity.
TEST(ValidatedConfigsRun, ContentAtItsBounds) {
  EXPECT_NO_THROW(
      search::run_search(with_content([](content::ContentParams& c) {
        c.catalog_size = 5;
        c.query_universe = 5;
        c.max_library_fraction = 0.2;
      })));
  EXPECT_NO_THROW(
      search::run_search(with_content([](content::ContentParams& c) {
        c.catalog_size = 10;
        c.query_universe = 10;
        c.file_alpha = 0.0;
        c.query_alpha = 0.0;
        c.max_library_fraction = 1.0;
      })));
}

TEST(ValidatedConfigsRun, FloodUnderTotalLoss) {
  search::SearchResults run = search::run_search(
      small_run(100, SearchBackendId::kFlood)
          .transport(TransportParams::lossy(1.0)));
  EXPECT_GT(run.queries_completed, 0u);
}

// Every probe is lost, so no lookup gets an answer: each completes
// unsatisfied, billed the probes it walked the whole view with.
TEST(ValidatedConfigsRun, OneHopUnderTotalLoss) {
  search::SearchResults run = search::run_search(
      small_run(100, SearchBackendId::kOneHop)
          .transport(TransportParams::lossy(1.0)));
  EXPECT_GT(run.queries_completed, 0u);
  EXPECT_EQ(run.queries_satisfied, 0u);
  EXPECT_GT(run.probes, 100 * run.queries_completed);
}

// Fewer peers than the flood's target degree + 1 leave every peer short of
// its target; connect_to_random's bounded attempts keep wiring finite, and
// a mass kill down to a single survivor still runs.
TEST(ValidatedConfigsRun, FloodBelowTargetDegree) {
  for (std::size_t n = 2; n <= 5; ++n) {
    EXPECT_NO_THROW(search::run_search(small_run(n, SearchBackendId::kFlood)))
        << "n=" << n;
  }
  EXPECT_NO_THROW(search::run_search(
      small_run(5, SearchBackendId::kFlood)
          .scenario(faults::Scenario::parse("at 100 kill 0.8"))));
}

}  // namespace
}  // namespace guess
