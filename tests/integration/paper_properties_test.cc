// Paper-property tests: each test pins one qualitative claim from the
// evaluation section at reduced scale. The bench harnesses reproduce the
// full tables/figures; these tests keep the shapes from regressing.
#include <gtest/gtest.h>

#include "analysis/load_analysis.h"
#include "baseline/fixed_extent.h"
#include "baseline/iterative_deepening.h"
#include "experiments/harness.h"
#include "search/backend.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

SystemParams base_system(std::size_t n = 250) {
  SystemParams system;
  system.network_size = n;
  system.content.catalog_size = 800;
  system.content.query_universe = 1000;
  return system;
}

SimulationOptions quick(std::uint64_t seed = 42) {
  SimulationOptions options;
  options.seed = seed;
  options.warmup = 150.0;
  options.measure = 800.0;
  return options;
}

SimulationResults run_combo(const char* name, SystemParams system,
                            SimulationOptions options = quick(),
                            ProtocolParams base = ProtocolParams{}) {
  auto combo = experiments::PolicyCombo::from_name(name);
  return testsupport::guess_results(search::run_search(
      SimulationConfig().system(system).protocol(combo.apply(base)).options(
          options)));
}

// The poisoning dynamics depend on the cache:network ratio and the poison
// inflow rate, so the robustness tests run the paper's actual configuration
// (NetworkSize=1000, CacheSize=100) with a short measurement window rather
// than a shrunken network that would distort the attack.
SystemParams attack_system(BadPongBehavior behavior) {
  SystemParams system;  // paper defaults, N=1000
  system.percent_bad_peers = 20.0;
  system.bad_pong_behavior = behavior;
  return system;
}

SimulationOptions attack_options() {
  SimulationOptions options;
  options.seed = 42;
  options.warmup = 200.0;
  options.measure = 700.0;
  return options;
}

// §6.2 / Figure 10-11: MFS pong + LFS replacement beat Random by a large
// factor ("almost an order of magnitude").
TEST(PaperProperties, MfsComboFarCheaperThanRandom) {
  auto random = run_combo("Ran", base_system());
  auto mfs = run_combo("MFS", base_system());
  EXPECT_LT(mfs.probes_per_query() * 3.0, random.probes_per_query());
}

// §6.4: MR beats MR* which beats Random when nobody misbehaves.
TEST(PaperProperties, EfficiencyOrderWithoutAttackers) {
  auto random = run_combo("Ran", base_system());
  auto mr = run_combo("MR", base_system());
  auto mr_star = run_combo("MR*", base_system());
  EXPECT_LT(mr.probes_per_query(), mr_star.probes_per_query());
  EXPECT_LT(mr_star.probes_per_query(), random.probes_per_query());
}

// §6.3 / Figure 13: efficient policies concentrate load.
TEST(PaperProperties, MfsConcentratesLoad) {
  auto random = run_combo("Ran", base_system());
  auto mfs = run_combo("MFS", base_system());
  auto gini = [](const SimulationResults& r) {
    return analysis::gini_coefficient(r.peer_loads.values());
  };
  EXPECT_GT(gini(mfs), gini(random) + 0.15);
}

// §6.4 / Figures 16-18 (no collusion): MFS collapses, MR stays healthy.
TEST(PaperProperties, DeadPoisoningBreaksMfsNotMr) {
  SystemParams attacked = attack_system(BadPongBehavior::kDead);
  auto mfs = run_combo("MFS", attacked, attack_options());
  auto mr = run_combo("MR", attacked, attack_options());
  EXPECT_GT(mfs.unsatisfied_rate(), 0.5);
  EXPECT_LT(mr.unsatisfied_rate(), 0.35);
  EXPECT_LT(mfs.cache_health.good_entries, mr.cache_health.good_entries);
}

// §6.4 / Figures 19-21 (collusion): MR also collapses; MR* and Random
// stay robust.
TEST(PaperProperties, CollusionBreaksMrButNotMrStar) {
  SystemParams attacked = attack_system(BadPongBehavior::kBad);
  auto mr = run_combo("MR", attacked, attack_options());
  auto mfs = run_combo("MFS", attacked, attack_options());
  auto mr_star = run_combo("MR*", attacked, attack_options());
  auto random = run_combo("Ran", attacked, attack_options());
  EXPECT_GT(mr.unsatisfied_rate(), 0.8);
  EXPECT_GT(mfs.unsatisfied_rate(), 0.8);
  EXPECT_LT(mr_star.unsatisfied_rate(), 0.3);
  // Random stays usable while the trusting policies collapse. (Our Random
  // degrades somewhat more at 20% collusion than the paper's curves — the
  // always-insert Random replacement ingests poison at full rate — but the
  // robustness ordering is the paper's; see EXPERIMENTS.md.)
  EXPECT_LT(random.unsatisfied_rate(), 0.6);
  EXPECT_LT(random.unsatisfied_rate() + 0.2, mr.unsatisfied_rate());
  EXPECT_LT(mr_star.unsatisfied_rate(), random.unsatisfied_rate());
  // MR* remains more efficient than Random even under attack.
  EXPECT_LT(mr_star.probes_per_query(), random.probes_per_query());
}

// §6.1 / Figure 6: longer ping intervals fragment the overlay; short ones
// keep it connected.
TEST(PaperProperties, PingIntervalGovernsConnectivity) {
  auto run_connectivity = [](double interval) {
    SystemParams system = base_system();
    system.lifespan_multiplier = 0.2;
    ProtocolParams protocol;
    protocol.cache_size = 20;
    protocol.ping_interval = interval;
    SimulationOptions options = quick();
    options.enable_queries = false;
    options.sample_connectivity = true;
    options.measure = 1500.0;
    return testsupport::guess_results(
               search::run_search(SimulationConfig()
                                      .system(system)
                                      .protocol(protocol)
                                      .options(options)))
        .largest_component.mean();
  };
  double tight = run_connectivity(10.0);
  double loose = run_connectivity(500.0);
  EXPECT_GT(tight, loose);
  EXPECT_GT(tight, 0.9 * 250.0);  // short interval: essentially connected
}

// §6.1 / Table 3: bigger caches hold a smaller fraction of live entries
// but more live entries in absolute terms.
TEST(PaperProperties, CacheSizeLivenessTradeoff) {
  auto run_cache = [](std::size_t cache_size) {
    SystemParams system = base_system();
    system.lifespan_multiplier = 0.2;
    ProtocolParams protocol;
    protocol.cache_size = cache_size;
    return testsupport::guess_results(
               search::run_search(SimulationConfig()
                                      .system(system)
                                      .protocol(protocol)
                                      .options(quick())))
        .cache_health;
  };
  auto small = run_cache(10);
  auto large = run_cache(120);
  EXPECT_GT(small.fraction_live, large.fraction_live);
  EXPECT_LT(small.absolute_live, large.absolute_live);
}

// §6.2 / Figure 8: flexible extent (GUESS) is far cheaper than fixed extent
// at comparable satisfaction; iterative deepening lands in between.
TEST(PaperProperties, FlexibleExtentBeatsFixedExtent) {
  SystemParams system = base_system();
  auto guess_results = run_combo("Ran", system);

  content::ContentModel model(system.content);
  Rng rng(3);
  baseline::StaticPopulation population(model, system.network_size, rng);
  // Find the fixed extent matching GUESS's unsatisfaction rate.
  double target = guess_results.unsatisfied_rate();
  std::size_t needed = system.network_size;
  for (std::size_t extent : {25u, 50u, 100u, 150u, 200u, 250u}) {
    auto point =
        evaluate_fixed_extent(population, model, extent, 4000, 1, rng);
    if (point.unsatisfied_rate <= target + 0.01) {
      needed = extent;
      break;
    }
  }
  EXPECT_GT(static_cast<double>(needed),
            guess_results.probes_per_query() * 1.3);

  auto deepening = baseline::evaluate_iterative_deepening(
      population, model, baseline::default_schedule(system.network_size),
      4000, 1, rng);
  EXPECT_LT(deepening.avg_cost, static_cast<double>(system.network_size));
}

// §6.3 / Figure 15: capacity limits barely move satisfaction (the implicit
// throttling redistributes load).
TEST(PaperProperties, SatisfactionRobustToCapacityLimits) {
  auto run_capacity = [](std::uint32_t cap) {
    SystemParams system = base_system();
    system.max_probes_per_second = cap;
    auto combo = experiments::PolicyCombo::from_name("MR");
    return testsupport::guess_results(search::run_search(
        SimulationConfig()
            .system(system)
            .protocol(combo.apply(ProtocolParams{}))
            .options(quick())));
  };
  auto ample = run_capacity(50);
  auto tight = run_capacity(2);
  EXPECT_LT(std::abs(tight.unsatisfied_rate() - ample.unsatisfied_rate()),
            0.12);
}

}  // namespace
}  // namespace guess
