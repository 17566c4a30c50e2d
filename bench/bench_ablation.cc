// Ablations of the design choices DESIGN.md calls out: the query cache
// (§2.3), the introduction probability, PongSize, and adaptive ping
// maintenance (§6.1). Each block isolates one mechanism under the default
// Table 1/2 configuration.
#include <iostream>
#include <iterator>
#include <vector>

#include "common/table.h"
#include "experiments/harness.h"
#include "search/backend.h"

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  auto scale = experiments::Scale::from_flags(flags);

  SystemParams system;
  ProtocolParams base;

  experiments::print_header(
      std::cout, "Ablations — query cache, IntroProb, PongSize, adaptive ping",
      "each mechanism isolated under paper defaults",
      system, base, scale);

  // --- query cache on/off (§2.3) ---
  {
    TablePrinter table({"query cache", "Probes/Query", "Unsatisfied",
                        "query-cache peers"});
    for (bool use : {true, false}) {
      ProtocolParams p = base;
      p.use_query_cache = use;
      search::SearchResults run = search::run_search(
          SimulationConfig().system(system).protocol(p).options(
              scale.options()));
      const auto& r = *run.extra_as<SimulationResults>();
      table.add_row({std::string(use ? "on" : "off"), r.probes_per_query(),
                     r.unsatisfied_rate(),
                     r.query_cache_population.mean()});
    }
    table.print(std::cout, "ablation: query cache (extent beyond the link "
                           "cache, §2.3)");
  }

  // --- IntroProb sweep (§2.2) ---
  {
    const double intro_probs[] = {0.0, 0.05, 0.1, 0.3, 1.0};
    std::vector<experiments::ConfigJob> jobs;
    for (double p_intro : intro_probs) {
      ProtocolParams p = base;
      p.intro_prob = p_intro;
      jobs.push_back({system, p, scale.options()});
    }
    auto averages = experiments::run_configs(jobs, scale);
    TablePrinter table({"IntroProb", "Probes/Query", "Unsatisfied",
                        "fraction live"});
    for (std::size_t i = 0; i < std::size(intro_probs); ++i) {
      const auto& avg = averages[i];
      table.add_row({intro_probs[i], avg.probes_per_query,
                     avg.unsatisfied_rate, avg.fraction_live});
    }
    table.print(std::cout,
                "ablation: IntroProb (how new peers enter circulation)");
  }

  // --- PongSize sweep (§2.2/§2.3) ---
  {
    const std::size_t pong_sizes[] = {1, 2, 5, 10, 20};
    std::vector<experiments::ConfigJob> jobs;
    for (std::size_t pong : pong_sizes) {
      ProtocolParams p = base;
      p.pong_size = pong;
      jobs.push_back({system, p, scale.options()});
    }
    auto averages = experiments::run_configs(jobs, scale);
    TablePrinter table({"PongSize", "Probes/Query", "Unsatisfied",
                        "fraction live"});
    for (std::size_t i = 0; i < std::size(pong_sizes); ++i) {
      const auto& avg = averages[i];
      table.add_row({static_cast<std::int64_t>(pong_sizes[i]),
                     avg.probes_per_query, avg.unsatisfied_rate,
                     avg.fraction_live});
    }
    table.print(std::cout, "ablation: PongSize (entry-sharing bandwidth)");
  }

  // --- NumDesiredResults (Table 1's satisfaction knob) ---
  {
    TablePrinter table({"NumDesiredResults", "Probes/Query", "Unsatisfied",
                        "resp time (s)"});
    for (std::size_t desired : {1u, 3u, 5u, 10u}) {
      SystemParams s = system;
      s.num_desired_results = desired;
      search::SearchResults run = search::run_search(
          SimulationConfig().system(s).protocol(base).options(
              scale.options()));
      const auto& r = *run.extra_as<SimulationResults>();
      table.add_row({static_cast<std::int64_t>(desired),
                     r.probes_per_query(), r.unsatisfied_rate(),
                     r.response_time.mean()});
    }
    table.print(std::cout,
                "ablation: NumDesiredResults (how much evidence a query "
                "demands)");
  }

  // --- adaptive ping maintenance (§6.1 guideline) ---
  {
    TablePrinter table({"multiplier", "ping mode", "pings sent",
                        "pings to dead", "fraction live"});
    for (double multiplier : {1.0, 0.2}) {
      for (bool adaptive : {false, true}) {
        SystemParams s = system;
        s.lifespan_multiplier = multiplier;
        ProtocolParams p = base;
        p.adaptive_ping.enabled = adaptive;
        p.adaptive_ping.window = 5;
        p.adaptive_ping.dead_low = 0.25;
        SimulationOptions options = scale.options();
        options.enable_queries = false;  // isolate maintenance traffic
        options.warmup = 600.0;
        options.measure = scale.full ? 7200.0 : 3000.0;
        search::SearchResults run = search::run_search(
            SimulationConfig().system(s).protocol(p).options(options));
        const auto& r = *run.extra_as<SimulationResults>();
        table.add_row({multiplier, std::string(adaptive ? "adaptive" : "30s"),
                       static_cast<std::int64_t>(r.pings_sent),
                       static_cast<std::int64_t>(r.pings_to_dead),
                       r.cache_health.fraction_live});
      }
    }
    table.print(std::cout,
                "ablation: adaptive PingInterval (overhead vs freshness)");
  }

  std::cout << "\nReading guide: no query cache caps extent at the link "
               "cache (unsatisfaction up);\nIntroProb=0 starves circulation "
               "of newborn peers; tiny pongs slow discovery;\nadaptive ping "
               "matches maintenance overhead to churn.\n";
  return 0;
}
