#include "experiments/harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "common/check.h"
#include "search/backend.h"

namespace guess::experiments {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Scale, ReducedDefaults) {
  auto scale = Scale::from_flags(make({}));
  EXPECT_FALSE(scale.full);
  EXPECT_EQ(scale.seeds, 2);
  EXPECT_DOUBLE_EQ(scale.warmup, 400.0);
  EXPECT_DOUBLE_EQ(scale.measure, 1600.0);
}

TEST(Scale, FullScaleIsLarger) {
  auto reduced = Scale::from_flags(make({}));
  auto full = Scale::from_flags(make({"--full"}));
  EXPECT_TRUE(full.full);
  EXPECT_GT(full.measure, reduced.measure);
  EXPECT_GT(full.seeds, reduced.seeds);
}

TEST(Scale, SeedsOverride) {
  auto scale = Scale::from_flags(make({"--seeds=7", "--seed=99"}));
  EXPECT_EQ(scale.seeds, 7);
  EXPECT_EQ(scale.base_seed, 99u);
  auto options = scale.options();
  EXPECT_EQ(options.seed, 99u);
  EXPECT_DOUBLE_EQ(options.warmup, scale.warmup);
}

TEST(Scale, TransportFlagsThreadThrough) {
  auto scale = Scale::from_flags(
      make({"--loss=0.05", "--probe-timeout=1.5", "--max-retries=2"}));
  EXPECT_EQ(scale.transport.kind, TransportParams::Kind::kLossy);
  EXPECT_DOUBLE_EQ(scale.transport.loss, 0.05);
  EXPECT_DOUBLE_EQ(scale.transport.probe_timeout, 1.5);
  EXPECT_EQ(scale.transport.max_retries, 2u);
}

TEST(Scale, NegativeMaxRetriesRejected) {
  // Would otherwise wrap through the unsigned cast into an effectively
  // unbounded retry count.
  EXPECT_THROW(Scale::from_flags(make({"--max-retries=-1"})), CheckError);
}

TEST(Scale, MaxBackoffFlagThreadsThrough) {
  auto scale = Scale::from_flags(make({"--loss=0.05", "--max-backoff=7.5"}));
  EXPECT_EQ(scale.transport.kind, TransportParams::Kind::kLossy);
  EXPECT_DOUBLE_EQ(scale.transport.max_backoff, 7.5);
  // --max-backoff alone is a transport flag: it switches on LossyTransport.
  auto alone = Scale::from_flags(make({"--max-backoff=5"}));
  EXPECT_EQ(alone.transport.kind, TransportParams::Kind::kLossy);
}

TEST(Scale, NonFiniteTransportFlagsRejected) {
  EXPECT_THROW(Scale::from_flags(make({"--loss=nan"})), CheckError);
  EXPECT_THROW(Scale::from_flags(make({"--loss=0.1", "--link-latency=inf"})),
               CheckError);
  EXPECT_THROW(
      Scale::from_flags(make({"--loss=0.1", "--probe-timeout=nan"})),
      CheckError);
  EXPECT_THROW(Scale::from_flags(make({"--loss=0.1", "--max-backoff=inf"})),
               CheckError);
  EXPECT_THROW(Scale::from_flags(make({"--interval=nan"})), CheckError);
  EXPECT_THROW(Scale::from_flags(make({"--interval=-5"})), CheckError);
}

TEST(Scale, ScenarioFlagParsesAndDefaultsTheInterval) {
  auto scale =
      Scale::from_flags(make({"--scenario=at 600 kill 0.3; at 900 join 50"}));
  ASSERT_EQ(scale.scenario.size(), 2u);
  EXPECT_DOUBLE_EQ(scale.scenario.first_fault_time(), 600.0);
  // A scenario without --interval turns the series on at 60 s buckets.
  EXPECT_DOUBLE_EQ(scale.metrics_interval, 60.0);

  // An explicit --interval wins, including an explicit 0 (series off).
  auto custom = Scale::from_flags(
      make({"--scenario=at 600 kill 0.3", "--interval=15"}));
  EXPECT_DOUBLE_EQ(custom.metrics_interval, 15.0);
  auto off =
      Scale::from_flags(make({"--scenario=at 600 kill 0.3", "--interval=0"}));
  EXPECT_DOUBLE_EQ(off.metrics_interval, 0.0);

  // No scenario: the series stays off by default.
  EXPECT_DOUBLE_EQ(Scale::from_flags(make({})).metrics_interval, 0.0);
  EXPECT_TRUE(Scale::from_flags(make({})).scenario.empty());
}

TEST(Scale, MalformedScenarioFlagThrows) {
  EXPECT_THROW(Scale::from_flags(make({"--scenario=at 600 explode"})),
               CheckError);
}

TEST(Scale, ScenarioFileLoadsAndExclusionEnforced) {
  const std::string path = ::testing::TempDir() + "/guess_harness_scn.txt";
  {
    std::ofstream out(path);
    out << "at 100 partition 2 for 50\n";
  }
  auto scale = Scale::from_flags(make({("--scenario-file=" + path).c_str()}));
  ASSERT_EQ(scale.scenario.size(), 1u);
  EXPECT_EQ(scale.scenario.actions()[0].ways, 2);
  std::remove(path.c_str());

  EXPECT_THROW(Scale::from_flags(make({"--scenario=at 1 join 1",
                                       "--scenario-file=x"})),
               CheckError);
}

TEST(Scale, ScenarioCarriesIntoConfig) {
  auto scale = Scale::from_flags(
      make({"--scenario=at 600 kill 0.3", "--interval=30"}));
  auto config = scale.config();
  EXPECT_EQ(config.scenario().size(), 1u);
  EXPECT_DOUBLE_EQ(config.options().metrics_interval, 30.0);
}

TEST(Harness, PrintHeaderMentionsTheScenario) {
  std::ostringstream os;
  auto scale = Scale::from_flags(make({"--scenario=at 600 kill 0.3"}));
  print_header(os, "Figure 99", "claim", SystemParams{}, ProtocolParams{},
               scale);
  std::string text = os.str();
  EXPECT_NE(text.find("at 600 kill 0.3"), std::string::npos);
  EXPECT_NE(text.find("interval=60"), std::string::npos);
}

TEST(PolicyCombo, PaperNamesMapToPolicyTriples) {
  auto ran = PolicyCombo::from_name("Ran");
  EXPECT_EQ(ran.probe, Policy::kRandom);
  EXPECT_EQ(ran.replacement, Replacement::kRandom);
  EXPECT_FALSE(ran.reset_num_results);

  auto mfs = PolicyCombo::from_name("MFS");
  EXPECT_EQ(mfs.probe, Policy::kMFS);
  EXPECT_EQ(mfs.pong, Policy::kMFS);
  EXPECT_EQ(mfs.replacement, Replacement::kLFS);  // §4: evict least-files

  auto mr = PolicyCombo::from_name("MR");
  EXPECT_EQ(mr.replacement, Replacement::kLR);
  EXPECT_FALSE(mr.reset_num_results);

  auto mr_star = PolicyCombo::from_name("MR*");
  EXPECT_EQ(mr_star.probe, Policy::kMR);
  EXPECT_TRUE(mr_star.reset_num_results);

  // §4's reversal: MRU retention = LRU eviction and vice versa.
  EXPECT_EQ(PolicyCombo::from_name("MRU").replacement, Replacement::kLRU);
  EXPECT_EQ(PolicyCombo::from_name("LRU").replacement, Replacement::kMRU);
}

TEST(PolicyCombo, UnknownNameThrows) {
  EXPECT_THROW(PolicyCombo::from_name("XYZ"), CheckError);
}

TEST(PolicyCombo, ApplyLeavesPingPoliciesAlone) {
  ProtocolParams base;
  base.ping_probe = Policy::kMRU;
  auto params = PolicyCombo::from_name("MFS").apply(base);
  EXPECT_EQ(params.query_probe, Policy::kMFS);
  EXPECT_EQ(params.query_pong, Policy::kMFS);
  EXPECT_EQ(params.cache_replacement, Replacement::kLFS);
  EXPECT_EQ(params.ping_probe, Policy::kMRU);  // untouched
  EXPECT_EQ(params.ping_pong, Policy::kRandom);
}

TEST(RobustnessCombos, MatchesFigures16Through21) {
  const auto& combos = robustness_combos();
  ASSERT_EQ(combos.size(), 4u);
  EXPECT_EQ(combos[0].name, "Ran");
  EXPECT_EQ(combos[1].name, "MR");
  EXPECT_EQ(combos[2].name, "MR*");
  EXPECT_EQ(combos[3].name, "MFS");
}

TEST(Harness, PrintHeaderMentionsEverything) {
  std::ostringstream os;
  SystemParams system;
  ProtocolParams protocol;
  auto scale = Scale::from_flags(make({}));
  print_header(os, "Figure 99", "test claim", system, protocol, scale);
  std::string text = os.str();
  EXPECT_NE(text.find("Figure 99"), std::string::npos);
  EXPECT_NE(text.find("test claim"), std::string::npos);
  EXPECT_NE(text.find("NetworkSize=1000"), std::string::npos);
  EXPECT_NE(text.find("reduced"), std::string::npos);
}

void expect_identical(const AveragedResults& a, const AveragedResults& b) {
  EXPECT_EQ(a.probes_per_query, b.probes_per_query);
  EXPECT_EQ(a.good_per_query, b.good_per_query);
  EXPECT_EQ(a.dead_per_query, b.dead_per_query);
  EXPECT_EQ(a.refused_per_query, b.refused_per_query);
  EXPECT_EQ(a.unsatisfied_rate, b.unsatisfied_rate);
  EXPECT_EQ(a.fraction_live, b.fraction_live);
  EXPECT_EQ(a.absolute_live, b.absolute_live);
  EXPECT_EQ(a.good_entries, b.good_entries);
  EXPECT_EQ(a.largest_component, b.largest_component);
  EXPECT_EQ(a.response_time, b.response_time);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.probes_per_query_se, b.probes_per_query_se);
  EXPECT_EQ(a.unsatisfied_rate_se, b.unsatisfied_rate_se);
  EXPECT_EQ(a.final_largest_component, b.final_largest_component);
  EXPECT_EQ(a.final_largest_strong_component,
            b.final_largest_strong_component);
}

// The run_configs contract (harness.h): flattening jobs x seeds onto one
// pool gives, job by job, exactly the averages of that job's own seed
// sweep, at any thread count. Doubles compare ==.
TEST(Harness, RunConfigsEqualsPerJobSeedSweeps) {
  SystemParams system;
  system.network_size = 100;
  system.content.catalog_size = 300;
  system.content.query_universe = 375;
  SimulationOptions options;
  options.seed = 61;
  options.warmup = 60.0;
  options.measure = 240.0;
  std::vector<ConfigJob> jobs;
  for (const char* name : {"Ran", "MFS", "MR"}) {
    jobs.push_back(
        {system, PolicyCombo::from_name(name).apply(ProtocolParams{}),
         options});
  }
  jobs[2].options.seed = 7;  // each job keeps its own base seed

  std::vector<AveragedResults> expected;
  for (const ConfigJob& job : jobs) {
    SimulationOptions serial = job.options;
    serial.threads = 1;
    std::vector<SimulationResults> runs;
    for (const search::SearchResults& run : search::run_search_seeds(
             SimulationConfig()
                 .system(job.system)
                 .protocol(job.protocol)
                 .options(serial),
             2)) {
      runs.push_back(*run.extra_as<SimulationResults>());
    }
    expected.push_back(average(runs));
  }
  // Distinct jobs give distinct averages, so a misplaced slot would show.
  EXPECT_NE(expected[0].probes_per_query, expected[1].probes_per_query);
  EXPECT_NE(expected[1].probes_per_query, expected[2].probes_per_query);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Scale scale;
    scale.seeds = 2;
    scale.threads = threads;
    std::vector<AveragedResults> swept = run_configs(jobs, scale);
    ASSERT_EQ(swept.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      expect_identical(swept[j], expected[j]);
    }
  }
}

}  // namespace
}  // namespace guess::experiments
