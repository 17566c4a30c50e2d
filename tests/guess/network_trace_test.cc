// Integration of the event tracer with the GUESS backend.
#include <gtest/gtest.h>

#include "common/trace.h"
#include "search/guess.h"
#include "sim/simulator.h"

namespace guess {
namespace {

SystemParams tiny_system() {
  SystemParams system;
  system.network_size = 60;
  system.content.catalog_size = 200;
  system.content.query_universe = 250;
  system.lifespan_multiplier = 0.05;  // ensure some churn events
  return system;
}

TEST(NetworkTrace, RecordsLifecycleAndQueries) {
  sim::Simulator simulator;
  search::GuessBackend network(SimulationConfig().system(tiny_system()),
                               simulator, Rng(5));
  Tracer tracer(kTraceAll, 100000);
  network.set_tracer(&tracer);
  network.bootstrap();
  simulator.run_until(900.0);

  bool saw_birth = false, saw_death = false, saw_query_start = false,
       saw_query_finish = false, saw_ping = false;
  for (const TraceRecord& record : tracer.snapshot()) {
    if (record.line.starts_with("birth")) saw_birth = true;
    if (record.line.starts_with("death")) saw_death = true;
    if (record.line.starts_with("query start")) saw_query_start = true;
    if (record.line.starts_with("query finish")) saw_query_finish = true;
    if (record.line.starts_with("ping")) saw_ping = true;
  }
  EXPECT_TRUE(saw_birth);
  EXPECT_TRUE(saw_death);
  EXPECT_TRUE(saw_query_start);
  EXPECT_TRUE(saw_query_finish);
  EXPECT_TRUE(saw_ping);

  // Timestamps are non-decreasing (events recorded in simulation order).
  auto records = tracer.snapshot();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].at, records[i].at);
  }
}

TEST(NetworkTrace, MaskLimitsToRequestedCategories) {
  sim::Simulator simulator;
  search::GuessBackend network(SimulationConfig().system(tiny_system()),
                               simulator, Rng(5));
  Tracer tracer(static_cast<unsigned>(TraceCategory::kChurn), 100000);
  network.set_tracer(&tracer);
  network.bootstrap();
  simulator.run_until(600.0);
  for (const TraceRecord& record : tracer.snapshot()) {
    EXPECT_EQ(record.category, TraceCategory::kChurn);
  }
  EXPECT_GT(tracer.size(), 0u);
}

TEST(NetworkTrace, AttackEventsSurfaceWithDetection) {
  SystemParams system = tiny_system();
  system.network_size = 200;
  system.lifespan_multiplier = 1.0;
  system.percent_bad_peers = 20.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.query_pong = Policy::kMR;
  protocol.cache_replacement = Replacement::kLR;
  protocol.detection.enabled = true;

  sim::Simulator simulator;
  search::GuessBackend network(
      SimulationConfig().system(system).protocol(protocol), simulator, Rng(7));
  Tracer tracer(static_cast<unsigned>(TraceCategory::kAttack), 100000);
  network.set_tracer(&tracer);
  network.bootstrap();
  simulator.run_until(1200.0);
  bool saw_blacklist = false;
  for (const TraceRecord& record : tracer.snapshot()) {
    if (record.line.starts_with("blacklist")) saw_blacklist = true;
  }
  EXPECT_TRUE(saw_blacklist);
}

TEST(NetworkTrace, NoTracerMeansNoCrash) {
  sim::Simulator simulator;
  search::GuessBackend network(SimulationConfig().system(tiny_system()),
                               simulator, Rng(5));
  network.bootstrap();
  simulator.run_until(300.0);  // trace points are no-ops
  SUCCEED();
}

}  // namespace
}  // namespace guess
