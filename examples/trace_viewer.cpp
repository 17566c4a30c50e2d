// trace_viewer: replay a short GUESS run with the event tracer attached and
// print the tail of the event log — the debugging workflow for policy
// investigations (reproduce with the same --seed, read what happened).
//
//   ./build/examples/trace_viewer --seconds=120 --last=60
//   ./build/examples/trace_viewer --categories=attack --bad=20
#include <iostream>

#include "common/flags.h"
#include "common/trace.h"
#include "guess/network.h"
#include "sim/simulator.h"

namespace {

unsigned parse_categories(const std::string& spec) {
  if (spec == "all") return guess::kTraceAll;
  unsigned mask = 0;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    std::string name = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (name == "churn") mask |= static_cast<unsigned>(guess::TraceCategory::kChurn);
    else if (name == "ping") mask |= static_cast<unsigned>(guess::TraceCategory::kPing);
    else if (name == "query") mask |= static_cast<unsigned>(guess::TraceCategory::kQuery);
    else if (name == "cache") mask |= static_cast<unsigned>(guess::TraceCategory::kCache);
    else if (name == "attack") mask |= static_cast<unsigned>(guess::TraceCategory::kAttack);
    else {
      std::cerr << "unknown category: " << name
                << " (use churn,ping,query,cache,attack or all)\n";
      std::exit(1);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return mask;
}

}  // namespace

int main(int argc, char** argv) {
  guess::Flags flags(argc, argv);
  double seconds = flags.get_double("seconds", 120.0);
  const std::size_t last = flags.get_size("last", 80);
  unsigned mask = parse_categories(flags.get_string("categories", "all"));

  guess::SystemParams system;
  system.network_size = flags.get_size("n", 100);
  system.lifespan_multiplier = flags.get_double("lifespan", 0.2);
  system.percent_bad_peers = flags.get_double("bad", 0.0);
  system.bad_pong_behavior = guess::BadPongBehavior::kBad;

  guess::ProtocolParams protocol;
  if (system.percent_bad_peers > 0.0) {
    // Watching an attack: MR policies plus detection make the attack and
    // the response visible in the log.
    protocol.query_probe = guess::Policy::kMR;
    protocol.query_pong = guess::Policy::kMR;
    protocol.cache_replacement = guess::Replacement::kLR;
    protocol.detection.enabled = true;
  }

  guess::sim::Simulator simulator;
  guess::GuessNetwork network(
      guess::SimulationConfig().system(system).protocol(protocol), simulator,
      guess::Rng(flags.seed()));
  flags.reject_unread();
  guess::Tracer tracer(mask, 1u << 20);
  network.set_tracer(&tracer);
  network.initialize();
  simulator.run_until(seconds);

  auto records = tracer.snapshot();
  std::size_t begin = records.size() > last ? records.size() - last : 0;
  std::cout << "recorded " << tracer.total_recorded() << " events over "
            << seconds << " simulated seconds; showing the last "
            << records.size() - begin << ":\n\n";
  guess::Tracer tail(mask, last + 1);
  for (std::size_t i = begin; i < records.size(); ++i) {
    tail.record(records[i].category, records[i].at, records[i].line);
  }
  tail.dump(std::cout);
  return 0;
}
