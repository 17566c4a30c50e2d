// Event-core throughput harness: measures raw scheduler events/sec on a
// churn-heavy synthetic workload (self-rescheduling ping chains with
// death-driven cancellations — the simulator's dominant event pattern), and
// end-to-end GUESS simulation throughput, for
//
//   heap      — the slab-backed binary-heap backend;
//   calendar  — the slab-backed calendar-queue backend.
//
// Results are printed as a table and written to BENCH_events.json (override
// with --out=...). --events, --peers, --seed scale the synthetic phase;
// --network, --measure scale the end-to-end phase; --full uses the larger
// defaults quoted in README.md.
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "search/backend.h"
#include "sim/event_queue.h"

namespace guess {
namespace {

// --- Synthetic churn-heavy workload ---------------------------------------

struct Throughput {
  double seconds = 0.0;
  long long events = 0;
  double events_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
  double ns_per_event() const {
    return events > 0 ? seconds * 1e9 / static_cast<double>(events) : 0.0;
  }
};

// Every peer keeps one self-rescheduling ping timer; each fired event has a
// 1-in-16 chance of a peer death, which cancels a random peer's pending
// timer and arms a replacement — the schedule/cancel/pop mix a churning
// GUESS network generates.
Throughput run_churn_workload(sim::EventQueue& queue, int peers,
                              long long events, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<sim::EventHandle> ping(static_cast<std::size_t>(peers));
  int last = -1;
  auto timer_cb = [&last](int p) {
    return [&last, p] { last = p; };
  };
  sim::Time now = 0.0;
  for (int p = 0; p < peers; ++p) {
    ping[static_cast<std::size_t>(p)] =
        queue.schedule(now + rng.uniform(0.0, 1.0), timer_cb(p));
  }

  auto start = std::chrono::steady_clock::now();
  long long fired = 0;
  while (fired < events) {
    sim::Time at = 0.0;
    queue.pop(at)();
    now = at;
    ++fired;
    int reborn = -1;
    if (rng.bernoulli(1.0 / 16.0)) {
      int victim = static_cast<int>(rng.index(static_cast<std::size_t>(peers)));
      auto& h = ping[static_cast<std::size_t>(victim)];
      h.cancel();
      h = queue.schedule(now + rng.uniform(0.5, 1.5), timer_cb(victim));
      reborn = victim;
    }
    if (last != reborn) {
      ping[static_cast<std::size_t>(last)] =
          queue.schedule(now + rng.uniform(0.5, 1.5), timer_cb(last));
    }
  }
  auto stop = std::chrono::steady_clock::now();
  Throughput out;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  out.events = fired;
  return out;
}

// --- End-to-end: a churn-heavy GUESS run under each backend ---------------

struct EndToEnd {
  Throughput throughput;
  SimulationResults results;
};

EndToEnd run_simulation(sim::Scheduler scheduler, std::size_t network,
                        sim::Duration measure, std::uint64_t seed) {
  SystemParams system;
  system.network_size = network;
  system.lifespan_multiplier = 0.2;  // the paper's churn-strain setting
  system.content.catalog_size = 800;
  system.content.query_universe = 1000;
  ProtocolParams protocol;
  SimulationOptions options;
  options.seed = seed;
  options.warmup = measure / 4.0;
  options.measure = measure;
  options.scheduler = scheduler;
  auto config =
      SimulationConfig().system(system).protocol(protocol).options(options);
  auto start = std::chrono::steady_clock::now();
  search::SearchResults run = search::run_search(config);
  auto stop = std::chrono::steady_clock::now();
  EndToEnd out;
  out.results = *run.extra_as<SimulationResults>();
  out.throughput.seconds =
      std::chrono::duration<double>(stop - start).count();
  out.throughput.events = static_cast<long long>(run.events_fired);
  return out;
}

void write_json(const std::string& path, int peers, long long events,
                const Throughput& heap, const Throughput& calendar,
                std::size_t network, sim::Duration measure,
                const EndToEnd& e2e_heap, const EndToEnd& e2e_calendar,
                bool identical) {
  std::ofstream out(path);
  GUESS_CHECK_MSG(out.good(), "cannot write " << path);
  out << std::fixed << std::setprecision(1);
  auto queue_obj = [&](const char* name, const Throughput& t, bool last) {
    out << "    \"" << name << "\": {\"events_per_sec\": "
        << t.events_per_sec() << ", \"ns_per_event\": " << t.ns_per_event()
        << "}" << (last ? "" : ",") << "\n";
  };
  out << "{\n";
  out << "  \"workload\": {\"peers\": " << peers << ", \"events\": " << events
      << "},\n";
  out << "  \"queues\": {\n";
  queue_obj("slab_heap", heap, false);
  queue_obj("slab_calendar", calendar, true);
  out << "  },\n";
  out << "  \"end_to_end\": {\n";
  out << "    \"network_size\": " << network
      << ", \"measure_seconds\": " << measure << ",\n";
  out << "    \"heap\": {\"wall_seconds\": " << std::setprecision(3)
      << e2e_heap.throughput.seconds
      << ", \"events\": " << e2e_heap.throughput.events
      << ", \"events_per_sec\": " << std::setprecision(1)
      << e2e_heap.throughput.events_per_sec() << "},\n";
  out << "    \"calendar\": {\"wall_seconds\": " << std::setprecision(3)
      << e2e_calendar.throughput.seconds
      << ", \"events\": " << e2e_calendar.throughput.events
      << ", \"events_per_sec\": " << std::setprecision(1)
      << e2e_calendar.throughput.events_per_sec() << "},\n";
  out << "    \"schedulers_bitwise_identical\": "
      << (identical ? "true" : "false") << "\n";
  out << "  }\n";
  out << "}\n";
}

}  // namespace
}  // namespace guess

int main(int argc, char** argv) {
  using namespace guess;
  Flags flags(argc, argv);
  const bool full = flags.full();
  const int peers = static_cast<int>(flags.get_size("peers", 512));
  const auto events = static_cast<long long>(
      flags.get_size("events", full ? 4'000'000 : 1'000'000));
  const std::size_t network = flags.get_size("network", full ? 1000 : 400);
  const double measure = flags.get_double("measure", full ? 1200.0 : 300.0);
  const std::uint64_t seed = flags.seed();
  const std::string out_path =
      flags.get_string("out", "BENCH_events.json");
  flags.reject_unread();

  std::cout << "# Event-core throughput — churn-heavy workload (peers="
            << peers << ", events=" << events << ", seed=" << seed << ")\n";

  sim::EventQueue heap_queue(sim::Scheduler::kHeap);
  Throughput heap = run_churn_workload(heap_queue, peers, events, seed);
  sim::EventQueue calendar_queue(sim::Scheduler::kCalendar);
  Throughput calendar =
      run_churn_workload(calendar_queue, peers, events, seed);

  TablePrinter table({"queue", "events/sec", "ns/event"});
  auto row = [&](const char* name, const Throughput& t) {
    table.add_row({std::string(name),
                   static_cast<std::int64_t>(t.events_per_sec()),
                   static_cast<std::int64_t>(t.ns_per_event())});
  };
  row("slab_heap", heap);
  row("slab_calendar", calendar);
  table.print(std::cout, "synthetic churn-heavy workload");

  std::cout << "\n# End-to-end GUESS simulation (network=" << network
            << ", measure=" << measure << "s, LifespanMultiplier=0.2)\n";
  EndToEnd e2e_heap =
      run_simulation(sim::Scheduler::kHeap, network, measure, seed);
  EndToEnd e2e_calendar =
      run_simulation(sim::Scheduler::kCalendar, network, measure, seed);
  bool identical =
      e2e_heap.results.queries_completed ==
          e2e_calendar.results.queries_completed &&
      e2e_heap.results.queries_satisfied ==
          e2e_calendar.results.queries_satisfied &&
      e2e_heap.results.probes.good == e2e_calendar.results.probes.good &&
      e2e_heap.results.deaths == e2e_calendar.results.deaths;

  TablePrinter e2e({"scheduler", "wall s", "events", "events/sec"});
  auto e2e_row = [&](const char* name, const EndToEnd& e) {
    e2e.add_row({std::string(name), e.throughput.seconds,
                 static_cast<std::int64_t>(e.throughput.events),
                 static_cast<std::int64_t>(
                     e.throughput.events_per_sec())});
  };
  e2e_row("heap", e2e_heap);
  e2e_row("calendar", e2e_calendar);
  e2e.print(std::cout, "end-to-end GUESS simulation");
  std::cout << "schedulers bitwise identical: "
            << (identical ? "yes" : "NO — BUG") << "\n";

  write_json(out_path, peers, events, heap, calendar, network, measure,
             e2e_heap, e2e_calendar, identical);
  std::cout << "wrote " << out_path << "\n";
  return identical ? 0 : 1;
}
