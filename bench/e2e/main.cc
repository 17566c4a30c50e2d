// e2e_bench: one repetition of one benchmark workload, in this process.
//
//   e2e_bench --workload=paper-5k --seed=42            # untraced rep
//   e2e_bench --workload=paper-5k --seed=42 --trace    # traced run
//   e2e_bench --workload=all --smoke --trace            # every shape, n=200
//
// Prints one JSON line per workload: phase wall times, the end-to-end
// numbers, the results digest and any failed correctness check; a traced
// run adds the per-layer metrics. Exits nonzero when a check failed.
// run.py drives this binary, one fresh process per repetition.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "json.h"
#include "layers.h"
#include "phased_run.h"
#include "search/backend.h"
#include "workloads.h"

namespace guess::e2e {
namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : "; ") + p;
  return out;
}

/// Run one workload; returns false if a correctness check failed.
bool run_one(const Workload& workload, bool trace) {
  JsonObject record;
  record.str("workload", workload.name)
      .num("seed", workload.config.seed())
      .boolean("traced", trace)
      .object("config", describe_workload(workload));
  std::vector<std::string> failures;
  try {
    if (trace) install_timing_decorator();
    PhasedRun run = run_phased(workload.config, trace ? 5.0 : 0.0);
    const double peak = peak_rss_mb();
    const std::uint64_t digest = results_digest(run.results);
    failures = check_identities(run);
    if (trace) {
      // The same config through the library's own driver, undecorated:
      // equal digests prove the phase-split replay and the decorator both
      // leave the simulation untouched.
      remove_timing_decorator();
      std::uint64_t reference =
          results_digest(search::run_search(workload.config));
      if (reference != digest) {
        failures.push_back("traced digest " + hex(digest) +
                           " != run_search digest " + hex(reference));
      }
    }
    const search::SearchResults& r = run.results;
    const PhaseTimes& ph = run.phases;
    record.str("digest", hex(digest))
        .num("construct_s", ph.construct_s)
        .num("bootstrap_s", ph.bootstrap_s)
        .num("warmup_s", ph.warmup_s)
        .num("measure_s", ph.measure_s)
        .num("collect_s", ph.collect_s)
        .num("setup_s", ph.setup_s())
        .num("run_s", ph.run_s())
        .num("queries_completed", r.queries_completed)
        .num("queries_satisfied", r.queries_satisfied)
        .num("probes", r.probes)
        .num("queries_per_s",
             static_cast<double>(r.queries_completed) / ph.measure_s)
        .num("peak_rss_mb", peak);
    if (trace) record.object("layers", layer_metrics(workload, run, peak));
  } catch (const std::exception& e) {
    failures.push_back(std::string("exception: ") + e.what());
  }
  record.str("failures", join(failures));
  std::cout << record.dump() << std::endl;
  return failures.empty();
}

}  // namespace
}  // namespace guess::e2e

int main(int argc, char** argv) {
  using namespace guess;
  using namespace guess::e2e;
  std::vector<Workload> workloads;
  bool trace = false;
  try {
    Flags flags(argc, argv);
    trace = flags.get_bool("trace", false);
    const bool smoke = flags.get_bool("smoke", false);
    const std::string name = flags.get_string("workload", "");
    std::vector<std::string> names =
        name == "all" ? workload_names() : std::vector<std::string>{name};
    for (const std::string& n : names) {
      workloads.push_back(make_workload(n, flags.seed(), smoke));
    }
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
  bool ok = true;
  for (const Workload& w : workloads) ok = run_one(w, trace) && ok;
  return ok ? 0 : 1;
}
