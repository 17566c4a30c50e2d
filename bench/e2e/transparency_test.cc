// Decorator transparency: for every in-tree backend at n = 200, run_search
// produces the same results digest with the timing decorator installed as
// without it. The traced run's per-layer numbers are only trustworthy if
// wrapping a backend changes nothing it simulates.
#include <cstdio>
#include <exception>

#include "guess/config.h"
#include "layers.h"
#include "phased_run.h"
#include "search/backend.h"

int main() {
  using namespace guess;
  int failures = 0;
  try {
    for (SearchBackendId id : search::registered_backends()) {
      SystemParams system;
      system.network_size = 200;
      SimulationConfig config = SimulationConfig()
                                    .system(system)
                                    .backend(id)
                                    .seed(42)
                                    .warmup(60.0)
                                    .measure(120.0)
                                    .metrics_interval(30.0)
                                    .threads(1);
      std::uint64_t plain = e2e::results_digest(search::run_search(config));
      e2e::install_timing_decorator();
      std::uint64_t decorated =
          e2e::results_digest(search::run_search(config));
      e2e::remove_timing_decorator();
      bool same = plain == decorated;
      std::printf("%-10s plain=%016llx decorated=%016llx %s\n",
                  backend_name(id), static_cast<unsigned long long>(plain),
                  static_cast<unsigned long long>(decorated),
                  same ? "ok" : "MISMATCH");
      if (!same) ++failures;
    }
  } catch (const std::exception& e) {
    std::printf("exception: %s\n", e.what());
    return 1;
  }
  return failures == 0 ? 0 : 1;
}
