// The benchmark's named workloads (README.md gives the why of each).
//
// A workload is a SimulationConfig built from a name and a seed; the
// library sees nothing else. --smoke keeps each workload's shape (backend,
// policies, transport, scenario, arrival mode) at n = 200 so the whole
// set runs in seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "guess/config.h"
#include "json.h"

namespace guess::e2e {

struct Workload {
  std::string name;
  SimulationConfig config;
};

/// Every workload name, in the order `--workload=all` runs them.
const std::vector<std::string>& workload_names();

/// Build a workload; throws CheckError naming an unknown workload.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

/// The config fields a workload sets, for the run manifest.
JsonObject describe_workload(const Workload& workload);

}  // namespace guess::e2e
