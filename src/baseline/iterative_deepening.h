// Iterative deepening [22] — the coarse-grained flexible-extent comparator
// of Figure 8.
//
// The query is sent to rings of increasing size: first `schedule[0]` peers;
// if unsatisfied, extended to `schedule[1]`, and so on. Extent control is
// flexible but coarse (whole rings at a time), so cost lands between fixed
// extent and GUESS.
#pragma once

#include <cstddef>
#include <vector>

#include "baseline/static_population.h"
#include "common/rng.h"
#include "content/content_model.h"

namespace guess::baseline {

struct DeepeningResult {
  double avg_cost = 0.0;         ///< average peers probed per query
  double unsatisfied_rate = 0.0;
};

/// One query's walk: peers probed (whole rings) and whether it found enough
/// results.
struct DeepeningQuery {
  std::size_t probed = 0;
  bool satisfied = false;
};

/// Run one query: draw its file, then one random ordering of the
/// population, and extend the probe ring by ring (each ring extends, not
/// resamples, the previous one) until `desired_results` are found or the
/// schedule runs out. The schedule is taken as valid.
DeepeningQuery deepen_query(const StaticPopulation& population,
                            const content::ContentModel& model,
                            const std::vector<std::size_t>& schedule,
                            std::uint32_t desired_results, Rng& rng);

/// `num_queries` deepen_query walks, averaged.
/// @param schedule  cumulative ring sizes, strictly increasing (the paper's
///                  "many peers (e.g., hundreds) probed in each iteration").
DeepeningResult evaluate_iterative_deepening(
    const StaticPopulation& population, const content::ContentModel& model,
    const std::vector<std::size_t>& schedule, std::size_t num_queries,
    std::uint32_t desired_results, Rng& rng);

/// The default policy of [22] scaled to the population: rings at 20%, 50%
/// and 100% of the network.
std::vector<std::size_t> default_schedule(std::size_t network_size);

}  // namespace guess::baseline
