#include "baseline/iterative_deepening.h"

#include <algorithm>

#include "common/check.h"

namespace guess::baseline {

std::vector<std::size_t> default_schedule(std::size_t network_size) {
  std::vector<std::size_t> schedule = {
      std::max<std::size_t>(1, network_size / 5),
      std::max<std::size_t>(1, network_size / 2), network_size};
  schedule.erase(std::unique(schedule.begin(), schedule.end()),
                 schedule.end());
  return schedule;
}

DeepeningQuery deepen_query(const StaticPopulation& population,
                            const content::ContentModel& model,
                            const std::vector<std::size_t>& schedule,
                            std::uint32_t desired_results, Rng& rng) {
  content::FileId file = model.draw_query(rng);
  std::vector<std::size_t> order =
      rng.sample_indices(population.size(), schedule.back());
  DeepeningQuery query;
  std::uint32_t results = 0;
  for (std::size_t ring : schedule) {
    results += population.results_in_prefix(file, order, query.probed, ring);
    query.probed = ring;
    if (results >= desired_results) {
      query.satisfied = true;
      break;
    }
  }
  return query;
}

DeepeningResult evaluate_iterative_deepening(
    const StaticPopulation& population, const content::ContentModel& model,
    const std::vector<std::size_t>& schedule, std::size_t num_queries,
    std::uint32_t desired_results, Rng& rng) {
  GUESS_CHECK(!schedule.empty());
  GUESS_CHECK(num_queries > 0);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    GUESS_CHECK_MSG(schedule[i] > schedule[i - 1],
                    "schedule must be strictly increasing");
  }
  GUESS_CHECK(schedule.back() <= population.size());

  std::uint64_t total_cost = 0;
  std::size_t unsatisfied = 0;
  for (std::size_t q = 0; q < num_queries; ++q) {
    DeepeningQuery query =
        deepen_query(population, model, schedule, desired_results, rng);
    total_cost += query.probed;
    if (!query.satisfied) ++unsatisfied;
  }
  return DeepeningResult{
      static_cast<double>(total_cost) / static_cast<double>(num_queries),
      static_cast<double>(unsatisfied) / static_cast<double>(num_queries)};
}

}  // namespace guess::baseline
