// Iterative deepening [22] as a SearchBackend: Figure 8's coarse
// flexible-extent comparator over a static population (DESIGN.md §12.1).
//
// Every query is one baseline::deepen_query walk over
// baseline::default_schedule(n), clamped to the current population.
// Closed-loop runs have no query clock: collect() runs a batch of
// kIterativeQueries walks, Figure 8's estimate. The batch runs outside
// simulated time, so it enters the totals but no interval row; the rows
// carry only the population. Open-loop arrivals each walk once, on
// arrival, and are all an open-loop run measures.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/iterative_deepening.h"
#include "baseline/static_population.h"
#include "content/content_model.h"
#include "search/adapters.h"
#include "search/query_ledger.h"

namespace guess::search {

namespace {

class IterativeBackend final : public SearchBackend {
 public:
  IterativeBackend(const SimulationConfig& config, sim::Simulator& simulator,
                   Rng rng)
      : config_(config),
        simulator_(simulator),
        rng_(std::move(rng)),
        ledger_(simulator) {}

  const char* name() const override { return "iterative"; }

  void bootstrap() override {
    // The content model, then the population drawn from the backend's RNG.
    model_ = std::make_unique<content::ContentModel>(
        config_.system().content);
    population_ = std::make_unique<baseline::StaticPopulation>(
        *model_, config_.system().network_size, rng_);
  }

  void begin_measurement() override { ledger_.begin_measurement(); }

  void start_query(Rng& rng, sim::Time issued) override {
    baseline::DeepeningQuery query = walk(schedule(), rng);
    ledger_.record(query.satisfied, query.probed);
    if (observer_ != nullptr) {
      // The walk is analytic (instantaneous): the query's latency is its
      // controller queueing delay.
      observer_->on_query_complete(simulator_.now() - issued,
                                   query.satisfied);
    }
  }

  void configure_open_loop(QueryObserver* observer) override {
    observer_ = observer;
  }

  void fault_mass_kill(double fraction) override {
    const std::size_t before = population_->size();
    auto count =
        static_cast<std::size_t>(fraction * static_cast<double>(before));
    population_->remove_random(count, rng_);
    ledger_.record_deaths(before - population_->size());
  }
  void fault_mass_join(std::size_t count) override {
    population_->add_random(*model_, count, rng_);
  }

  void begin_intervals(sim::Duration width) override {
    ledger_.begin_intervals(width);
  }
  void sample_interval() override { ledger_.sample_interval(live_peers()); }

  SearchResults collect() override {
    SearchResults out;
    out.backend = name();
    out.network_size = config_.system().network_size;
    // The batch is the closed-loop workload; an open-loop run measures its
    // arrivals alone (a batch on top would double the workload without
    // arriving through the controller).
    if (!config_.open_loop()) {
      std::vector<std::size_t> rings = schedule();
      std::uint64_t satisfied = 0;
      std::uint64_t probes = 0;
      for (std::size_t q = 0; q < kIterativeQueries; ++q) {
        baseline::DeepeningQuery query = walk(rings, rng_);
        ledger_.record_untimed(query.satisfied, query.probed);
        if (query.satisfied) ++satisfied;
        probes += query.probed;
      }
      // Figure 8's estimate: the batch alone, as evaluate_iterative_deepening
      // averages it.
      auto n = static_cast<double>(kIterativeQueries);
      out.extra = baseline::DeepeningResult{
          static_cast<double>(probes) / n,
          static_cast<double>(kIterativeQueries - satisfied) / n};
    }
    ledger_.collect(out, live_peers());
    // Every probed peer is live (static population) and replies.
    out.query_messages = 2 * out.probes;
    out.query_bytes = out.probes * (2 * kWire.header + kWire.probe_payload +
                                    kWire.result_entry);
    return out;
  }

  std::size_t live_peers() const override {
    return population_ == nullptr ? 0 : population_->size();
  }

 private:
  /// The default rings clamped to the current population and deduplicated:
  /// a mass kill can shrink it below the deeper rings, and the rings must
  /// stay strictly increasing.
  std::vector<std::size_t> schedule() const {
    std::vector<std::size_t> rings =
        baseline::default_schedule(config_.system().network_size);
    for (std::size_t& ring : rings) {
      ring = std::min(ring, population_->size());
    }
    rings.erase(std::unique(rings.begin(), rings.end()), rings.end());
    return rings;
  }

  baseline::DeepeningQuery walk(const std::vector<std::size_t>& rings,
                                Rng& rng) const {
    return baseline::deepen_query(
        *population_, *model_, rings,
        static_cast<std::uint32_t>(config_.system().num_desired_results),
        rng);
  }

  SimulationConfig config_;
  sim::Simulator& simulator_;
  Rng rng_;
  std::unique_ptr<content::ContentModel> model_;
  std::unique_ptr<baseline::StaticPopulation> population_;
  QueryObserver* observer_ = nullptr;
  QueryLedger ledger_;
};

}  // namespace

std::unique_ptr<SearchBackend> make_iterative_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng) {
  return std::make_unique<IterativeBackend>(config, simulator,
                                            std::move(rng));
}

}  // namespace guess::search
