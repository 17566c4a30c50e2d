// The factories of the five built-in backends, the registry's starting set
// (DESIGN.md §12.2). Every backend is a SearchBackend built straight from
// SimulationConfig and written against the interface: GUESS (guess.h),
// flood (flood.h), one-hop (onehop.h), iterative deepening (iterative.cc)
// and gossip (gossip.h). Golden runs in
// tests/search/backend_equivalence_test.cc pin every backend's behaviour.
#pragma once

#include <memory>

#include "search/backend.h"

namespace guess::search {

/// Monte-Carlo queries in the iterative backend's closed-loop batch, run over
/// baseline::default_schedule(network_size).
inline constexpr std::size_t kIterativeQueries = 10000;

std::unique_ptr<SearchBackend> make_guess_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);
std::unique_ptr<SearchBackend> make_flood_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);
std::unique_ptr<SearchBackend> make_iterative_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);
std::unique_ptr<SearchBackend> make_onehop_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);
std::unique_ptr<SearchBackend> make_gossip_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);

}  // namespace guess::search
