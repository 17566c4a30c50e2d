// Factories for the four ported protocol silos (DESIGN.md §12.2). Each
// adapter wraps its legacy engine unchanged — construction, scheduling and
// collection replicate the legacy free-standing driver exactly, so outputs
// are bitwise-identical (tests/search/backend_equivalence_test.cc). The
// gossip backend (the first interface-native protocol) lives in gossip.h.
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

}  // namespace guess::search
