// host_probe: times a fixed CPU and memory workload that uses no guesslib
// code, as a measure of how fast the host runs right now.
//
//   e2e_host_probe        # prints {"probe_s": ...}
//
// On a shared host the same simulation can take 1.5x longer for minutes at
// a time. run.py runs this probe between repetitions and scales each
// repetition's wall times by reference / probe time (README, "Host-speed
// normalisation"). The timed work resembles a simulation's: random reads of
// a hash map and a sort, both far larger than the L2 cache. Building the
// map and the keys is not timed: page faults and allocation made the probe
// noisier without making it track the simulations better. It links nothing
// from ../../src, so a change to the library cannot move it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace {

std::uint64_t next(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

int main() {
  constexpr std::uint64_t kKeys = 1u << 20;
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
  constexpr int kLookups = 2'000'000;
  constexpr std::size_t kSorted = 1u << 21;

  std::uint64_t state = 0x2545f4914f6cdd1dull;
  std::uint64_t sink = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) map.emplace(i * kGolden, i);
  std::vector<std::uint64_t> keys(kSorted);
  for (std::uint64_t& k : keys) k = next(state);

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kLookups; ++i) {
    sink += map.find((next(state) & (kKeys - 1)) * kGolden)->second;
  }
  std::sort(keys.begin(), keys.end());
  sink ^= keys[kSorted / 2];

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The checksum keeps the work from being optimised away.
  std::printf("{\"probe_s\": %.6f, \"checksum\": %llu}\n", seconds,
              static_cast<unsigned long long>(sink & 0xffff));
  return 0;
}
