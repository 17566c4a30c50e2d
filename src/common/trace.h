// Lightweight event tracing for simulations.
//
// A Tracer is a bounded ring buffer of (time, category, line) records.
// Tracing is opt-in per category; when a category is off the only cost at a
// trace point is one branch, so instrumented code can stay instrumented.
// Intended use: attach to the GUESS backend, reproduce a puzzling run with the
// same seed, and read the event log (see examples/trace_viewer.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.h"

namespace guess {

enum class TraceCategory : unsigned {
  kChurn = 1u << 0,      ///< births, deaths
  kPing = 1u << 1,       ///< pings, pongs, evictions by ping
  kQuery = 1u << 2,      ///< query start/probe/finish
  kCache = 1u << 3,      ///< link-cache insertions/evictions
  kAttack = 1u << 4,     ///< poisoning, detection, blacklisting
  kTransport = 1u << 5,  ///< message loss, timeouts, retransmits
  kFault = 1u << 6,      ///< scenario faults: mass kills, partitions, windows
};

/// Every category, in bit order. New categories must be appended here (and
/// to Tracer::category_name) — kTraceAll is derived from this list, so a
/// forgotten entry fails the static_assert below instead of being silently
/// excluded from default-constructed tracers.
inline constexpr TraceCategory kTraceCategories[] = {
    TraceCategory::kChurn, TraceCategory::kPing,   TraceCategory::kQuery,
    TraceCategory::kCache, TraceCategory::kAttack, TraceCategory::kTransport,
    TraceCategory::kFault,
};

namespace trace_detail {
constexpr unsigned all_categories_mask() {
  unsigned mask = 0;
  for (TraceCategory category : kTraceCategories) {
    mask |= static_cast<unsigned>(category);
  }
  return mask;
}
}  // namespace trace_detail

inline constexpr unsigned kTraceAll = trace_detail::all_categories_mask();

static_assert(kTraceAll ==
                  (1u << (sizeof(kTraceCategories) /
                          sizeof(kTraceCategories[0]))) -
                      1,
              "TraceCategory values must be distinct single bits starting at "
              "bit 0 with no gaps, and every category must be listed in "
              "kTraceCategories");

struct TraceRecord {
  sim::Time at = 0.0;
  TraceCategory category = TraceCategory::kChurn;
  std::string line;
};

/// Bounded event log. Not thread-safe (the simulator is single-threaded).
class Tracer {
 public:
  /// @param category_mask  OR of TraceCategory bits to record
  /// @param capacity       ring size; older records are dropped
  explicit Tracer(unsigned category_mask = kTraceAll,
                  std::size_t capacity = 4096);

  bool on(TraceCategory category) const {
    return (mask_ & static_cast<unsigned>(category)) != 0;
  }

  /// Append a record (dropped silently if the category is off).
  void record(TraceCategory category, sim::Time at, std::string line);

  /// Records in chronological order (oldest survivor first).
  std::vector<TraceRecord> snapshot() const;

  std::size_t size() const { return count_ < capacity_ ? count_ : capacity_; }
  std::uint64_t total_recorded() const { return count_; }
  std::size_t capacity() const { return capacity_; }

  /// Human-readable dump, one record per line.
  void dump(std::ostream& os) const;

  static const char* category_name(TraceCategory category);

 private:
  unsigned mask_;
  std::size_t capacity_;
  std::vector<TraceRecord> ring_;
  std::uint64_t count_ = 0;  // total records ever accepted
};

}  // namespace guess
