// Minimal --key=value command-line parsing for bench and example binaries.
//
// Every harness accepts the same small vocabulary (--full, --seed=, --seeds=,
// --threads=, --progress, --csv, plus harness-specific overrides); this keeps
// them dependency-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

namespace guess {

/// Parsed command line: positional arguments are rejected, flags are
/// `--name`, `--name=value`. Every name asked about through has() or a
/// getter is recorded, so a binary can reject the flags it never read
/// (reject_unread) instead of silently running without them.
class Flags {
 public:
  /// Throws CheckError on malformed arguments.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Boolean flag: present without value, or =true/=false/=1/=0.
  bool get_bool(const std::string& name, bool fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// A count or size: get_int, but a negative value throws CheckError
  /// naming the flag instead of wrapping through an unsigned cast.
  std::size_t get_size(const std::string& name, std::size_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;

  /// Throws CheckError listing every flag given on the command line that
  /// no has() or getter call has asked about. Call after the last read.
  void reject_unread() const;

  /// Common harness conventions.
  bool full() const { return get_bool("full", false); }
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(get_int("seed", 42));
  }
  int seeds() const { return static_cast<int>(get_size("seeds", 0)); }

  /// Worker threads for seed sweeps. 0 (the default) = auto: the
  /// GUESS_THREADS environment variable when set, else all hardware threads.
  int threads() const { return static_cast<int>(get_size("threads", 0)); }

  /// Event-queue backend name: "heap" (default) or "calendar". Parsed into
  /// sim::Scheduler by the harness (sim::parse_scheduler).
  std::string scheduler() const { return get_string("scheduler", "heap"); }

  /// Report sweep progress (replications completed / total) to stderr.
  bool progress() const { return get_bool("progress", false); }

  /// True when any transport fault-injection flag (--loss, --link-latency,
  /// --probe-timeout, --max-retries; DESIGN.md §8) was given. The flags
  /// themselves, with the scenario and interval flags, are read by
  /// experiments::FaultInjection::from_flags.
  bool has_transport_flags() const {
    return has("loss") || has("link-latency") || has("probe-timeout") ||
           has("max-retries");
  }

  /// Search backend name (--backend=gossip): one of guess, flood,
  /// iterative, onehop, gossip. Parsed by guess::parse_backend.
  std::string backend() const { return get_string("backend", "guess"); }

  // --- open-loop arrivals + overload control (DESIGN.md §13) ---

  /// Arrival mode (--arrival=open): "closed" (default; the population's own
  /// query clocks) or "open" (a configured-rate arrival process). Parsed by
  /// sim::parse_arrival_mode.
  std::string arrival() const { return get_string("arrival", "closed"); }
  /// Offered load in queries/second for open-loop runs (--offered-qps=50).
  double offered_qps() const { return get_double("offered-qps", 0.0); }
  /// Inter-arrival distribution (--arrival-dist=uniform): "poisson"
  /// (default) or "uniform". Parsed by sim::parse_arrival_dist.
  std::string arrival_dist() const {
    return get_string("arrival-dist", "poisson");
  }
  /// Overload policy (--overload-policy=admit): one of none, admit, shed.
  /// Parsed by guess::parse_overload_policy.
  std::string overload_policy() const {
    return get_string("overload-policy", "none");
  }
  /// Latency SLO in milliseconds (--slo-ms=10000); queries satisfied within
  /// it count toward goodput.
  double slo_ms() const { return get_double("slo-ms", 10000.0); }

 private:
  std::optional<std::string> raw(const std::string& name) const;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace guess
