#include "guess/metrics.h"

#include <cmath>

namespace guess {

namespace {
double per_query(std::uint64_t value, std::uint64_t queries) {
  return queries == 0 ? 0.0
                      : static_cast<double>(value) /
                            static_cast<double>(queries);
}
}  // namespace

TransportCounters& TransportCounters::operator+=(
    const TransportCounters& other) {
  messages_sent += other.messages_sent;
  messages_lost += other.messages_lost;
  timeouts += other.timeouts;
  retransmits += other.retransmits;
  late_replies += other.late_replies;
  exchanges_failed += other.exchanges_failed;
  return *this;
}

TransportCounters TransportCounters::operator-(
    const TransportCounters& other) const {
  TransportCounters out;
  out.messages_sent = messages_sent - other.messages_sent;
  out.messages_lost = messages_lost - other.messages_lost;
  out.timeouts = timeouts - other.timeouts;
  out.retransmits = retransmits - other.retransmits;
  out.late_replies = late_replies - other.late_replies;
  out.exchanges_failed = exchanges_failed - other.exchanges_failed;
  return out;
}

RecoveryMetrics compute_recovery(const IntervalSeries& series,
                                 sim::Time fault_start, sim::Time fault_end,
                                 double epsilon) {
  RecoveryMetrics out;
  out.epsilon = epsilon;

  // Baseline: mean success over intervals that closed before the fault hit.
  double baseline_sum = 0.0;
  std::size_t baseline_n = 0;
  for (const IntervalSample& s : series) {
    if (s.end > fault_start) break;
    if (s.queries_completed == 0) continue;
    baseline_sum += s.success_rate();
    ++baseline_n;
  }
  // No pre-fault signal (fault at t=0, or interval wider than the lead-in):
  // fall back to perfect success so "recovered" means "fully healthy".
  out.baseline = baseline_n == 0 ? 1.0 : baseline_sum / baseline_n;

  double threshold = out.baseline - epsilon;
  std::size_t post_onset_n = 0;
  std::size_t post_onset_ok = 0;
  bool any_during = false;
  for (const IntervalSample& s : series) {
    if (s.end <= fault_start || s.queries_completed == 0) continue;
    double rate = s.success_rate();
    ++post_onset_n;
    if (rate >= threshold) ++post_onset_ok;
    if (!any_during || rate < out.min_during_fault) {
      out.min_during_fault = rate;
      any_during = true;
    }
    // Recovery is only credited to intervals lying wholly after the fault
    // window: a healthy interval *during* a partition (e.g. all queries
    // resolved within one side) is not the network healing.
    if (out.time_to_recovery < 0.0 && s.start >= fault_end &&
        rate >= threshold) {
      out.time_to_recovery = s.end - fault_start;
    }
  }
  if (!any_during) out.min_during_fault = out.baseline;
  out.availability =
      post_onset_n == 0
          ? 1.0
          : static_cast<double>(post_onset_ok) /
                static_cast<double>(post_onset_n);
  return out;
}

double ClassMetrics::unsatisfied_rate() const {
  if (queries_completed == 0) return 0.0;
  return 1.0 - static_cast<double>(queries_satisfied) /
                   static_cast<double>(queries_completed);
}

double ClassMetrics::probes_per_query() const {
  return per_query(probes.total(), queries_completed);
}

double SimulationResults::unsatisfied_rate() const {
  if (queries_completed == 0) return 0.0;
  return 1.0 - static_cast<double>(queries_satisfied) /
                   static_cast<double>(queries_completed);
}

double SimulationResults::probes_per_query() const {
  return per_query(probes.total(), queries_completed);
}

double SimulationResults::good_probes_per_query() const {
  return per_query(probes.good, queries_completed);
}

double SimulationResults::dead_probes_per_query() const {
  return per_query(probes.dead, queries_completed);
}

double SimulationResults::refused_probes_per_query() const {
  return per_query(probes.refused, queries_completed);
}

AveragedResults average(const std::vector<SimulationResults>& runs) {
  AveragedResults out;
  if (runs.empty()) return out;
  auto n = static_cast<double>(runs.size());
  RunningStat probes_stat;
  RunningStat unsat_stat;
  for (const auto& r : runs) {
    probes_stat.add(r.probes_per_query());
    unsat_stat.add(r.unsatisfied_rate());
  }
  if (runs.size() > 1) {
    out.probes_per_query_se = probes_stat.stddev() / std::sqrt(n);
    out.unsatisfied_rate_se = unsat_stat.stddev() / std::sqrt(n);
  }
  for (const auto& r : runs) {
    out.probes_per_query += r.probes_per_query() / n;
    out.good_per_query += r.good_probes_per_query() / n;
    out.dead_per_query += r.dead_probes_per_query() / n;
    out.refused_per_query += r.refused_probes_per_query() / n;
    out.unsatisfied_rate += r.unsatisfied_rate() / n;
    out.fraction_live += r.cache_health.fraction_live / n;
    out.absolute_live += r.cache_health.absolute_live / n;
    out.good_entries += r.cache_health.good_entries / n;
    out.largest_component += r.largest_component.mean() / n;
    out.final_largest_component +=
        static_cast<double>(r.final_largest_component) / n;
    out.final_largest_strong_component +=
        static_cast<double>(r.final_largest_strong_component) / n;
    out.response_time += r.response_time.mean() / n;
    out.queries_completed +=
        static_cast<double>(r.queries_completed) / n;
  }
  return out;
}

}  // namespace guess
