#include "search/query_ledger.h"

#include "common/check.h"

namespace guess::search {

void QueryLedger::begin_measurement() {
  measuring_ = true;
  completed_ = satisfied_ = probes_ = deaths_ = 0;
  response_time_ = RunningStat{};
  probe_samples_ = SampleSet{};
}

void QueryLedger::begin_intervals(sim::Duration width,
                                  const TransportCounters& transport) {
  GUESS_CHECK_MSG(width > 0.0, "interval width must be > 0");
  rows_on_ = true;
  rows_.clear();
  row_ = IntervalSample{};
  row_.start = simulator_.now();
  row_transport_ = transport;
}

void QueryLedger::sample_interval(std::size_t live_peers,
                                  const TransportCounters& transport) {
  if (!rows_on_) return;
  rows_.push_back(open_row(live_peers, transport));
  row_ = IntervalSample{};
  row_.start = rows_.back().end;
  row_transport_ = transport;
}

void QueryLedger::record(bool satisfied, std::uint64_t probes) {
  if (rows_on_) {
    ++row_.queries_completed;
    if (satisfied) ++row_.queries_satisfied;
    row_.probes += probes;
  }
  record_untimed(satisfied, probes);
}

void QueryLedger::record(bool satisfied, std::uint64_t probes,
                         double response_time) {
  record(satisfied, probes);
  if (measuring_ && satisfied) response_time_.add(response_time);
}

void QueryLedger::record_untimed(bool satisfied, std::uint64_t probes) {
  if (!measuring_) return;
  ++completed_;
  if (satisfied) ++satisfied_;
  probes_ += probes;
  probe_samples_.add(static_cast<double>(probes));
}

IntervalSample QueryLedger::open_row(std::size_t live_peers,
                                     const TransportCounters& transport) const {
  IntervalSample row = row_;
  row.end = simulator_.now();
  row.live_peers = live_peers;
  row.transport = transport - row_transport_;
  return row;
}

void QueryLedger::collect(SearchResults& out, std::size_t live_peers,
                          const TransportCounters& transport) const {
  out.queries_completed = completed_;
  out.queries_satisfied = satisfied_;
  out.probes = probes_;
  out.deaths = deaths_;
  out.response_time = response_time_;
  out.probe_samples = probe_samples_;
  out.interval_series = rows_;
  if (rows_on_ && simulator_.now() > row_.start) {
    out.interval_series.push_back(open_row(live_peers, transport));
  }
}

}  // namespace guess::search
