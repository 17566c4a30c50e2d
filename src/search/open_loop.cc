#include "search/open_loop.h"

#include "common/check.h"

namespace guess::search {
namespace {

// Salts decorrelating the driver's RNG streams from the backend's (which is
// seeded with the raw config seed): attaching the open-loop driver must not
// perturb a single backend draw.
constexpr std::uint64_t kArrivalSeedSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kWorkloadSeedSalt = 0x6a09e667f3bcc909ull;

}  // namespace

OpenLoopDriver::OpenLoopDriver(const SimulationConfig& config,
                               sim::Simulator& simulator,
                               SearchBackend& backend)
    : simulator_(simulator),
      backend_(backend),
      controller_(config.options().overload),
      arrivals_(simulator, config.options().offered_qps,
                Rng(config.seed() ^ kArrivalSeedSalt)),
      workload_rng_(config.seed() ^ kWorkloadSeedSalt),
      slo_(config.options().slo),
      interval_width_(config.options().metrics_interval) {
  stats_.open_loop = true;
  stats_.policy = config.options().overload.policy;
  stats_.offered_qps = config.options().offered_qps;
  stats_.slo = slo_;
}

void OpenLoopDriver::start() {
  backend_.configure_open_loop(this);
  arrivals_.start([this] { on_arrival(); });
}

void OpenLoopDriver::begin_measurement() { measuring_ = true; }

void OpenLoopDriver::on_arrival() {
  if (measuring_) ++stats_.arrivals;
  ++row_.arrivals;
  AdmitDecision decision = controller_.on_arrival(simulator_.now());
  if (decision.shed > 0) {
    // The oldest queued entry left the system to make room for this
    // arrival.
    if (measuring_) ++stats_.shed;
    ++row_.shed;
  }
  switch (decision.action) {
    case AdmitAction::kStart:
      launch(simulator_.now());
      break;
    case AdmitAction::kQueue:
      break;
    case AdmitAction::kReject:
      if (measuring_) ++stats_.rejected;
      ++row_.rejected;
      break;
  }
}

void OpenLoopDriver::pump() {
  if (pumping_) return;
  pumping_ = true;
  sim::Time issue = 0.0;
  while (controller_.try_start(&issue)) launch(issue);
  pumping_ = false;
}

void OpenLoopDriver::launch(sim::Time issued) {
  if (measuring_) ++stats_.admitted;
  if (backend_.live_peers() == 0) {
    // A mass kill emptied the network: no origin can issue the query, so it
    // is abandoned at once and its slot freed.
    controller_.on_release();
    if (measuring_) ++stats_.abandoned;
    return;
  }
  // Synchronous backends complete the query inside this call; pump's
  // re-entrancy guard keeps the resulting on_query_complete -> pump cascade
  // from recursing.
  backend_.start_query(workload_rng_, issued);
}

void OpenLoopDriver::on_query_complete(double latency, bool satisfied) {
  controller_.on_release();
  bool within_slo = satisfied && latency <= slo_;
  if (within_slo) ++row_.slo_ok;
  if (measuring_) {
    ++stats_.completed;
    if (satisfied) ++stats_.satisfied;
    if (within_slo) ++stats_.slo_ok;
    stats_.latency.add(latency);
  }
  pump();
}

void OpenLoopDriver::on_query_abandoned(double age) {
  (void)age;
  controller_.on_release();
  if (measuring_) ++stats_.abandoned;
  // The backend is mid-removal of the dead origin; starting new work from
  // inside its teardown could route a query to the half-removed peer. Defer
  // the pump to a zero-delay event (idempotent; one per abandonment is
  // harmless).
  static_assert(sim::EventQueue::Callback::stores_inline<PumpFired>(),
                "pump thunk must not allocate");
  simulator_.after(0.0, PumpFired{this});
}

void OpenLoopDriver::sample_interval() {
  if (interval_width_ <= 0.0) return;
  row_.end = simulator_.now();
  interval_rows_.push_back(row_);
  row_ = IntervalSample{};
  row_.start = interval_rows_.back().end;
}

void OpenLoopDriver::finalize(SearchResults& out) {
  // Census everything still open: queued in the controller or running in
  // the backend. Each is billed its current age into the latency histogram
  // (a censored observation — the query would take at least this long), so
  // a baseline that diverges past saturation cannot hide its backlog by
  // never finishing it.
  sim::Time end = simulator_.now();
  sim::Time issue = 0.0;
  while (controller_.drain_one(&issue)) {
    ++stats_.open_at_close;
    stats_.latency.add(end - issue);
  }
  backend_.visit_open_queries([&](sim::Time issued) {
    ++stats_.open_at_close;
    stats_.latency.add(end - issued);
  });

  out.overload = stats_;

  if (interval_width_ <= 0.0) return;
  // The trailing partial interval (horizon not aligned to the width) closes
  // here, as the backends close theirs at collect.
  if (end > row_.start) sample_interval();
  GUESS_CHECK_MSG(out.interval_series.size() == interval_rows_.size(),
                  "backend " << out.backend << " closed "
                             << out.interval_series.size()
                             << " interval rows, the open-loop driver "
                             << interval_rows_.size());
  for (std::size_t i = 0; i < interval_rows_.size(); ++i) {
    IntervalSample& row = out.interval_series[i];
    const IntervalSample& mine = interval_rows_[i];
    GUESS_CHECK_MSG(row.start == mine.start && row.end == mine.end,
                    "backend " << out.backend << " interval row " << i
                               << " spans [" << row.start << ", " << row.end
                               << "), the open-loop driver's [" << mine.start
                               << ", " << mine.end << ")");
    row.arrivals = mine.arrivals;
    row.rejected = mine.rejected;
    row.shed = mine.shed;
    row.slo_ok = mine.slo_ok;
  }
}

}  // namespace guess::search
