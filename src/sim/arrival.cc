#include "sim/arrival.h"

#include <utility>

#include "common/check.h"

namespace guess::sim {

const char* arrival_mode_name(ArrivalMode mode) {
  switch (mode) {
    case ArrivalMode::kClosed: return "closed";
    case ArrivalMode::kOpen: return "open";
  }
  GUESS_CHECK_MSG(false, "unknown ArrivalMode");
  return "?";
}

ArrivalMode parse_arrival_mode(const std::string& name) {
  if (name == "closed") return ArrivalMode::kClosed;
  if (name == "open") return ArrivalMode::kOpen;
  GUESS_CHECK_MSG(false, "unknown arrival mode '" << name
                                                  << "' (expected closed | open)");
  return ArrivalMode::kClosed;
}

ArrivalProcess::ArrivalProcess(Simulator& simulator, double rate, Rng rng)
    : simulator_(simulator), rate_(rate), rng_(std::move(rng)) {
  GUESS_CHECK_MSG(rate_ > 0.0, "arrival rate must be > 0, got " << rate_);
}

void ArrivalProcess::start(std::function<void()> sink) {
  GUESS_CHECK_MSG(!sink_, "ArrivalProcess::start called twice");
  GUESS_CHECK(sink);
  sink_ = std::move(sink);
  schedule_next();
}

void ArrivalProcess::fire() {
  ++arrivals_;
  sink_();
  schedule_next();
}

void ArrivalProcess::schedule_next() {
  simulator_.after(rng_.exponential(rate_), ArrivalFired{this});
}

}  // namespace guess::sim
