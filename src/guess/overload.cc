#include "guess/overload.h"

#include "common/check.h"

namespace guess {

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kNone: return "none";
    case OverloadPolicy::kAdmit: return "admit";
    case OverloadPolicy::kShed: return "shed";
  }
  GUESS_CHECK_MSG(false, "unknown OverloadPolicy");
  return "?";
}

OverloadPolicy parse_overload_policy(const std::string& name) {
  if (name == "none") return OverloadPolicy::kNone;
  if (name == "admit") return OverloadPolicy::kAdmit;
  if (name == "shed") return OverloadPolicy::kShed;
  GUESS_CHECK_MSG(false, "unknown overload policy '"
                             << name << "' (expected none | admit | shed)");
  return OverloadPolicy::kNone;
}

OverloadController::OverloadController(const OverloadParams& params)
    : params_(params) {
  if (params_.policy == OverloadPolicy::kShed) {
    queue_.resize(params_.shed_watermark);
  }
}

bool OverloadController::has_slot() const {
  return params_.policy == OverloadPolicy::kNone ||
         in_flight_ < params_.max_in_flight;
}

void OverloadController::push_queue(sim::Time issue) {
  GUESS_CHECK(queue_size_ < queue_.size());
  queue_[(queue_head_ + queue_size_) % queue_.size()] = issue;
  ++queue_size_;
}

sim::Time OverloadController::pop_oldest() {
  GUESS_CHECK(queue_size_ > 0);
  sim::Time issue = queue_[queue_head_];
  queue_head_ = (queue_head_ + 1) % queue_.size();
  --queue_size_;
  return issue;
}

AdmitDecision OverloadController::on_arrival(sim::Time now) {
  AdmitDecision decision;
  if (has_slot() && queue_size_ == 0) {
    ++in_flight_;
    decision.action = AdmitAction::kStart;
    return decision;
  }
  // kNone always has a slot and never queues, so only admit and shed get
  // here.
  if (params_.policy == OverloadPolicy::kAdmit) {
    decision.action = AdmitAction::kReject;
    return decision;
  }
  if (queue_size_ == queue_.size()) {
    // At the watermark: drop the longest waiter to make room for the
    // arrival.
    pop_oldest();
    decision.shed = 1;
  }
  push_queue(now);
  decision.action = AdmitAction::kQueue;
  return decision;
}

bool OverloadController::try_start(sim::Time* issue) {
  if (queue_size_ == 0 || !has_slot()) return false;
  ++in_flight_;
  *issue = pop_oldest();
  return true;
}

void OverloadController::on_release() {
  GUESS_CHECK(in_flight_ > 0);
  --in_flight_;
}

bool OverloadController::drain_one(sim::Time* issue) {
  if (queue_size_ == 0) return false;
  *issue = pop_oldest();
  return true;
}

}  // namespace guess
