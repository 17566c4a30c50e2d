// OverloadController unit tests: admission windows, shedding watermarks,
// and the pump/drain protocol (DESIGN.md §13.3).
#include "guess/overload.h"

#include <gtest/gtest.h>

#include <deque>

#include "common/check.h"
#include "common/rng.h"

namespace guess {
namespace {

OverloadParams params_for(OverloadPolicy policy) {
  OverloadParams p;
  p.policy = policy;
  p.max_in_flight = 2;
  p.shed_watermark = 2;
  return p;
}

TEST(OverloadPolicyNames, RoundTrip) {
  for (OverloadPolicy policy :
       {OverloadPolicy::kNone, OverloadPolicy::kAdmit, OverloadPolicy::kShed}) {
    EXPECT_EQ(parse_overload_policy(overload_policy_name(policy)), policy);
  }
  EXPECT_THROW(parse_overload_policy("backpressure"), CheckError);
  EXPECT_THROW(parse_overload_policy("drop"), CheckError);
  EXPECT_THROW(parse_overload_policy(""), CheckError);
}

TEST(OverloadController, NoneAdmitsEverythingImmediately) {
  OverloadController c(params_for(OverloadPolicy::kNone));
  for (int i = 0; i < 100; ++i) {
    AdmitDecision d = c.on_arrival(static_cast<double>(i));
    EXPECT_EQ(d.action, AdmitAction::kStart);
    EXPECT_EQ(d.shed, 0u);
  }
  EXPECT_EQ(c.in_flight(), 100u);
  EXPECT_EQ(c.queue_depth(), 0u);
}

TEST(OverloadController, AdmitRejectsAtTheDoorPastTheWindow) {
  OverloadController c(params_for(OverloadPolicy::kAdmit));
  EXPECT_EQ(c.on_arrival(0.0).action, AdmitAction::kStart);
  EXPECT_EQ(c.on_arrival(1.0).action, AdmitAction::kStart);
  AdmitDecision d = c.on_arrival(2.0);
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.shed, 0u);
  EXPECT_EQ(c.in_flight(), 2u);
  EXPECT_EQ(c.queue_depth(), 0u);  // admission control never queues

  // Releasing a slot readmits the next arrival.
  c.on_release();
  EXPECT_EQ(c.on_arrival(3.0).action, AdmitAction::kStart);
}

TEST(OverloadController, ShedQueuesBelowTheWatermark) {
  OverloadController c(params_for(OverloadPolicy::kShed));
  EXPECT_EQ(c.on_arrival(0.0).action, AdmitAction::kStart);
  EXPECT_EQ(c.on_arrival(1.0).action, AdmitAction::kStart);
  EXPECT_EQ(c.on_arrival(2.0).action, AdmitAction::kQueue);
  EXPECT_EQ(c.on_arrival(3.0).action, AdmitAction::kQueue);
  EXPECT_EQ(c.queue_depth(), 2u);

  // Pump: released slot starts the OLDEST queued arrival with its original
  // issue time (queueing delay stays inside its measured latency).
  c.on_release();
  sim::Time issue = -1.0;
  EXPECT_TRUE(c.try_start(&issue));
  EXPECT_DOUBLE_EQ(issue, 2.0);
  EXPECT_FALSE(c.try_start(&issue));  // window full again
  EXPECT_EQ(c.in_flight(), 2u);
  EXPECT_EQ(c.queue_depth(), 1u);
}

TEST(OverloadController, ShedOldestDropsTheLongestWaiterAndTakesTheArrival) {
  OverloadParams p = params_for(OverloadPolicy::kShed);
  OverloadController c(p);
  c.on_arrival(0.0);  // start
  c.on_arrival(1.0);  // start
  c.on_arrival(2.0);  // queue
  c.on_arrival(3.0);  // queue -> at watermark
  AdmitDecision d = c.on_arrival(4.0);
  EXPECT_EQ(d.action, AdmitAction::kQueue);
  EXPECT_EQ(d.shed, 1u);
  EXPECT_EQ(c.queue_depth(), 2u);  // 3.0 and 4.0 remain

  // The oldest waiter (2.0) was dropped: the next start is 3.0.
  c.on_release();
  sim::Time issue = -1.0;
  EXPECT_TRUE(c.try_start(&issue));
  EXPECT_DOUBLE_EQ(issue, 3.0);
}

// A seeded mix of arrivals and releases against a FIFO model: the queue
// never holds more than the watermark (which is why the ring buffer is
// sized to it), the in-flight budget holds, and queued arrivals start
// oldest first, the dropped ones being the oldest.
TEST(OverloadController, ShedQueueNeverExceedsTheWatermark) {
  OverloadParams p = params_for(OverloadPolicy::kShed);
  p.max_in_flight = 3;
  p.shed_watermark = 5;
  OverloadController c(p);
  std::deque<sim::Time> waiting;  // the model queue, oldest first
  std::size_t running = 0;
  std::size_t sheds = 0;
  std::size_t full = 0;
  std::size_t drained = 0;
  Rng rng(2024);
  for (int step = 0; step < 4000; ++step) {
    auto now = static_cast<sim::Time>(step);
    // Alternate overload and drain phases of 250 steps each.
    double arrive = (step / 250) % 2 == 0 ? 0.65 : 0.35;
    if (running == 0 || rng.bernoulli(arrive)) {
      AdmitDecision d = c.on_arrival(now);
      if (d.shed > 0) {
        ASSERT_EQ(d.shed, 1u);
        ASSERT_FALSE(waiting.empty());
        waiting.pop_front();
        ++sheds;
      }
      if (d.action == AdmitAction::kStart) {
        ASSERT_TRUE(waiting.empty());
        ++running;
      } else {
        ASSERT_EQ(d.action, AdmitAction::kQueue);
        waiting.push_back(now);
      }
    } else {
      c.on_release();
      --running;
      sim::Time issue = -1.0;
      while (c.try_start(&issue)) {
        ASSERT_FALSE(waiting.empty());
        ASSERT_DOUBLE_EQ(issue, waiting.front());
        waiting.pop_front();
        ++running;
      }
    }
    ASSERT_LE(c.queue_depth(), p.shed_watermark);
    ASSERT_LE(c.in_flight(), p.max_in_flight);
    ASSERT_EQ(c.queue_depth(), waiting.size());
    ASSERT_EQ(c.in_flight(), running);
    if (c.queue_depth() == p.shed_watermark) ++full;
    if (c.queue_depth() == 0) ++drained;
  }
  // The mix must reach the watermark, shed past it, and drain again.
  EXPECT_GT(full, 0u);
  EXPECT_GT(sheds, 0u);
  EXPECT_GT(drained, 0u);
  sim::Time issue = -1.0;
  while (c.drain_one(&issue)) {
    ASSERT_DOUBLE_EQ(issue, waiting.front());
    waiting.pop_front();
  }
  EXPECT_TRUE(waiting.empty());
}

TEST(OverloadController, ArrivalsNeverOvertakeTheQueue) {
  // With a non-empty queue a free slot must go to the oldest waiter, not to
  // a fresh arrival (FIFO fairness).
  OverloadController c(params_for(OverloadPolicy::kShed));
  c.on_arrival(0.0);
  c.on_arrival(1.0);
  c.on_arrival(2.0);  // queued
  c.on_release();     // slot free, queue non-empty
  AdmitDecision d = c.on_arrival(3.0);
  EXPECT_EQ(d.action, AdmitAction::kQueue);
  sim::Time issue = -1.0;
  EXPECT_TRUE(c.try_start(&issue));
  EXPECT_DOUBLE_EQ(issue, 2.0);
}

TEST(OverloadController, DrainPopsOldestFirstWithoutTouchingInFlight) {
  OverloadController c(params_for(OverloadPolicy::kShed));
  c.on_arrival(0.0);
  c.on_arrival(1.0);
  c.on_arrival(2.0);
  c.on_arrival(3.0);
  EXPECT_EQ(c.in_flight(), 2u);
  sim::Time issue = -1.0;
  EXPECT_TRUE(c.drain_one(&issue));
  EXPECT_DOUBLE_EQ(issue, 2.0);
  EXPECT_TRUE(c.drain_one(&issue));
  EXPECT_DOUBLE_EQ(issue, 3.0);
  EXPECT_FALSE(c.drain_one(&issue));
  EXPECT_EQ(c.in_flight(), 2u);
}

TEST(OverloadController, RingBufferSurvivesWraparound) {
  OverloadParams p = params_for(OverloadPolicy::kShed);
  p.shed_watermark = 3;
  OverloadController c(p);
  c.on_arrival(0.0);
  c.on_arrival(1.0);
  // Cycle the queue several times past its capacity to exercise the ring
  // indices: queue one, start one, repeatedly.
  double t = 2.0;
  for (int round = 0; round < 10; ++round) {
    c.on_arrival(t);
    c.on_release();
    sim::Time issue = -1.0;
    ASSERT_TRUE(c.try_start(&issue));
    EXPECT_DOUBLE_EQ(issue, t);
    t += 1.0;
  }
  EXPECT_EQ(c.queue_depth(), 0u);
}

TEST(OverloadController, ReleaseUnderflowIsAnError) {
  OverloadController c(params_for(OverloadPolicy::kAdmit));
  EXPECT_THROW(c.on_release(), CheckError);
}

TEST(OverloadStats, DerivedRatesHandleEmptyAndTypicalWindows) {
  OverloadStats s;
  EXPECT_DOUBLE_EQ(s.goodput(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.slo_violation_rate(), 0.0);

  s.completed = 80;
  s.open_at_close = 20;
  s.slo_ok = 60;
  EXPECT_DOUBLE_EQ(s.goodput(30.0), 2.0);
  EXPECT_DOUBLE_EQ(s.slo_violation_rate(), 0.4);
}

}  // namespace
}  // namespace guess
