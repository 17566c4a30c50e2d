// Transport abstraction: synchronous inline semantics, lossy fault
// injection (timeout/retry timing, degenerate loss), SimulationConfig
// validation, and the bitwise-identity contract between the config API and
// the legacy positional API.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "guess/config.h"
#include "guess/network.h"
#include "guess/transport.h"
#include "search/backend.h"
#include "../testsupport/simulation_results_eq.h"

namespace guess {
namespace {

struct Resolution {
  sim::Time at = -1.0;
  DeliveryStatus status = DeliveryStatus::kDelivered;
};

TEST(SynchronousTransport, CompletesInlineWithoutEventsOrRandomness) {
  SynchronousTransport transport;
  bool completed = false;
  transport.exchange(MessageKind::kPing, 1, 2,
                     [&](DeliveryStatus status) {
                       completed = true;
                       EXPECT_EQ(status, DeliveryStatus::kDelivered);
                     });
  // Inline: done before exchange() returned, no simulator involved at all.
  EXPECT_TRUE(completed);
  EXPECT_EQ(transport.counters().messages_sent, 1u);
  EXPECT_EQ(transport.counters().messages_lost, 0u);
  EXPECT_EQ(transport.counters().timeouts, 0u);
}

TEST(LossyTransport, DeliversAtRoundTripLatency) {
  sim::Simulator simulator;
  TransportParams params = TransportParams::lossy(0.0);
  params.link_latency = 0.05;
  params.probe_timeout = 2.0;
  LossyTransport transport(params, simulator, Rng(7));

  Resolution res;
  transport.exchange(MessageKind::kQueryProbe, 1, 2,
                     [&](DeliveryStatus status) {
                       res = {simulator.now(), status};
                     });
  EXPECT_EQ(transport.in_flight(), 1u);
  simulator.run_until(10.0);
  EXPECT_EQ(transport.in_flight(), 0u);
  EXPECT_EQ(res.status, DeliveryStatus::kDelivered);
  EXPECT_DOUBLE_EQ(res.at, 0.1);  // two fixed 0.05 s legs
  EXPECT_EQ(transport.counters().messages_sent, 1u);
  EXPECT_EQ(transport.counters().timeouts, 0u);
}

// The ordering contract of the retry chain: with loss=1.0 every attempt
// times out on schedule and is re-sent the instant it does —
//   send@0, timeout+resend@2, timeout+resend@4, timeout@6 -> failed.
TEST(LossyTransport, TimeoutThenRetryOrderingIsExact) {
  sim::Simulator simulator;
  TransportParams params = TransportParams::lossy(1.0);
  params.probe_timeout = 2.0;
  params.max_retries = 2;
  LossyTransport transport(params, simulator, Rng(7));

  Resolution res;
  transport.exchange(MessageKind::kQueryProbe, 1, 2,
                     [&](DeliveryStatus status) {
                       res = {simulator.now(), status};
                     });
  simulator.run_until(100.0);
  EXPECT_EQ(res.status, DeliveryStatus::kTimedOut);
  EXPECT_DOUBLE_EQ(res.at, 6.0);
  EXPECT_EQ(transport.counters().messages_sent, 3u);
  EXPECT_EQ(transport.counters().messages_lost, 3u);
  EXPECT_EQ(transport.counters().timeouts, 3u);
  EXPECT_EQ(transport.counters().retransmits, 2u);
  EXPECT_EQ(transport.counters().exchanges_failed, 1u);
  EXPECT_EQ(transport.in_flight(), 0u);
}

// Even a long retry chain resolves within bounded simulated time: every
// attempt costs exactly one timeout, so 61 attempts fail at 61 * timeout.
TEST(LossyTransport, LongRetryChainStaysWithinLinearTimeBound) {
  sim::Simulator simulator;
  TransportParams params = TransportParams::lossy(1.0);
  params.probe_timeout = 2.0;
  params.max_retries = 60;
  LossyTransport transport(params, simulator, Rng(7));

  Resolution res;
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus status) {
    res = {simulator.now(), status};
  });
  simulator.run_until(61.0 * 2.0 + 1.0);
  EXPECT_EQ(res.status, DeliveryStatus::kTimedOut);
  EXPECT_DOUBLE_EQ(res.at, 61.0 * 2.0);
  EXPECT_EQ(transport.counters().retransmits, 60u);
}

/// Scriptable modulation for transport tests.
struct TestModulation : TransportModulation {
  bool severed_flag = false;
  double loss = 0.0;
  double latency = 1.0;
  bool severed(PeerId, PeerId) const override { return severed_flag; }
  double extra_loss() const override { return loss; }
  double latency_factor() const override { return latency; }
};

TEST(Modulation, SeveredExchangeFailsOnSynchronousTransport) {
  SynchronousTransport transport;
  TestModulation modulation;
  modulation.severed_flag = true;
  transport.set_modulation(&modulation);
  Resolution res;
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus status) {
    res = {0.0, status};
  });
  EXPECT_EQ(res.status, DeliveryStatus::kTimedOut);
  EXPECT_EQ(transport.counters().messages_sent, 1u);
  EXPECT_EQ(transport.counters().messages_lost, 1u);
  EXPECT_EQ(transport.counters().exchanges_failed, 1u);

  // Clearing the modulation restores delivery.
  transport.set_modulation(nullptr);
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus status) {
    res = {0.0, status};
  });
  EXPECT_EQ(res.status, DeliveryStatus::kDelivered);
}

TEST(Modulation, SeveredLossyExchangeExhaustsRetriesOnSchedule) {
  sim::Simulator simulator;
  TransportParams params = TransportParams::lossy(0.0);
  params.probe_timeout = 2.0;
  params.max_retries = 1;
  LossyTransport transport(params, simulator, Rng(7));
  TestModulation modulation;
  modulation.severed_flag = true;
  transport.set_modulation(&modulation);

  Resolution res;
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus status) {
    res = {simulator.now(), status};
  });
  simulator.run_until(100.0);
  // Severed attempts keep the normal timeout/retry cadence: they fail by
  // timing out, exactly as a partitioned probe would on a real wire.
  EXPECT_EQ(res.status, DeliveryStatus::kTimedOut);
  EXPECT_DOUBLE_EQ(res.at, 4.0);  // send@0, timeout+resend@2, timeout@4
  EXPECT_EQ(transport.counters().messages_lost, 2u);
}

TEST(Modulation, ExtraLossAddsToConfiguredLoss) {
  sim::Simulator simulator;
  TransportParams params = TransportParams::lossy(0.0);  // perfect wire
  params.max_retries = 0;
  LossyTransport transport(params, simulator, Rng(7));
  TestModulation modulation;
  modulation.loss = 1.0;  // 0 + 1, clamped to 1: every leg drops
  transport.set_modulation(&modulation);

  Resolution res;
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus status) {
    res = {simulator.now(), status};
  });
  simulator.run_until(100.0);
  EXPECT_EQ(res.status, DeliveryStatus::kTimedOut);
  EXPECT_EQ(transport.counters().messages_lost, 1u);
}

TEST(Modulation, LatencyFactorStretchesRoundTrip) {
  sim::Simulator simulator;
  TransportParams params = TransportParams::lossy(0.0);
  params.link_latency = 0.05;
  params.probe_timeout = 2.0;
  LossyTransport transport(params, simulator, Rng(7));
  TestModulation modulation;
  modulation.latency = 4.0;
  transport.set_modulation(&modulation);

  Resolution res;
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus status) {
    res = {simulator.now(), status};
  });
  simulator.run_until(10.0);
  EXPECT_EQ(res.status, DeliveryStatus::kDelivered);
  EXPECT_DOUBLE_EQ(res.at, 0.4);  // (0.05 + 0.05) * 4

  // A factor that pushes the round trip past the timeout turns the same
  // exchange into a late reply.
  modulation.latency = 100.0;
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus status) {
    res = {simulator.now(), status};
  });
  simulator.run_until(100.0);
  EXPECT_EQ(res.status, DeliveryStatus::kTimedOut);
  EXPECT_EQ(transport.counters().late_replies, 1u);
}

// Both legs survive but the round trip outlasts the timeout: counted as a
// late reply, resolved as a timeout at exactly probe_timeout.
TEST(LossyTransport, LateReplyCountsAndTimesOut) {
  sim::Simulator simulator;
  TransportParams params = TransportParams::lossy(0.0);
  params.link_latency = 1.5;  // rtt = 3.0 > timeout
  params.probe_timeout = 2.0;
  LossyTransport transport(params, simulator, Rng(7));

  Resolution res;
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus status) {
    res = {simulator.now(), status};
  });
  simulator.run_until(100.0);
  EXPECT_EQ(res.status, DeliveryStatus::kTimedOut);
  EXPECT_DOUBLE_EQ(res.at, 2.0);
  EXPECT_EQ(transport.counters().late_replies, 1u);
  EXPECT_EQ(transport.counters().messages_lost, 0u);
}

// A completion that immediately starts another exchange exercises slab
// reuse/growth while the callback is live.
TEST(LossyTransport, CompletionMayStartNewExchange) {
  sim::Simulator simulator;
  TransportParams params = TransportParams::lossy(0.0);
  params.link_latency = 0.05;
  LossyTransport transport(params, simulator, Rng(7));

  int completions = 0;
  transport.exchange(MessageKind::kPing, 1, 2, [&](DeliveryStatus) {
    ++completions;
    transport.exchange(MessageKind::kPing, 2, 3,
                       [&](DeliveryStatus) { ++completions; });
  });
  simulator.run_until(10.0);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(transport.counters().messages_sent, 2u);
  EXPECT_EQ(transport.in_flight(), 0u);
}

// With the default SynchronousTransport, the same parameters delivered via
// an explicit SimulationOptions block and via the chained setters must be
// bitwise-identical — the two construction surfaces are one code path.
TEST(TransportIdentity, OptionsBlockBitwiseIdenticalToChainedSetters) {
  SystemParams system;
  system.network_size = 150;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  system.percent_bad_peers = 10.0;
  system.bad_pong_behavior = BadPongBehavior::kBad;
  ProtocolParams protocol;
  protocol.query_probe = Policy::kMR;
  protocol.cache_replacement = Replacement::kLR;
  protocol.detection.enabled = true;
  protocol.do_backoff = true;

  SimulationOptions options;
  options.seed = 17;
  options.warmup = 120.0;
  options.measure = 480.0;
  SimulationResults via_legacy = testsupport::guess_results(search::run_search(
      SimulationConfig().system(system).protocol(protocol).options(options)));

  SimulationResults via_config =
      testsupport::guess_results(search::run_search(SimulationConfig()
                                                        .system(system)
                                                        .protocol(protocol)
                                                        .seed(17)
                                                        .warmup(120.0)
                                                        .measure(480.0)));

  testsupport::expect_identical(via_legacy, via_config);
  // The synchronous transport still accounts for traffic.
  EXPECT_GT(via_config.transport.messages_sent, 0u);
  EXPECT_EQ(via_config.transport.timeouts, 0u);
  EXPECT_EQ(via_config.transport.retransmits, 0u);
}

// loss=1.0 is the degenerate extreme: nothing is ever delivered, every
// query exhausts its (shrinking) candidate set, and the run must still
// terminate with everything unsatisfied.
TEST(TransportFaultInjection, TotalLossRunTerminatesUnsatisfied) {
  SystemParams system;
  system.network_size = 100;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  auto config = SimulationConfig()
                    .system(system)
                    .transport(TransportParams::lossy(1.0))
                    .seed(5)
                    .warmup(100.0)
                    .measure(300.0);
  SimulationResults results =
      testsupport::guess_results(search::run_search(config));
  EXPECT_GT(results.queries_completed, 0u);
  EXPECT_EQ(results.queries_satisfied, 0u);
  EXPECT_EQ(results.probes.good, 0u);
  EXPECT_GT(results.transport.exchanges_failed, 0u);
  EXPECT_EQ(results.transport.messages_lost,
            results.transport.messages_sent);
}

// Regression: payments + LossyTransport. With asynchronous resolution every
// probe of a slot is in flight together, so a peer whose credit covers a
// single probe must not pass the affordability check for all of them — the
// cost is reserved at issue time and committed/released at resolution.
// Before the reservation ledger this run aborted with a CheckError from
// spend_credit ("spending unaffordable probe").
TEST(TransportFaultInjection, PaymentsUnderLossDoNotOverdrawCredit) {
  SystemParams system;
  system.network_size = 150;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  ProtocolParams protocol;
  protocol.payments = true;
  protocol.parallel_probes = 3;  // several probes per slot compete for it
  TransportParams transport = TransportParams::lossy(0.2);
  transport.max_retries = 1;
  sim::Simulator simulator;
  GuessNetwork network(
      SimulationConfig().system(system).protocol(protocol).transport(transport),
      simulator, Rng(11));
  ASSERT_NO_THROW({
    network.initialize();
    // Every peer can afford exactly one probe.
    for (PeerId id : network.alive_ids()) {
      network.find(id)->set_credit(kProbeCost);
    }
    simulator.run_until(100.0);
    network.begin_measurement();
    simulator.run_until(500.0);
  });
  // The economy actually ran (probes were served and paid for) ...
  EXPECT_GT(network.collect_results().probes.good, 0u);
  // ... and no peer's ledger went negative or leaked reservations beyond
  // what is genuinely still in flight at the horizon.
  for (PeerId id : network.alive_ids()) {
    const Peer* peer = network.find(id);
    EXPECT_GE(peer->credit(), 0.0);
    EXPECT_GE(peer->credit(),
              static_cast<double>(peer->reserved_probes()) * kProbeCost);
  }
}

// Higher loss must produce (weakly) more timeouts and retransmits per
// message sent — the counters respond monotonically to --loss.
TEST(TransportFaultInjection, TimeoutRateMonotonicInLoss) {
  auto run = [](double loss) {
    SystemParams system;
    system.network_size = 150;
    system.content.catalog_size = 400;
    system.content.query_universe = 500;
    TransportParams transport = TransportParams::lossy(loss);
    transport.max_retries = 2;
    auto config = SimulationConfig()
                      .system(system)
                      .transport(transport)
                      .seed(9)
                      .warmup(100.0)
                      .measure(400.0);
    return testsupport::guess_results(search::run_search(config));
  };
  SimulationResults none = run(0.0);
  SimulationResults low = run(0.05);
  SimulationResults high = run(0.3);

  EXPECT_EQ(none.transport.timeouts, 0u);
  EXPECT_EQ(none.transport.retransmits, 0u);
  EXPECT_GT(low.transport.timeouts, 0u);
  EXPECT_GT(low.transport.retransmits, 0u);

  auto timeout_rate = [](const SimulationResults& r) {
    return static_cast<double>(r.transport.timeouts) /
           static_cast<double>(r.transport.messages_sent);
  };
  EXPECT_LT(timeout_rate(low), timeout_rate(high));
}

TEST(SimulationConfigValidate, RejectsNonsense) {
  SystemParams tiny;
  tiny.network_size = 1;
  EXPECT_THROW(SimulationConfig().system(tiny).validate(), CheckError);

  EXPECT_THROW(
      SimulationConfig().transport(TransportParams::lossy(-0.1)).validate(),
      CheckError);
  EXPECT_THROW(
      SimulationConfig().transport(TransportParams::lossy(1.5)).validate(),
      CheckError);

  TransportParams no_timeout = TransportParams::lossy(0.1);
  no_timeout.probe_timeout = 0.0;
  EXPECT_THROW(SimulationConfig().transport(no_timeout).validate(),
               CheckError);

  // A negative retry count wrapped through an unsigned cast must not pass
  // as an effectively unbounded retry policy.
  TransportParams wrapped_retries = TransportParams::lossy(0.1);
  wrapped_retries.max_retries = static_cast<std::size_t>(-1);
  EXPECT_THROW(SimulationConfig().transport(wrapped_retries).validate(),
               CheckError);

  SystemParams negative_rate;
  negative_rate.query_rate = -1.0;
  EXPECT_THROW(SimulationConfig().system(negative_rate).validate(),
               CheckError);

  ProtocolParams no_ping;
  no_ping.ping_interval = 0.0;
  EXPECT_THROW(SimulationConfig().protocol(no_ping).validate(), CheckError);

  EXPECT_THROW(SimulationConfig().threads(-1).validate(), CheckError);

  // The defaults are valid, and validate() chains.
  EXPECT_NO_THROW(SimulationConfig().validate());
  EXPECT_NO_THROW(
      SimulationConfig().transport(TransportParams::lossy(0.05)).validate());
}

TEST(SimulationConfigValidate, ConstructorsValidate) {
  SystemParams tiny;
  tiny.network_size = 1;
  EXPECT_THROW(search::run_search(SimulationConfig().system(tiny)),
               CheckError);
  sim::Simulator simulator;
  EXPECT_THROW(
      GuessNetwork(SimulationConfig().transport(TransportParams::lossy(2.0)),
                   simulator, Rng(1)),
      CheckError);
}

TEST(TransportParamsDescribe, MentionsTheKnobs) {
  EXPECT_NE(describe(TransportParams{}).find("Synchronous"),
            std::string::npos);
  TransportParams lossy = TransportParams::lossy(0.25);
  lossy.max_retries = 3;
  std::string text = describe(lossy);
  EXPECT_NE(text.find("0.25"), std::string::npos);
  EXPECT_NE(text.find("retries=3"), std::string::npos);
}

}  // namespace
}  // namespace guess
