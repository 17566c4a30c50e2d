// Pluggable message transport for GUESS probe/reply exchanges (DESIGN.md §8).
//
// Every Ping/Pong and QueryProbe/QueryReply round trip flows through a
// Transport. The network hands the transport an exchange (who is asking
// whom, and a completion callback); the transport decides *whether and when*
// the round trip resolves:
//
//  * SynchronousTransport — the paper's §5.1 assumption: every probe and its
//    reply complete "within the timeout". The completion runs inline, before
//    exchange() returns, consuming no randomness and scheduling no events —
//    simulations through it are bitwise-identical to the pre-transport code.
//  * LossyTransport — UDP-faithful fault injection: each message leg is lost
//    i.i.d. with probability `loss` and takes `link_latency` to deliver, an
//    unanswered attempt times out after `probe_timeout` (the timeout is a
//    real scheduled event on the slab event queue), and the request is
//    re-sent the instant a timeout fires, up to `max_retries` times, before
//    the exchange fails.
//
// What the messages *mean* — liveness checks, pong processing, eviction on
// silence — stays in GuessNetwork; the transport only moves them. In
// particular the transport cannot observe peer liveness: a probe to a dead
// address is "delivered" into the void and resolves as a timeout only
// because no reply leg ever fires (SynchronousTransport delegates that
// judgement back to the network at completion time, exactly like the
// pre-transport code).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "guess/metrics.h"
#include "guess/types.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace guess {

/// What kind of request an exchange carries (accounting and tracing only;
/// the transport treats both identically).
enum class MessageKind {
  kPing,        ///< Ping -> Pong (§2.2 maintenance)
  kQueryProbe,  ///< QueryProbe -> QueryReply+Pong (§2.3)
};

/// How an exchange resolved, from the requester's point of view.
enum class DeliveryStatus {
  kDelivered,  ///< the reply arrived within the timeout
  kTimedOut,   ///< every attempt expired unanswered (lost, late, or void)
};

/// Which transport GuessNetwork instantiates, plus the LossyTransport knobs
/// (ignored by SynchronousTransport). Part of SimulationConfig; surfaced on
/// the command line as --loss / --link-latency / --probe-timeout /
/// --max-retries.
struct TransportParams {
  enum class Kind {
    kSynchronous,  ///< §5.1 in-event semantics (the default)
    kLossy,        ///< loss + latency + timeout/retry fault injection
  };
  Kind kind = Kind::kSynchronous;

  /// Per-leg i.i.d. loss probability in [0, 1]; a round trip needs both the
  /// request and the reply leg to survive.
  double loss = 0.0;

  /// One-way delivery latency of every leg, seconds.
  sim::Duration link_latency = 0.05;

  /// How long the requester waits for the reply before declaring the
  /// attempt dead (per attempt, seconds).
  sim::Duration probe_timeout = 2.0;

  /// Retransmits after the first attempt (0 = a single attempt per
  /// exchange); each re-send goes out when its predecessor's timeout fires.
  std::size_t max_retries = 0;

  /// A lossy configuration with every fault-injection knob at its default.
  static TransportParams lossy(double loss_probability) {
    TransportParams params;
    params.kind = Kind::kLossy;
    params.loss = loss_probability;
    return params;
  }
};

/// One-line human-readable summary used by bench headers and guess_cli.
std::string describe(const TransportParams& params);

/// Time-varying fault overlay consulted by a transport on every send
/// (DESIGN.md §9). The fault-scenario engine flips the answers as partition
/// and degradation windows open and close; the transport stays oblivious to
/// *why* the network is currently bad. Installed only while a scenario is
/// active, so unmodulated runs execute the exact pre-fault code path.
class TransportModulation {
 public:
  virtual ~TransportModulation() = default;

  /// True if a partition currently severs the (from, to) pair. A severed
  /// request is delivered into the void: the exchange can only time out,
  /// exactly like a probe to a dead address.
  virtual bool severed(PeerId from, PeerId to) const = 0;

  /// Additional per-leg loss probability layered on top of the configured
  /// loss (sum clamped to 1.0) while a degradation window is open; 0 outside.
  virtual double extra_loss() const = 0;

  /// Multiplier applied to every drawn leg latency (>= 1 during a
  /// degradation window; exactly 1 outside).
  virtual double latency_factor() const = 0;
};

class Transport {
 public:
  /// Exchange completion: invoked exactly once per exchange() call — inline
  /// (SynchronousTransport) or from a scheduled event (LossyTransport). The
  /// buffer is sized for the network's largest completion thunk (a query
  /// probe resolution carrying its Candidate); network.cc static_asserts
  /// that binding one never allocates.
  static constexpr std::size_t kCompletionBufferSize = 72;
  using Completion =
      sim::InlineFunction<void(DeliveryStatus), kCompletionBufferSize>;

  virtual ~Transport() = default;

  /// Start one request/reply round trip from `from` to `to`. The transport
  /// owns retries; `on_complete` fires once with the final status.
  virtual void exchange(MessageKind kind, PeerId from, PeerId to,
                        Completion on_complete) = 0;

  /// Lifetime message accounting (not windowed; GuessNetwork snapshots at
  /// begin_measurement and reports the difference).
  const TransportCounters& counters() const { return counters_; }

  /// Attach an event tracer for the kTransport category (nullptr detaches).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Install a fault-modulation overlay (nullptr detaches). Not owned; must
  /// outlive the transport or be detached first.
  void set_modulation(const TransportModulation* modulation) {
    modulation_ = modulation;
  }

 protected:
  /// Lazily-built kTransport trace record, same idiom as GuessNetwork.
  template <typename Builder>
  void trace(sim::Time at, Builder&& builder) {
    if (tracer_ != nullptr && tracer_->on(TraceCategory::kTransport)) {
      std::ostringstream os;
      builder(os);
      tracer_->record(TraceCategory::kTransport, at, os.str());
    }
  }

  TransportCounters counters_;
  Tracer* tracer_ = nullptr;
  const TransportModulation* modulation_ = nullptr;
};

/// The §5.1 default: the reply is available the instant the request is sent.
/// Completions run inline, so a simulation through this transport executes
/// the identical operation sequence (and RNG stream) as the pre-transport
/// in-event message exchange.
class SynchronousTransport final : public Transport {
 public:
  void exchange(MessageKind kind, PeerId from, PeerId to,
                Completion on_complete) override;
};

/// Fault-injecting transport: per-leg loss, fixed leg latency, per-attempt
/// timeout events and a bounded retry policy. Owns its own RNG stream so
/// enabling it perturbs no other subsystem's draws. Exchange state lives in
/// a free-list slab; the scheduled thunks are three-word structs that stay
/// within the event queue's inline-callback buffer.
class LossyTransport final : public Transport {
 public:
  LossyTransport(TransportParams params, sim::Simulator& simulator, Rng rng);

  void exchange(MessageKind kind, PeerId from, PeerId to,
                Completion on_complete) override;

  /// Exchanges started but not yet resolved (tests).
  std::size_t in_flight() const { return in_flight_; }

  const TransportParams& params() const { return params_; }

 private:
  struct AttemptResolved;  // event thunk: delivery or timeout fired
  struct ResendFired;      // event thunk: re-send after a timeout

  struct PendingExchange {
    MessageKind kind = MessageKind::kPing;
    PeerId from = kInvalidPeer;
    PeerId to = kInvalidPeer;
    std::uint32_t attempt = 0;  // 1-based once sent
    Completion on_complete;
    std::uint32_t next_free = kNilSlot;
  };

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  /// Send (or re-send) the request for one attempt: draws the attempt's
  /// fate — both legs' loss — and schedules the single event that resolves
  /// it (delivery at now+rtt, else timeout at now+timeout).
  void send_attempt(std::uint32_t slot);
  void attempt_resolved(std::uint32_t slot, bool delivered);
  void complete(std::uint32_t slot, DeliveryStatus status);

  TransportParams params_;
  sim::Simulator& simulator_;
  Rng rng_;

  std::vector<PendingExchange> slab_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t in_flight_ = 0;
};

}  // namespace guess
