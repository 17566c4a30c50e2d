#include "guess/transport.h"

#include <algorithm>

#include "common/check.h"

namespace guess {

namespace {
const char* kind_name(MessageKind kind) {
  return kind == MessageKind::kPing ? "ping" : "probe";
}
}  // namespace

std::string describe(const TransportParams& params) {
  if (params.kind == TransportParams::Kind::kSynchronous) {
    return "Synchronous (in-event, §5.1)";
  }
  std::ostringstream os;
  os << "Lossy loss=" << params.loss << " latency=" << params.link_latency
     << "s timeout=" << params.probe_timeout
     << "s retries=" << params.max_retries;
  return os.str();
}

// --- SynchronousTransport ---------------------------------------------------

void SynchronousTransport::exchange(MessageKind kind, PeerId from, PeerId to,
                                    Completion on_complete) {
  (void)kind;
  ++counters_.messages_sent;
  // A severed pair behaves like a probe into the void even under the §5.1
  // in-event model: the request vanishes, the exchange times out inline.
  if (modulation_ != nullptr && modulation_->severed(from, to)) {
    ++counters_.messages_lost;
    ++counters_.exchanges_failed;
    on_complete(DeliveryStatus::kTimedOut);
    return;
  }
  on_complete(DeliveryStatus::kDelivered);
}

// --- LossyTransport ---------------------------------------------------------

// Event thunks. Both are three small words; the static_asserts pin them to
// the event queue's inline buffer so fault-injection timeouts/retries never
// allocate inside the scheduler (the exchange state itself lives in the
// transport's slab).
struct LossyTransport::AttemptResolved {
  LossyTransport* transport;
  std::uint32_t slot;
  bool delivered;
  void operator()() const { transport->attempt_resolved(slot, delivered); }
};
struct LossyTransport::ResendFired {
  LossyTransport* transport;
  std::uint32_t slot;
  void operator()() const { transport->send_attempt(slot); }
};

LossyTransport::LossyTransport(TransportParams params,
                               sim::Simulator& simulator, Rng rng)
    : params_(params), simulator_(simulator), rng_(std::move(rng)) {
  static_assert(
      sim::EventQueue::Callback::stores_inline<AttemptResolved>());
  static_assert(sim::EventQueue::Callback::stores_inline<ResendFired>());
  GUESS_CHECK_MSG(params_.kind == TransportParams::Kind::kLossy,
                  "LossyTransport constructed with non-lossy params");
  GUESS_CHECK(params_.loss >= 0.0 && params_.loss <= 1.0);
  GUESS_CHECK(params_.probe_timeout > 0.0);
  GUESS_CHECK(params_.link_latency >= 0.0);
}

std::uint32_t LossyTransport::acquire_slot() {
  if (free_head_ != kNilSlot) {
    std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void LossyTransport::release_slot(std::uint32_t slot) {
  PendingExchange& p = slab_[slot];
  p.on_complete = nullptr;  // drop the captured state eagerly
  p.next_free = free_head_;
  free_head_ = slot;
}

void LossyTransport::exchange(MessageKind kind, PeerId from, PeerId to,
                              Completion on_complete) {
  std::uint32_t slot = acquire_slot();
  PendingExchange& p = slab_[slot];
  p.kind = kind;
  p.from = from;
  p.to = to;
  p.attempt = 0;
  p.on_complete = std::move(on_complete);
  ++in_flight_;
  send_attempt(slot);
}

void LossyTransport::send_attempt(std::uint32_t slot) {
  PendingExchange& p = slab_[slot];
  ++p.attempt;
  ++counters_.messages_sent;

  // An attempt's fate is sealed at send time: both legs' loss coins are
  // drawn up front (a fixed two-draw budget per attempt keeps the stream
  // easy to reason about), and exactly one event resolves it — delivery at
  // now + rtt, or the timeout at now + probe_timeout. Fault modulation
  // perturbs the *parameters* of the draws, never their count, so the RNG
  // stream stays aligned across fault windows opening and closing.
  double loss = params_.loss;
  double latency_factor = 1.0;
  bool severed = false;
  if (modulation_ != nullptr) {
    severed = modulation_->severed(p.from, p.to);
    loss = std::min(1.0, loss + modulation_->extra_loss());
    latency_factor = modulation_->latency_factor();
  }
  bool request_lost = rng_.bernoulli(loss);
  bool reply_lost = rng_.bernoulli(loss);
  sim::Duration rtt = 2.0 * params_.link_latency * latency_factor;

  if (!severed && !request_lost && !reply_lost &&
      rtt <= params_.probe_timeout) {
    trace(simulator_.now(), [&](std::ostream& os) {
      os << kind_name(p.kind) << " " << p.from << " -> " << p.to
         << " attempt=" << p.attempt << " rtt=" << rtt;
    });
    simulator_.after(rtt, AttemptResolved{this, slot, /*delivered=*/true});
    return;
  }

  if (severed) {
    // The request crossed a partition boundary: swallowed by the cut.
    ++counters_.messages_lost;
  } else if (request_lost) {
    ++counters_.messages_lost;
  } else if (reply_lost) {
    // The reply leg only exists if the request arrived.
    ++counters_.messages_lost;
  } else {
    // Both legs survive but the round trip outlasts the timeout: the reply
    // lands on a requester that has already given up on this attempt.
    ++counters_.late_replies;
  }
  trace(simulator_.now(), [&](std::ostream& os) {
    os << kind_name(p.kind) << " " << p.from << " -> " << p.to
       << " attempt=" << p.attempt
       << (severed ? " severed"
                   : request_lost ? " lost=request"
                                  : reply_lost ? " lost=reply" : " late")
       << " timeout_at=" << simulator_.now() + params_.probe_timeout;
  });
  simulator_.after(params_.probe_timeout,
                   AttemptResolved{this, slot, /*delivered=*/false});
}

void LossyTransport::attempt_resolved(std::uint32_t slot, bool delivered) {
  PendingExchange& p = slab_[slot];
  if (delivered) {
    complete(slot, DeliveryStatus::kDelivered);
    return;
  }
  ++counters_.timeouts;
  if (static_cast<std::size_t>(p.attempt) <= params_.max_retries) {
    ++counters_.retransmits;
    trace(simulator_.now(), [&](std::ostream& os) {
      os << kind_name(p.kind) << " " << p.from << " -> " << p.to
         << " retransmit (attempt " << p.attempt + 1 << "/"
         << params_.max_retries + 1 << ")";
    });
    // The resend is its own event at the timeout instant, behind anything
    // else already queued for this time.
    simulator_.after(0.0, ResendFired{this, slot});
    return;
  }
  ++counters_.exchanges_failed;
  trace(simulator_.now(), [&](std::ostream& os) {
    os << kind_name(p.kind) << " " << p.from << " -> " << p.to
       << " failed after " << p.attempt << " attempt(s)";
  });
  complete(slot, DeliveryStatus::kTimedOut);
}

void LossyTransport::complete(std::uint32_t slot, DeliveryStatus status) {
  // Move the completion out before releasing: the callback may start new
  // exchanges, which can reuse (or grow) the slab.
  Completion on_complete = std::move(slab_[slot].on_complete);
  release_slot(slot);
  --in_flight_;
  on_complete(status);
}

}  // namespace guess
