#include "guess/peer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace guess {

Peer::Peer(PeerId id, sim::Time birth, content::Library library,
           std::size_t cache_capacity, bool malicious, bool selfish)
    : id_(id),
      birth_(birth),
      malicious_(malicious),
      selfish_(selfish),
      library_(std::move(library)),
      cache_(id, cache_capacity) {
  // Pending-query ring sized at birth for a realistic backlog (queries run
  // one at a time and bursts are 1..5): growing it lazily would leak a
  // first-enqueue allocation into the steady-state query path.
  pending_queries_.reserve(8);
}

void Peer::spend_credit(double cost) {
  GUESS_CHECK_MSG(credit_ >= cost, "spending unaffordable probe");
  credit_ -= cost;
}

void Peer::earn_credit(double reward, double cap) {
  credit_ = std::min(credit_ + reward, cap);
}

void Peer::reserve_credit(double cost) {
  GUESS_CHECK_MSG(can_afford(cost), "reserving unaffordable probe");
  ++reserved_;
}

void Peer::release_credit() {
  GUESS_CHECK_MSG(reserved_ > 0, "releasing credit with none reserved");
  --reserved_;
}

void Peer::commit_credit(double cost) {
  release_credit();
  // The reservation guarantees affordability up to rounding in credit_'s
  // spend/earn history; clamp so an ulp-level shortfall cannot trip the
  // strict spend check mid-run.
  credit_ = std::max(credit_ - cost, 0.0);
}

std::uint32_t Peer::answer_query(content::FileId file,
                                 std::uint32_t max_results) const {
  if (malicious_) return 0;
  if (file == content::kNonexistentFile) return 0;
  if (!library_.contains(file)) return 0;
  // Each peer holds at most one copy of a file; a match is one result.
  return std::min<std::uint32_t>(1, max_results);
}

bool Peer::accept_probe(sim::Time now, std::uint32_t max_probes_per_second) {
  auto window = static_cast<std::int64_t>(std::floor(now));
  if (window != window_) {
    window_ = window;
    window_probes_ = 0;
  }
  if (window_probes_ >= max_probes_per_second) return false;
  ++window_probes_;
  return true;
}

void Peer::note_ping_result(bool dead, bool adaptive) {
  if (!adaptive) return;
  ++ping_window_total_;
  if (dead) ++ping_window_dead_;
  if (ping_window_total_ < kPingAdaptWindow) return;
  double dead_fraction = static_cast<double>(ping_window_dead_) /
                         static_cast<double>(ping_window_total_);
  if (dead_fraction > kPingDeadHigh) {
    ping_interval_ = std::max(kMinPingInterval, ping_interval_ * 0.5);
  } else if (dead_fraction < kPingDeadLow) {
    ping_interval_ = std::min(kMaxPingInterval, ping_interval_ * 1.5);
  }
  ping_window_total_ = 0;
  ping_window_dead_ = 0;
}

bool Peer::note_referral(PeerId source, bool bad,
                         const DetectionParams& params) {
  if (!params.enabled || source == kInvalidPeer || blacklisted(source)) {
    return false;
  }
  auto it = referral_stats_.find(source);
  if (it == referral_stats_.end()) {
    // Bound the tracker at the link-cache working set — cache residents
    // plus the Pong fan-in that feeds query caches; 4x capacity covers a
    // colluding population larger than the cache itself without letting the
    // map grow with every peer ever referred. When full, displace the
    // least-incriminated entry (fewest bad referrals, then fewest total,
    // then lowest id — deterministic). Clean-record referrers can never be
    // blacklisted, so recycling their slots costs nothing, while
    // accumulated evidence against likely attackers survives the churn.
    if (referral_stats_.size() >= 4 * cache_.capacity()) {
      auto victim = referral_stats_.begin();
      auto worse = [](const std::pair<const PeerId, ReferralStats>& a,
                      const std::pair<const PeerId, ReferralStats>& b) {
        if (a.second.bad != b.second.bad) return a.second.bad < b.second.bad;
        if (a.second.total != b.second.total)
          return a.second.total < b.second.total;
        return a.first < b.first;
      };
      for (auto cand = referral_stats_.begin(); cand != referral_stats_.end();
           ++cand) {
        if (worse(*cand, *victim)) victim = cand;
      }
      referral_stats_.erase(victim);
    }
    it = referral_stats_.emplace(source, ReferralStats{}).first;
  }
  ReferralStats& stats = it->second;
  ++stats.total;
  if (bad) ++stats.bad;
  if (stats.total < params.min_referrals) return false;
  double rate = static_cast<double>(stats.bad) /
                static_cast<double>(stats.total);
  if (rate <= params.bad_threshold) return false;
  convict(source);
  if (params.adaptive_policy_switch &&
      blacklist_.size() >= params.switch_threshold) {
    first_hand_only_ = true;  // under attack: stop trusting foreign claims
    cache_.set_first_hand_only(true);
  }
  return true;
}

bool Peer::blacklist_now(PeerId source, const DetectionParams& params) {
  if (!params.enabled || source == kInvalidPeer || blacklisted(source)) {
    return false;
  }
  convict(source);
  // Statistical convictions wait for the blacklist to reach
  // switch_threshold before abandoning foreign claims, because each one
  // might be a false positive. A structurally-impossible message is proof
  // of an active attacker, so the defensive posture follows immediately.
  if (params.adaptive_policy_switch) {
    first_hand_only_ = true;
    cache_.set_first_hand_only(true);
  }
  return true;
}

void Peer::convict(PeerId source) {
  blacklist_.insert(source);
  referral_stats_.erase(source);
  // A blacklisted peer is never probed again, so a pending backoff window
  // for it is dead weight — and a peer that never replies (withholding)
  // reaches here through repeated timeout charges while also being backed
  // off; erase the window so the two verdicts stay consistent.
  backoff_until_.erase(source);
}

bool Peer::backed_off(PeerId target, sim::Time now) {
  auto it = backoff_until_.find(target);
  if (it == backoff_until_.end()) return false;
  if (it->second > now) return true;
  backoff_until_.erase(it);  // expired: prune so the map stays bounded
  return false;
}

Peer::PendingQuery Peer::pop_pending_query() {
  GUESS_CHECK(has_pending_query());
  PendingQuery file = pending_queries_[pending_head_++];
  if (pending_head_ == pending_queries_.size()) {
    pending_queries_.clear();
    pending_head_ = 0;
  } else if (pending_head_ >= 8 &&
             pending_head_ * 2 >= pending_queries_.size()) {
    // A peer that always has a fresh burst queued before the old one drains
    // would otherwise grow the vector with its cumulative throughput, not
    // its backlog. Sliding the live suffix down reuses the buffer —
    // amortized O(1), and never an allocation.
    pending_queries_.erase(pending_queries_.begin(),
                           pending_queries_.begin() +
                               static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
  }
  return file;
}

}  // namespace guess
