// System and protocol parameters — the paper's Tables 1 and 2, plus the
// implementation knobs the paper fixes in prose (probe slot of 0.2 s,
// CacheSeedSize ≈ NetworkSize/100, parallel probes as a §6.2 extension).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "content/content_model.h"
#include "content/query_stream.h"
#include "guess/policy.h"
#include "sim/time.h"

namespace guess {

/// What a malicious peer puts in its Pongs (§6.4).
enum class BadPongBehavior {
  kDead,  ///< dead IP addresses (non-colluding attackers)
  kBad,   ///< addresses of other malicious peers (collusion)
};

/// Table 1: parameters of the *system* the protocol runs on.
struct SystemParams {
  std::size_t network_size = 1000;       ///< NetworkSize
  std::size_t num_desired_results = 1;   ///< NumDesiredResults
  double lifespan_multiplier = 1.0;      ///< LifespanMultiplier
  double query_rate = 9.26e-3;           ///< QueryRate (queries/user/second)
  std::uint32_t max_probes_per_second = 100;  ///< MaxProbesPerSecond
  double percent_bad_peers = 0.0;        ///< PercentBadPeers, as a percentage (0..100)
  BadPongBehavior bad_pong_behavior = BadPongBehavior::kDead;

  /// CacheSeedSize (§5.1): initial live entries per cache; the paper found
  /// any small value (~NetworkSize/100) equivalent. 0 = NetworkSize/100,
  /// clamped to [5, cache size].
  std::size_t cache_seed_size = 0;

  /// Percentage of peers that are SELFISH (§3.3): they follow the protocol
  /// except that they blast `selfish_parallel_probes` probes per slot
  /// instead of probing serially, maximizing their own response time at
  /// everyone else's expense. Selfishness is orthogonal to malice.
  double percent_selfish_peers = 0.0;
  std::size_t selfish_parallel_probes = 100;

  /// Content/query workload (DESIGN.md substitutions #2/#3).
  content::ContentParams content;

  /// Burst structure of query arrivals (§5.1).
  std::size_t burst_min = 1;
  std::size_t burst_max = 5;

  /// Resolved cache seed size for a given cache capacity.
  std::size_t resolved_cache_seed(std::size_t cache_size) const;

  /// Fraction in [0,1) derived from percent_bad_peers.
  double bad_fraction() const { return percent_bad_peers / 100.0; }
};

/// Probe-payment economy (§3.3's countermeasure to selfish probing): every
/// probe delivered to a live peer transfers `probe_cost` credits from the
/// prober to the server. Peers start with `initial_credit` and can hold at
/// most `credit_cap`. A peer without credit cannot probe — its query stalls
/// until inbound probes earn it more (or the stall limit expires the query).
/// This caps any peer's long-run probe rate at the rate it serves others,
/// which is exactly the incentive the paper sketches (via PPay [23]).
/// Default economy: a mild producer surplus (serve_reward > probe_cost)
/// keeps honest serial querying affordable even though load (and hence
/// income) concentrates on big sharers, while a blaster still burns its
/// endowment in a few queries and drops to its serve-rate budget.
struct PaymentParams {
  bool enabled = false;
  double initial_credit = 100.0;
  double probe_cost = 1.0;
  double serve_reward = 2.0;
  double credit_cap = 1000.0;
  /// A stalled (creditless) query is abandoned as unsatisfied after this
  /// many consecutive probe slots without progress.
  std::size_t max_stalled_slots = 600;
};

/// Adaptive ping maintenance — the runtime guideline §6.1 closes with:
/// "if a peer discovers that many of its probes are to dead addresses, the
/// peer should decrease its PingInterval... if almost all its entries are
/// live, it may increase it." Every `window` pings the peer looks at the
/// dead fraction and halves its interval (≥ min_interval) when above
/// `dead_high`, or grows it by 1.5x (≤ max_interval) when below `dead_low`.
struct AdaptivePingParams {
  bool enabled = false;
  sim::Duration min_interval = 5.0;
  sim::Duration max_interval = 480.0;
  std::size_t window = 10;
  double dead_high = 0.3;
  double dead_low = 0.05;
};

/// Malicious-peer detection — §6.4's closing future work: "detecting
/// malicious peers can be accomplished using heuristics — for example...
/// if a peer consistently returns many dead IP addresses in its Pong."
/// Two kinds of evidence, scored per suspect with `note_referral`:
///  * dead referrals: the Pong entries a neighbor supplied during a query
///    turned out dead (the Dead-pool attack signature; charged to the
///    referrer — honest staleness stays well below the threshold);
///  * lies: a probed peer returns nothing despite its entry claiming
///    `lie_claim_threshold`+ results (the collusion signature; charged to
///    the liar itself — honest peers forward claims they cannot verify, so
///    referrers are NOT blamed for them).
/// After `min_referrals` samples, a suspect whose bad fraction exceeds
/// `bad_threshold` is blacklisted: evicted, never re-admitted, never probed,
/// Pongs ignored.
/// A peer whose blacklist reaches `switch_threshold` concludes it is under
/// attack and switches itself from trusting to first-hand-only ingestion
/// (MR → MR*), zeroing foreign NumRes claims from then on — the adaptive
/// policy switching the paper proposes ("peers can learn to switch between
/// MR and MR* if malicious peers are present").
struct DetectionParams {
  bool enabled = false;
  std::size_t min_referrals = 3;
  double bad_threshold = 0.6;
  bool adaptive_policy_switch = true;
  std::size_t switch_threshold = 5;
  /// A probed peer that returns nothing despite an entry claiming at least
  /// this many results is treated as a liar (and charged alongside its
  /// referrer). Honest entries carry NumRes of 0 or 1 per answered query,
  /// while the MR-hijacking attack needs outsized claims to win the
  /// ordering — so the magnitude of the claim is itself the signature.
  std::uint32_t lie_claim_threshold = 5;

  // --- Hardening against the adversary zoo (DESIGN.md §11) ---

  /// Cap on entries accepted from a single Pong (0 = unlimited, the
  /// protocol's implicit trust). A Pong exceeding the cap is discarded
  /// wholesale and its sender blacklisted outright — the pong-flood
  /// amplification signature is the oversize itself (honest Pongs carry
  /// PongSize entries), so one observation is proof: no referral
  /// accumulation is needed, and nothing a proven liar lists is worth
  /// ingesting.
  std::size_t max_pong_entries = 0;

  /// Charge a peer that never replies to our own Ping/QueryProbe with a bad
  /// referral against *itself*. Counters reply-withholding (slowloris):
  /// a withholder keeps reinserting itself via introductions, so each
  /// timeout it costs us is evidence, and the charges window consistently
  /// with the pings_to_dead accounting (measured at issue time). Dead
  /// honest peers collect charges too, but their ids are never reused, so
  /// a posthumous blacklisting is harmless.
  bool charge_no_reply = false;

  /// Eclipse resistance: when > 0, a link cache refuses to replace a
  /// first-hand entry with a non-first-hand candidate while first-hand
  /// entries number at most this floor. Attack pongs are never first-hand,
  /// so a colluding cohort cannot displace the last `first_hand_floor`
  /// entries of a victim's own direct experience.
  std::size_t first_hand_floor = 0;

  /// The hardened preset the adversary-matrix bench evaluates: detection on
  /// with tighter thresholds plus all three zoo countermeasures.
  static DetectionParams hardened();
};

/// Pong-server rebootstrap. §6.1: "unless there is some form of centralized
/// boot-strapping server (e.g., pong servers such as those run by LimeWire
/// for Gnutella), the network is unlikely to heal." A peer whose link cache
/// has shrunk below `min_entries` (it has been eaten by churn, poisoning or
/// blacklist evictions) asks the pong server for fresh live addresses, at
/// most once per `cooldown` — the paper's "we do not wish to make heavy use
/// of the service" constraint. The server tracks liveness, not honesty: it
/// hands out uniformly random live peers, attackers included.
struct BootstrapParams {
  bool pong_server_reseed = false;
  std::size_t min_entries = 10;
  /// Addresses handed out per reseed (0 = the CacheSeedSize default).
  std::size_t amount = 0;
  sim::Duration cooldown = 300.0;
};

/// Table 2: parameters of the GUESS protocol itself.
struct ProtocolParams {
  Policy query_probe = Policy::kRandom;        ///< QueryProbe
  Policy query_pong = Policy::kRandom;         ///< QueryPong
  Policy ping_probe = Policy::kRandom;         ///< PingProbe
  Policy ping_pong = Policy::kRandom;          ///< PingPong
  Replacement cache_replacement = Replacement::kRandom;  ///< CacheReplacement
  sim::Duration ping_interval = 30.0;          ///< PingInterval (seconds)
  std::size_t cache_size = 100;                ///< CacheSize
  bool reset_num_results = false;              ///< ResetNumResults (MR* = MR + this)
  bool do_backoff = false;                     ///< DoBackoff
  std::size_t pong_size = 5;                   ///< PongSize
  double intro_prob = 0.1;                     ///< IntroProb

  // --- Fixed by the GUESS spec / paper prose ---

  /// Serial probing slot: one probe is sent, then the peer waits for the
  /// reply or the timeout before the next probe (§2.3; 0.2 s per §6.2).
  sim::Duration probe_interval = 0.2;

  /// Probes sent per slot (§6.2's parallel-walk extension; spec default 1).
  std::size_t parallel_probes = 1;

  /// Hard cap on probes per query (0 = probe until candidates run out).
  /// 1000 matches the largest extent the paper evaluates (Figure 8).
  std::size_t max_probes_per_query = 1000;

  /// With DoBackoff, how long a refused peer is exempt from re-probing.
  sim::Duration backoff_duration = 30.0;

  /// Probe-payment economy (§3.3); disabled by default.
  PaymentParams payments;

  /// Adaptive ping maintenance (§6.1 guideline); disabled by default.
  AdaptivePingParams adaptive_ping;

  /// Malicious-peer detection (§6.4 future work); disabled by default.
  DetectionParams detection;

  /// Pong-server rebootstrap (§6.1's healing mechanism); disabled by
  /// default.
  BootstrapParams bootstrap;

  /// When false, Pong entries received during a query do NOT extend the
  /// candidate set — the query can only probe the link-cache snapshot it
  /// started with. Ablation knob isolating the query cache's contribution
  /// (§2.3's mechanism for probing beyond the link cache).
  bool use_query_cache = true;

  /// §6.2's future-work extension: when enabled, a query that completes
  /// `adaptive_parallel_trigger` consecutive result-less probe slots doubles
  /// its per-slot probe count (up to `adaptive_parallel_max`). Improves
  /// worst-case response time at a small probe overhead.
  bool adaptive_parallel = false;
  std::size_t adaptive_parallel_trigger = 10;
  std::size_t adaptive_parallel_max = 32;

  /// Configure the MR* policy of §6.4 for all query-side policy types:
  /// MR ordering + first-hand-only NumRes.
  static ProtocolParams mr_star_defaults();
};

std::string to_string(BadPongBehavior behavior);
/// Inverse of to_string: "Dead" or "Bad"; CheckError on anything else.
BadPongBehavior parse_bad_pong_behavior(const std::string& name);

/// One-line human-readable summaries used by bench headers.
std::string describe(const SystemParams& params);
std::string describe(const ProtocolParams& params);

}  // namespace guess
