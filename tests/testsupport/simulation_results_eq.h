// Bitwise-equality assertions over SearchResults and SimulationResults,
// shared by the cross-thread determinism tests
// (tests/experiments/parallel_runner_test.cc), the integration determinism
// suite and the golden tests of every backend
// (tests/search/backend_equivalence_test.cc, via digest()).
//
// "Bitwise" is meant literally: a replication is the same sequence of
// floating-point operations no matter which thread runs it, so every double
// must compare == (not just within a tolerance). EXPECT_EQ on doubles does
// exactly that.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/iterative_deepening.h"
#include "common/log_histogram.h"
#include "gnutella/dynamic_overlay.h"
#include "guess/metrics.h"
#include "guess/overload.h"
#include "search/backend.h"
#include "search/gossip.h"
#include "search/onehop.h"

namespace guess::testsupport {

/// The GUESS results riding in a run_search result's extension slot; fails
/// the test (and returns empty results) if the run was another backend.
inline SimulationResults guess_results(const search::SearchResults& run) {
  const auto* results = run.extra_as<SimulationResults>();
  EXPECT_NE(results, nullptr) << "not a GUESS run: " << run.backend;
  return results != nullptr ? *results : SimulationResults{};
}

/// guess_results() of every run of a sweep, in order.
inline std::vector<SimulationResults> guess_results(
    const std::vector<search::SearchResults>& runs) {
  std::vector<SimulationResults> out;
  out.reserve(runs.size());
  for (const search::SearchResults& run : runs) {
    out.push_back(guess_results(run));
  }
  return out;
}

inline void expect_identical(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
}

inline void expect_identical(const ProbeCounters& a, const ProbeCounters& b) {
  EXPECT_EQ(a.good, b.good);
  EXPECT_EQ(a.dead, b.dead);
  EXPECT_EQ(a.refused, b.refused);
}

inline void expect_identical(const ClassMetrics& a, const ClassMetrics& b) {
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_satisfied, b.queries_satisfied);
  expect_identical(a.probes, b.probes);
  expect_identical(a.response_time, b.response_time);
}

inline void expect_identical(const TransportCounters& a,
                             const TransportCounters& b) {
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.late_replies, b.late_replies);
  EXPECT_EQ(a.exchanges_failed, b.exchanges_failed);
}

inline void expect_identical(const AttackStats& a, const AttackStats& b) {
  EXPECT_EQ(a.adversaries_spawned, b.adversaries_spawned);
  EXPECT_EQ(a.adversaries_retired, b.adversaries_retired);
  EXPECT_EQ(a.sybil_respawns, b.sybil_respawns);
  EXPECT_EQ(a.withheld_exchanges, b.withheld_exchanges);
  EXPECT_EQ(a.oversized_pongs, b.oversized_pongs);
  EXPECT_EQ(a.pong_entries_dropped, b.pong_entries_dropped);
  EXPECT_EQ(a.no_reply_charges, b.no_reply_charges);
}

inline void expect_identical(const CacheHealth& a, const CacheHealth& b) {
  EXPECT_EQ(a.fraction_live, b.fraction_live);
  EXPECT_EQ(a.absolute_live, b.absolute_live);
  EXPECT_EQ(a.good_entries, b.good_entries);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.samples, b.samples);
}

inline void expect_identical(const IntervalSample& a,
                             const IntervalSample& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_satisfied, b.queries_satisfied);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.live_peers, b.live_peers);
  expect_identical(a.transport, b.transport);
}

inline void expect_identical(const IntervalSeries& a,
                             const IntervalSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("interval " + std::to_string(i));
    expect_identical(a[i], b[i]);
  }
}

/// 64-bit FNV-1a over the fields expect_identical compares (doubles by bit
/// pattern), so a golden test can pin a whole run in one number.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const RunningStat& s) {
    add(s.count());
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
    add(s.sum());
  }
  void add(const SampleSet& s) {
    add(s.size());
    for (double v : s.values()) add(v);
  }
  void add(const ProbeCounters& p) {
    add(p.good);
    add(p.dead);
    add(p.refused);
  }
  void add(const ClassMetrics& c) {
    add(c.queries_completed);
    add(c.queries_satisfied);
    add(c.probes);
    add(c.response_time);
  }
  void add(const TransportCounters& t) {
    add(t.messages_sent);
    add(t.messages_lost);
    add(t.timeouts);
    add(t.retransmits);
    add(t.late_replies);
    add(t.exchanges_failed);
  }
  void add(const AttackStats& a) {
    add(a.adversaries_spawned);
    add(a.adversaries_retired);
    add(a.sybil_respawns);
    add(a.withheld_exchanges);
    add(a.oversized_pongs);
    add(a.pong_entries_dropped);
    add(a.no_reply_charges);
  }
  void add(const CacheHealth& c) {
    add(c.fraction_live);
    add(c.absolute_live);
    add(c.good_entries);
    add(c.entries);
    add(c.samples);
  }
  void add(const IntervalSeries& series) {
    add(series.size());
    for (const IntervalSample& s : series) {
      add(s.start);
      add(s.end);
      add(s.queries_completed);
      add(s.queries_satisfied);
      add(s.probes);
      add(s.live_peers);
      add(s.transport);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of every field expect_identical(SimulationResults) compares.
inline std::uint64_t digest(const SimulationResults& r) {
  Digest d;
  d.add(r.queries_completed);
  d.add(r.queries_satisfied);
  d.add(r.probes);
  d.add(r.honest);
  d.add(r.selfish);
  d.add(r.response_time);
  d.add(r.query_cache_population);
  d.add(r.peer_loads);
  d.add(r.cache_health);
  d.add(r.largest_component);
  d.add(r.final_largest_component);
  d.add(r.final_largest_strong_component);
  d.add(r.pings_sent);
  d.add(r.pings_to_dead);
  d.add(r.transport);
  d.add(r.attack);
  d.add(r.queries_stalled_out);
  return d.value();
}

/// Digests of the other backends' results structs, over every field.
inline std::uint64_t digest(const gnutella::DynamicResults& r) {
  Digest d;
  d.add(r.messages);
  d.add(r.peers_reached);
  d.add(r.peer_loads);
  d.add(r.repairs);
  return d.value();
}

inline std::uint64_t digest(const search::GossipStats& r) {
  Digest d;
  d.add(r.local_hits);
  d.add(r.knowledge_hits);
  d.add(r.fallback_queries);
  d.add(r.probe_replies);
  d.add(r.stale_ads_expired);
  d.add(r.stale_ads_dead);
  d.add(r.gossip_exchanges);
  d.add(r.gossip_legs);
  d.add(r.ads_sent);
  d.add(r.knowledge_size);
  return d.value();
}

inline std::uint64_t digest(const search::OneHopResults& r) {
  Digest d;
  d.add(r.lookups);
  d.add(r.unanswered);
  d.add(r.one_hop);
  d.add(r.corrective_hops);
  d.add(r.timeouts);
  d.add(r.membership_events);
  return d.value();
}

inline std::uint64_t digest(const baseline::DeepeningResult& r) {
  Digest d;
  d.add(r.avg_cost);
  d.add(r.unsatisfied_rate);
  return d.value();
}

/// Digest of the unified results: every field but the extension slot, with
/// the open-loop accounting and every latency bucket.
inline std::uint64_t digest(const search::SearchResults& r) {
  Digest d;
  for (char c : r.backend) d.add(static_cast<std::uint64_t>(c));
  d.add(r.network_size);
  d.add(r.measure_duration);
  d.add(r.queries_completed);
  d.add(r.queries_satisfied);
  d.add(r.probes);
  d.add(r.query_messages);
  d.add(r.maintenance_messages);
  d.add(r.query_bytes);
  d.add(r.maintenance_bytes);
  d.add(r.deaths);
  d.add(r.response_time);
  d.add(r.probe_samples);
  d.add(r.interval_series);
  for (const IntervalSample& s : r.interval_series) {
    d.add(s.arrivals);
    d.add(s.rejected);
    d.add(s.shed);
    d.add(s.slo_ok);
  }
  const OverloadStats& o = r.overload;
  d.add(static_cast<std::uint64_t>(o.open_loop));
  d.add(static_cast<std::uint64_t>(o.policy));
  d.add(o.offered_qps);
  d.add(o.slo);
  d.add(o.arrivals);
  d.add(o.admitted);
  d.add(o.rejected);
  d.add(o.shed);
  d.add(o.completed);
  d.add(o.satisfied);
  d.add(o.slo_ok);
  d.add(o.abandoned);
  d.add(o.open_at_close);
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    d.add(o.latency.bucket_count(i));
  }
  d.add(r.events_fired);
  return d.value();
}

/// Every field of SimulationResults, entry-for-entry.
inline void expect_identical(const SimulationResults& a,
                             const SimulationResults& b) {
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_satisfied, b.queries_satisfied);
  expect_identical(a.probes, b.probes);
  expect_identical(a.honest, b.honest);
  expect_identical(a.selfish, b.selfish);
  expect_identical(a.response_time, b.response_time);
  expect_identical(a.query_cache_population, b.query_cache_population);
  ASSERT_EQ(a.peer_loads.size(), b.peer_loads.size());
  EXPECT_EQ(a.peer_loads.values(), b.peer_loads.values());
  expect_identical(a.cache_health, b.cache_health);
  expect_identical(a.largest_component, b.largest_component);
  EXPECT_EQ(a.final_largest_component, b.final_largest_component);
  EXPECT_EQ(a.final_largest_strong_component,
            b.final_largest_strong_component);
  EXPECT_EQ(a.pings_sent, b.pings_sent);
  EXPECT_EQ(a.pings_to_dead, b.pings_to_dead);
  expect_identical(a.transport, b.transport);
  expect_identical(a.attack, b.attack);
  EXPECT_EQ(a.queries_stalled_out, b.queries_stalled_out);
}

/// Two runs of any backend: the unified counters, probe samples and
/// interval rows field by field, then digest() over every unified field,
/// and the GUESS struct when both runs carry one.
inline void expect_identical(const search::SearchResults& a,
                             const search::SearchResults& b) {
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_satisfied, b.queries_satisfied);
  EXPECT_EQ(a.probes, b.probes);
  expect_identical(a.response_time, b.response_time);
  EXPECT_EQ(a.probe_samples.values(), b.probe_samples.values());
  expect_identical(a.interval_series, b.interval_series);
  EXPECT_EQ(digest(a), digest(b));
  const auto* ga = a.extra_as<SimulationResults>();
  const auto* gb = b.extra_as<SimulationResults>();
  ASSERT_EQ(ga == nullptr, gb == nullptr);
  if (ga != nullptr) expect_identical(*ga, *gb);
}

}  // namespace guess::testsupport
