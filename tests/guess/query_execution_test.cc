#include "guess/query_execution.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/check.h"

namespace guess {
namespace {

CacheEntry entry(PeerId id, std::uint32_t files = 0, std::uint32_t res = 0,
                 sim::Time ts = 0.0) {
  return CacheEntry{id, ts, files, res};
}

TEST(ProbeCounters, CountsByOutcome) {
  ProbeCounters counters;
  counters.count(ProbeOutcome::kGood);
  counters.count(ProbeOutcome::kGood);
  counters.count(ProbeOutcome::kDead);
  counters.count(ProbeOutcome::kRefused);
  EXPECT_EQ(counters.good, 2u);
  EXPECT_EQ(counters.dead, 1u);
  EXPECT_EQ(counters.refused, 1u);
  EXPECT_EQ(counters.total(), 4u);
}

TEST(ProbeCounters, Accumulates) {
  ProbeCounters a, b;
  a.good = 1;
  a.dead = 2;
  b.good = 10;
  b.refused = 5;
  a += b;
  EXPECT_EQ(a.good, 11u);
  EXPECT_EQ(a.dead, 2u);
  EXPECT_EQ(a.refused, 5u);
}

TEST(QueryExecution, CandidatesDedupedByPeer) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  EXPECT_TRUE(query.add_candidate(entry(2), rng));
  EXPECT_FALSE(query.add_candidate(entry(2), rng));  // seen before
  EXPECT_EQ(query.queued(), 1u);
  EXPECT_EQ(query.seen(), 1u);
}

TEST(QueryExecution, OriginNeverQueued) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  EXPECT_FALSE(query.add_candidate(entry(1), rng));
  EXPECT_EQ(query.queued(), 0u);
}

TEST(QueryExecution, ProbeOrderFollowsPolicy) {
  QueryExecution query(1, 7, 1, Policy::kMFS, 0.0);
  Rng rng(1);
  query.add_candidate(entry(2, 10), rng);
  query.add_candidate(entry(3, 100), rng);
  query.add_candidate(entry(4, 50), rng);
  EXPECT_EQ(query.next_candidate()->id, 3u);
  EXPECT_EQ(query.next_candidate()->id, 4u);
  EXPECT_EQ(query.next_candidate()->id, 2u);
  EXPECT_FALSE(query.next_candidate().has_value());
}

TEST(QueryExecution, EqualScoresAreFifo) {
  QueryExecution query(1, 7, 1, Policy::kMFS, 0.0);
  Rng rng(1);
  query.add_candidate(entry(10, 5), rng);
  query.add_candidate(entry(11, 5), rng);
  query.add_candidate(entry(12, 5), rng);
  EXPECT_EQ(query.next_candidate()->id, 10u);
  EXPECT_EQ(query.next_candidate()->id, 11u);
  EXPECT_EQ(query.next_candidate()->id, 12u);
}

TEST(QueryExecution, LateCandidatesCompeteByScore) {
  QueryExecution query(1, 7, 1, Policy::kMR, 0.0);
  Rng rng(1);
  query.add_candidate(entry(2, 0, 1), rng);
  EXPECT_EQ(query.next_candidate()->id, 2u);
  // New pong-delivered candidates enter the live ordering.
  query.add_candidate(entry(3, 0, 9), rng);
  query.add_candidate(entry(4, 0, 4), rng);
  EXPECT_EQ(query.next_candidate()->id, 3u);
  EXPECT_EQ(query.next_candidate()->id, 4u);
}

TEST(QueryExecution, ProbedPeerNotReaddable) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  query.add_candidate(entry(2), rng);
  query.next_candidate();
  EXPECT_FALSE(query.add_candidate(entry(2), rng));
  EXPECT_EQ(query.queued(), 0u);
}

// Bit 0 of word 0 is an id like any other: set, deduped and cleared.
TEST(QueryExecution, ZeroIdIsAnOrdinaryId) {
  QueryExecution query(5, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  EXPECT_TRUE(query.add_candidate(entry(0), rng));
  EXPECT_FALSE(query.add_candidate(entry(0), rng));
  EXPECT_EQ(query.next_candidate()->id, 0u);
  query.reset(5, 7, 1, Policy::kRandom, 0.0);
  EXPECT_TRUE(query.add_candidate(entry(0), rng));
  EXPECT_EQ(query.seen(), 1u);
}

// Sources are stored in 32 bits with the all-ones value standing for
// kInvalidPeer: both it and the largest storable id come back as given.
TEST(QueryExecution, SourceSentinelRoundTrips) {
  constexpr PeerId kLargest = 0xFFFFFFFEu;  // 2^32 - 2
  QueryExecution query(1, 7, 1, Policy::kMFS, 0.0);
  Rng rng(1);
  query.add_candidate(entry(2, 10), kInvalidPeer, rng);
  query.add_candidate(entry(3, 5), kLargest, rng);
  auto first = query.next_candidate();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->source, kInvalidPeer);
  auto second = query.next_candidate();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->source, kLargest);
}

// Ids at or above 2^32 - 1 do not fit the cache's 32-bit storage and are
// rejected before anything is recorded or drawn. (Only the rejected side
// is tested: an accepted id near 2^32 would size a 512 MB bitmap.)
TEST(QueryExecution, IdsPastThirtyTwoBitsRejected) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  Rng twin(1);
  EXPECT_THROW(query.add_candidate(entry(0xFFFFFFFFu), rng), CheckError);
  EXPECT_THROW(query.add_candidate(entry(kInvalidPeer), rng), CheckError);
  EXPECT_THROW(query.add_candidate(entry(2), /*source=*/0xFFFFFFFFu, rng),
               CheckError);
  EXPECT_EQ(query.seen(), 0u);
  EXPECT_EQ(query.queued(), 0u);
  EXPECT_EQ(rng.uniform(), twin.uniform());  // no score was drawn
  EXPECT_TRUE(query.add_candidate(entry(2), rng));
}

// The pool's bound (GuessBackend::release_active_query): an execution whose
// stores grew past it frees them and clears its bits, so the next query's
// reservation sizes it afresh, every id is fresh again, and it still
// dedups within that query. Within the bound, trim keeps the stores.
TEST(QueryExecution, TrimPastTheBoundFreesStoresAndBits) {
  constexpr PeerId kOrigin = 100000;
  QueryExecution query(kOrigin, 7, 1, Policy::kRandom, 0.0);
  query.reserve_candidates(10, 5000);
  Rng rng(1);
  for (PeerId id = 0; id < 3000; id += 3) {
    ASSERT_TRUE(query.add_candidate(entry(id), rng));
  }
  const std::size_t grown = query.candidate_capacity();
  ASSERT_GE(grown, 1000u);
  query.trim(grown);
  EXPECT_EQ(query.candidate_capacity(), grown) << "trimmed within the bound";
  query.trim(grown - 1);
  EXPECT_EQ(query.candidate_capacity(), 0u);
  query.reset(kOrigin, 7, 1, Policy::kRandom, 0.0);
  query.reserve_candidates(10, 5000);
  EXPECT_EQ(query.candidate_capacity(), 10u);
  for (PeerId id = 0; id < 3000; id += 3) {
    EXPECT_TRUE(query.add_candidate(entry(id), rng))
        << "id " << id << " survived the trim";
  }
  for (PeerId id = 0; id < 3000; id += 3) {
    EXPECT_FALSE(query.add_candidate(entry(id), rng)) << "id " << id;
  }
  EXPECT_EQ(query.seen(), 1000u);
  EXPECT_EQ(query.queued(), 1000u);
}

TEST(QueryExecution, SatisfactionAtDesiredResults) {
  QueryExecution query(1, 7, 3, Policy::kRandom, 0.0);
  EXPECT_FALSE(query.satisfied());
  query.add_results(2);
  EXPECT_FALSE(query.satisfied());
  query.add_results(1);
  EXPECT_TRUE(query.satisfied());
  EXPECT_EQ(query.results(), 3u);
}

TEST(QueryExecution, TracksIdentityAndStart) {
  QueryExecution query(42, 17, 1, Policy::kRandom, 123.5);
  EXPECT_EQ(query.origin(), 42u);
  EXPECT_EQ(query.file(), 17u);
  EXPECT_DOUBLE_EQ(query.start_time(), 123.5);
}

TEST(QueryExecution, ZeroDesiredResultsRejected) {
  EXPECT_THROW(QueryExecution(1, 7, 0, Policy::kRandom, 0.0), CheckError);
}

TEST(QueryExecution, OutcomeRecordingFeedsCounters) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  query.record_outcome(ProbeOutcome::kDead);
  query.record_outcome(ProbeOutcome::kGood);
  EXPECT_EQ(query.counters().total(), 2u);
  EXPECT_EQ(query.counters().dead, 1u);
}

// --- Model check: the compact query cache against a reference ------------
//
// One pooled execution is re-armed for 1200 queries and compared, operation
// by operation, with a reference: a std::set of accepted ids and an
// insertion-ordered list of (score, n) pairs popped by max score with FIFO
// ties. Each query
//   1. offers the new ids the previous query accepted in its phase 2, which
//      must all be fresh again (no id survives reset());
//   2. interleaves pops with offers of new ids, repeats and the origin; the
//      bitmap is reserved for kIdBound ids, and the second half of the
//      offers reaches 16x past that, so it grows while bits are set;
//   3. re-offers every id offered so far, all of which must be rejected.
// Every policy is covered; Random scores come from a twin of the
// execution's Rng, drawn once per accepted insert.

class ReferenceCache {
 public:
  ReferenceCache(PeerId origin, Policy policy, bool first_hand_only,
                 Rng& twin)
      : origin_(origin),
        policy_(policy),
        first_hand_only_(first_hand_only),
        twin_(twin) {}

  bool offer(const CacheEntry& e, PeerId source) {
    if (e.id == origin_ || !seen_.insert(e.id).second) return false;
    queue_.push_back(Queued{score(e), next_++, {e.id, source, e.num_res}});
    return true;
  }

  std::optional<QueryExecution::Candidate> pop() {
    if (queue_.empty()) return std::nullopt;
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      const Queued& q = queue_[i];
      if (q.score > queue_[best].score ||
          (q.score == queue_[best].score && q.n < queue_[best].n)) {
        best = i;
      }
    }
    QueryExecution::Candidate out = queue_[best].candidate;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
    return out;
  }

  std::size_t seen() const { return seen_.size(); }
  std::size_t queued() const { return queue_.size(); }

 private:
  struct Queued {
    double score;
    std::uint64_t n;  // insertion order
    QueryExecution::Candidate candidate;
  };

  double score(const CacheEntry& e) {
    switch (policy_) {
      case Policy::kRandom: return twin_.uniform();
      case Policy::kMRU: return e.ts;
      case Policy::kLRU: return -e.ts;
      case Policy::kMFS: return static_cast<double>(e.num_files);
      case Policy::kMR:
        return first_hand_only_ && !e.first_hand
                   ? 0.0
                   : static_cast<double>(e.num_res);
    }
    return 0.0;
  }

  PeerId origin_;
  Policy policy_;
  bool first_hand_only_;
  Rng& twin_;
  std::set<PeerId> seen_;
  std::vector<Queued> queue_;
  std::uint64_t next_ = 0;
};

TEST(QueryCacheModel, MatchesReferenceAcrossResets) {
  constexpr PeerId kIdBound = 64;             // what the bitmap is sized for
  constexpr PeerId kIdLimit = 16 * kIdBound;  // what offers reach mid-query
  constexpr Policy kPolicies[] = {Policy::kRandom, Policy::kMRU, Policy::kLRU,
                                  Policy::kMFS, Policy::kMR};
  Rng draws(7);  // drives the operation sequence
  Rng rng(11);   // the execution's score draws
  Rng twin(11);  // the reference's
  QueryExecution query(0, 1, 1, Policy::kRandom, 0.0);
  std::vector<PeerId> previous;  // ids the last query accepted in phase 2
  for (int cycle = 0; cycle < 1200; ++cycle) {
    const Policy policy = kPolicies[cycle % 5];
    const bool first_hand_only = (cycle / 5) % 2 == 1;
    const PeerId origin = draws.index(kIdLimit);
    query.reset(origin, 1, 1, policy, 0.0, 1, first_hand_only);
    query.reserve_candidates(8, kIdBound);
    ReferenceCache ref(origin, policy, first_hand_only, twin);
    std::vector<PeerId> offered;
    std::vector<PeerId> accepted;
    auto offer = [&](PeerId id) {
      // Small field ranges make equal scores common: ties must pop FIFO.
      CacheEntry e{id, static_cast<double>(draws.index(4)),
                   static_cast<std::uint32_t>(draws.index(4)),
                   static_cast<std::uint32_t>(draws.index(3)),
                   draws.bernoulli(0.5)};
      PeerId source =
          draws.bernoulli(0.3) ? kInvalidPeer : PeerId{draws.index(kIdLimit)};
      bool got = query.add_candidate(e, source, rng);
      EXPECT_EQ(got, ref.offer(e, source)) << "cycle " << cycle << " id " << id;
      offered.push_back(id);
      return got;
    };
    auto pop = [&] {
      auto got = query.next_candidate();
      auto want = ref.pop();
      ASSERT_EQ(got.has_value(), want.has_value()) << "cycle " << cycle;
      if (!got) return;
      EXPECT_EQ(got->id, want->id) << "cycle " << cycle;
      EXPECT_EQ(got->source, want->source) << "cycle " << cycle;
      EXPECT_EQ(got->num_res, want->num_res) << "cycle " << cycle;
    };
    auto sizes_agree = [&] {
      EXPECT_EQ(query.seen(), ref.seen()) << "cycle " << cycle;
      EXPECT_EQ(query.queued(), ref.queued()) << "cycle " << cycle;
    };

    EXPECT_EQ(query.seen(), 0u);
    EXPECT_EQ(query.queued(), 0u);
    // 1. Nothing the previous query accepted survives the reset.
    for (PeerId id : previous) offer(id);
    sizes_agree();
    // 2. Pops interleaved with new ids, repeats and the origin.
    const std::size_t ops = 20 + draws.index(80);
    for (std::size_t k = 0; k < ops; ++k) {
      double roll = draws.uniform();
      if (roll < 0.25) {
        pop();
      } else if (roll < 0.35 && !offered.empty()) {
        offer(offered[draws.index(offered.size())]);
      } else if (roll < 0.40) {
        offer(origin);
      } else {
        PeerId id = draws.index(2 * k < ops ? kIdBound : kIdLimit);
        if (offer(id)) accepted.push_back(id);
      }
      sizes_agree();
    }
    // 3. After the growth, every id offered this query is still known.
    const std::vector<PeerId> again = offered;
    for (PeerId id : again) {
      offer(id);
      if (draws.bernoulli(0.2)) pop();
    }
    sizes_agree();
    ASSERT_FALSE(HasFailure()) << "first mismatch in cycle " << cycle;
    previous = accepted;
  }
  // The execution drew exactly the reference's Random scores.
  EXPECT_EQ(rng.uniform(), twin.uniform());
}

// The dedup bitmap keeps the contract of the EpochSet it replaced: reset()
// forgets every id, growth keeps only the current query's ids, and across
// many reset cycles the accept verdicts match a plain set. Membership is
// observed through add_candidate: true for a fresh id, false for a repeat.

TEST(EpochSet, ClearForgetsEverything) {
  constexpr PeerId kOrigin = 1000;
  QueryExecution query(kOrigin, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  for (PeerId id = 0; id < 100; ++id) {
    EXPECT_TRUE(query.add_candidate(entry(id), rng));
  }
  EXPECT_EQ(query.seen(), 100u);
  query.reset(kOrigin, 7, 1, Policy::kRandom, 0.0);
  EXPECT_EQ(query.seen(), 0u);
  EXPECT_EQ(query.queued(), 0u);
  for (PeerId id = 0; id < 100; ++id) {
    EXPECT_TRUE(query.add_candidate(entry(id), rng))
        << "id " << id << " survived reset()";
  }
  for (PeerId id = 0; id < 100; ++id) {
    EXPECT_FALSE(query.add_candidate(entry(id), rng));
  }
  EXPECT_EQ(query.seen(), 100u);
}

TEST(EpochSet, GrowthPreservesCurrentEpochOnly) {
  constexpr PeerId kOrigin = 5000;
  QueryExecution query(kOrigin, 7, 1, Policy::kRandom, 0.0);
  query.reserve_candidates(4, 64);
  Rng rng(1);
  ASSERT_TRUE(query.add_candidate(entry(1), rng));
  ASSERT_TRUE(query.add_candidate(entry(700), rng));  // grows past 64
  query.reset(kOrigin, 7, 1, Policy::kRandom, 0.0);
  for (PeerId id = 2; id < 64; ++id) {
    EXPECT_TRUE(query.add_candidate(entry(id), rng));
  }
  // Grow again, 16x past the first growth, while 2..63 are set and the
  // previous query's ids are cleared.
  for (PeerId id = 1024; id < 16 * 1024; id += 97) {
    EXPECT_TRUE(query.add_candidate(entry(id), rng));
  }
  EXPECT_TRUE(query.add_candidate(entry(1), rng)) << "stale id 1 kept";
  EXPECT_TRUE(query.add_candidate(entry(700), rng)) << "stale id 700 kept";
  for (PeerId id = 2; id < 64; ++id) {
    EXPECT_FALSE(query.add_candidate(entry(id), rng))
        << "id " << id << " lost in growth";
  }
  for (PeerId id = 1024; id < 16 * 1024; id += 97) {
    EXPECT_FALSE(query.add_candidate(entry(id), rng)) << "id " << id;
  }
}

TEST(EpochSetFuzz, MatchesUnorderedSetAcrossClearCycles) {
  constexpr PeerId kKeys = 512;
  constexpr PeerId kOrigin = PeerId{1} << 20;  // never offered
  Rng draws(42);
  Rng rng(3);
  QueryExecution query(kOrigin, 7, 1, Policy::kRandom, 0.0);
  query.reserve_candidates(16, 64);
  std::unordered_set<PeerId> model;
  std::size_t popped = 0;
  for (int step = 0; step < 20000; ++step) {
    double roll = draws.uniform();
    if (roll < 0.02) {
      query.reset(kOrigin, 7, 1, Policy::kRandom, 0.0);
      model.clear();
      popped = 0;
    } else if (roll < 0.10) {
      auto got = query.next_candidate();
      ASSERT_EQ(got.has_value(), popped < model.size()) << "step " << step;
      if (got) {
        ++popped;
        ASSERT_TRUE(model.contains(got->id)) << "step " << step;
      }
    } else {
      // A narrow key window (plenty of duplicate offers) that slides up by
      // half its width every 2000 steps, so the bitmap grows mid-cycle
      // while the overlap's bits are set.
      PeerId key = (step / 2000) * (kKeys / 2) + draws.index(kKeys);
      ASSERT_EQ(query.add_candidate(entry(key), rng), model.insert(key).second)
          << "step " << step << " key " << key;
    }
    if (step % 64 == 0) {
      ASSERT_EQ(query.seen(), model.size()) << "step " << step;
      ASSERT_EQ(query.queued(), model.size() - popped) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace guess
