// SlotTable: the dense id -> slot population layer under GUESS, the
// flood overlay and the gossip backend, over a minimal payload. Unit tests
// pin the slot-allocation discipline (LIFO reuse, generation bumps,
// birth-order alive list, mass-kill sampling) and a model-based fuzz drives
// churn-burst op sequences against a reference map to prove the free list
// never loses or duplicates a slot and a (slot, generation) reference can
// never resurrect a stale id.
#include "common/slot_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace guess {
namespace {

struct Payload {
  std::uint64_t id;
};

using Table = SlotTable<Payload>;
using Id = Table::Id;

Payload& birth(Table& table, Id id) { return table.create(id); }

TEST(SlotTable, CreateFindDestroy) {
  Table table;
  Payload& a = birth(table, 0);
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.alive(0));
  EXPECT_EQ(table.find(0), &a);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_FALSE(table.alive(1));

  table.destroy(0);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.alive(0));
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.slot_of(0), Table::kNoSlot);
}

TEST(SlotTable, IdReuseIsRejected) {
  Table table;
  birth(table, 5);
  table.destroy(5);
  // Ids are monotonic in the network; the table enforces it.
  EXPECT_THROW(birth(table, 5), CheckError);
}

TEST(SlotTable, FreedSlotsAreReusedLifo) {
  Table table;
  for (Id id = 0; id < 4; ++id) birth(table, id);
  EXPECT_EQ(table.slot_count(), 4u);
  std::uint32_t slot1 = table.slot_of(1);
  std::uint32_t slot3 = table.slot_of(3);
  table.destroy(1);
  table.destroy(3);
  // LIFO: the most recently freed slot is claimed first.
  EXPECT_EQ(table.slot_of(birth(table, 4).id), slot3);
  EXPECT_EQ(table.slot_of(birth(table, 5).id), slot1);
  EXPECT_EQ(table.slot_count(), 4u);  // no growth while holes exist
  birth(table, 6);
  EXPECT_EQ(table.slot_count(), 5u);
}

TEST(SlotTable, AliveIdsFollowsBirthOrderWithSwapRemove) {
  Table table;
  for (Id id = 0; id < 5; ++id) birth(table, id);
  EXPECT_EQ(table.alive_ids(), (std::vector<Id>{0, 1, 2, 3, 4}));
  table.destroy(1);  // back (4) fills the hole
  EXPECT_EQ(table.alive_ids(), (std::vector<Id>{0, 4, 2, 3}));
  EXPECT_EQ(table.alive_pos(4), 1u);
  birth(table, 5);
  EXPECT_EQ(table.alive_ids(), (std::vector<Id>{0, 4, 2, 3, 5}));
}

TEST(SlotTable, GenerationTagNeverResurrectsStalePeer) {
  Table table;
  Payload& a = birth(table, 0);
  std::uint32_t slot = table.slot_of(0);
  std::uint32_t gen = table.generation(slot);
  EXPECT_EQ(table.peer_in_slot(slot, gen), &a);

  table.destroy(0);
  EXPECT_EQ(table.peer_in_slot(slot, gen), nullptr);

  // The next birth reclaims the same slot (LIFO) under a fresh generation;
  // the stale reference still resolves to nothing.
  Payload& b = birth(table, 1);
  ASSERT_EQ(table.slot_of(1), slot);
  EXPECT_EQ(table.peer_in_slot(slot, gen), nullptr);
  EXPECT_EQ(table.peer_in_slot(slot, table.generation(slot)), &b);
  EXPECT_NE(table.generation(slot), gen);
}

TEST(SlotTable, DebugSeedFreeSlotsControlsBirthOrder) {
  Table table;
  table.debug_seed_free_slots({2, 0, 3, 1});
  EXPECT_EQ(table.slot_count(), 4u);
  EXPECT_EQ(table.slot_of(birth(table, 0).id), 2u);
  EXPECT_EQ(table.slot_of(birth(table, 1).id), 0u);
  EXPECT_EQ(table.slot_of(birth(table, 2).id), 3u);
  EXPECT_EQ(table.slot_of(birth(table, 3).id), 1u);
  // Seeded or not, the alive list is pure birth order.
  EXPECT_EQ(table.alive_ids(), (std::vector<Id>{0, 1, 2, 3}));
}

TEST(SlotTable, SampleAliveDrawsFloorFractionOverTheAliveList) {
  Table table;
  for (Id id = 0; id < 10; ++id) birth(table, id);
  table.destroy(3);  // back (9) fills the hole: 0 1 2 9 4 5 6 7 8

  // One sample_indices over the alive list, mapped through it.
  Rng reference(5);
  std::vector<Id> expected;
  for (std::size_t i : reference.sample_indices(9, 4)) {
    expected.push_back(table.alive_ids()[i]);
  }
  Rng rng(5);
  EXPECT_EQ(table.sample_alive(0.5, rng), expected);  // floor(0.5 * 9) = 4
  EXPECT_EQ(table.size(), 9u);  // sampling removes nobody

  // Everyone at 1, nobody (and no draw) at 0; out-of-range is rejected.
  std::vector<Id> all = table.sample_alive(1.0, rng);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<Id>{0, 1, 2, 4, 5, 6, 7, 8, 9}));
  Rng untouched(7);
  Rng drawn(7);
  EXPECT_TRUE(table.sample_alive(0.0, drawn).empty());
  EXPECT_EQ(drawn.uniform(), untouched.uniform());
  EXPECT_THROW(table.sample_alive(1.5, rng), CheckError);
}

// Model-based fuzz: correlated churn bursts (the fault engine's workload)
// against a reference model. The table must agree with the model on
// liveness, order, and positions after every operation, slots must be
// conserved (live + free == allocated, no duplicates), and stale
// (slot, generation) references taken before a death must never resolve.
TEST(SlotTableFuzz, ChurnBurstsAgainstReferenceModel) {
  Rng rng(20260806);
  Table table;
  // Reference: alive list maintained by push_back/swap-remove, a liveness
  // map, and every (slot, generation) reference retired by a death.
  std::vector<Id> model_alive;
  std::unordered_map<Id, std::size_t> model_pos;
  struct StaleRef {
    std::uint32_t slot;
    std::uint32_t generation;
  };
  std::vector<StaleRef> stale;
  Id next_id = 0;

  auto model_birth = [&](Id id) {
    model_pos.emplace(id, model_alive.size());
    model_alive.push_back(id);
  };
  auto model_death = [&](Id id) {
    std::size_t pos = model_pos.at(id);
    model_pos.erase(id);
    if (pos != model_alive.size() - 1) {
      model_alive[pos] = model_alive.back();
      model_pos[model_alive[pos]] = pos;
    }
    model_alive.pop_back();
  };

  for (int round = 0; round < 400; ++round) {
    // A churn burst: a batch of births or a batch of correlated deaths.
    if (model_alive.empty() || rng.bernoulli(0.55)) {
      std::size_t count = 1 + rng.index(12);
      for (std::size_t i = 0; i < count; ++i) {
        Id id = next_id++;
        birth(table, id);
        model_birth(id);
      }
    } else {
      std::size_t count = std::min<std::size_t>(1 + rng.index(12),
                                                model_alive.size());
      for (std::size_t i = 0; i < count; ++i) {
        Id id = model_alive[rng.index(model_alive.size())];
        std::uint32_t slot = table.slot_of(id);
        stale.push_back({slot, table.generation(slot)});
        table.destroy(id);
        model_death(id);
      }
    }

    // Table == model, entry for entry.
    ASSERT_EQ(table.size(), model_alive.size());
    ASSERT_EQ(table.alive_ids(), model_alive);
    for (Id id : model_alive) {
      ASSERT_TRUE(table.alive(id));
      ASSERT_EQ(table.alive_pos(id), model_pos.at(id));
      const Payload* payload = table.find(id);
      ASSERT_NE(payload, nullptr);
      ASSERT_EQ(payload->id, id);
    }
    for (Id id = 0; id < next_id; ++id) {
      ASSERT_EQ(table.alive(id), model_pos.count(id) == 1);
    }

    // Slot conservation: each live peer occupies a distinct slot and the
    // slab never grows past the churn high-water mark.
    std::unordered_set<std::uint32_t> occupied;
    for (Id id : model_alive) {
      ASSERT_TRUE(occupied.insert(table.slot_of(id)).second)
          << "two live peers share a slot";
    }
    ASSERT_GE(table.slot_count(), model_alive.size());
    ASSERT_LE(table.slot_count(), static_cast<std::size_t>(next_id));

    // No stale reference resolves — even after its slot was re-occupied.
    for (const StaleRef& ref : stale) {
      ASSERT_EQ(table.peer_in_slot(ref.slot, ref.generation), nullptr)
          << "stale (slot, generation) reference resurrected a dead peer";
    }
  }
  EXPECT_GT(stale.size(), 100u);          // deaths actually happened
  EXPECT_LT(table.slot_count(), next_id); // slots actually got reused
}

}  // namespace
}  // namespace guess
