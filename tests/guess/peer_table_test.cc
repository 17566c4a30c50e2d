// PeerTable (SlotTable over Peer, DESIGN.md §10) under the GUESS backend's
// sybil flash crowds. The payload-independent slot discipline is tested in
// tests/common/slot_table_test.cc.
#include "guess/peer_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "content/content_model.h"

namespace guess {
namespace {

Peer& birth(PeerTable& table, PeerId id) {
  return table.create(id, /*birth=*/0.0, content::Library{},
                      /*cache_capacity=*/8, /*malicious=*/false,
                      /*selfish=*/false);
}

// Sybil flash crowds (DESIGN.md §11) stress exactly this machinery: a small
// cohort of short-lived identities dies and respawns every few seconds, so
// slots recycle at the sybil lifetime rate while honest peers churn slowly.
// Expired sybil ids must stay tombstoned (find == nullptr, re-create
// rejected) and references taken against a sybil incarnation must never
// resolve to the slot's next tenant — sybil or honest.
TEST(PeerTable, SybilRecyclingTombstonesExpiredIdentities) {
  PeerTable table;
  PeerId next_id = 0;
  for (int i = 0; i < 10; ++i) birth(table, next_id++);  // honest base

  std::vector<std::pair<std::uint32_t, std::uint32_t>> sybil_refs;
  std::vector<PeerId> expired;
  // Five respawn waves of a 4-sybil cohort.
  for (int wave = 0; wave < 5; ++wave) {
    std::vector<PeerId> cohort;
    for (int i = 0; i < 4; ++i) {
      PeerId id = next_id++;
      birth(table, id);
      cohort.push_back(id);
      std::uint32_t slot = table.slot_of(id);
      sybil_refs.emplace_back(slot, table.generation(slot));
    }
    for (PeerId id : cohort) {
      table.destroy(id);
      expired.push_back(id);
    }
  }

  // Every expired identity is tombstoned: not alive, unfindable, and its id
  // can never be re-registered.
  for (PeerId id : expired) {
    EXPECT_FALSE(table.alive(id));
    EXPECT_EQ(table.find(id), nullptr);
    EXPECT_THROW(birth(table, id), CheckError);
  }
  // No reference taken against a sybil incarnation resolves, even though
  // the cohort slots were recycled by later waves (LIFO keeps them hot).
  for (auto [slot, gen] : sybil_refs) {
    EXPECT_EQ(table.peer_in_slot(slot, gen), nullptr);
  }
  // The flash crowd never grew the slab past honest base + one cohort.
  EXPECT_EQ(table.size(), 10u);
  EXPECT_LE(table.slot_count(), 14u);

  // An honest peer claiming a recycled sybil slot is a fresh incarnation.
  Peer& late = birth(table, next_id++);
  std::uint32_t slot = table.slot_of(late.id());
  EXPECT_EQ(table.peer_in_slot(slot, table.generation(slot)), &late);
  for (auto [ref_slot, gen] : sybil_refs) {
    if (ref_slot == slot) {
      EXPECT_EQ(table.peer_in_slot(ref_slot, gen), nullptr);
    }
  }
}

}  // namespace
}  // namespace guess
