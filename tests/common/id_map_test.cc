// FlatIdMap: the link cache's fixed-capacity id -> position index. Unit
// tests for the checked API plus a randomized model check against
// std::unordered_map hammering the backward-shift deletion (the part of
// open addressing that is easy to get subtly wrong).
#include "common/id_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace guess {
namespace {

TEST(FlatIdMap, InsertFindErase) {
  FlatIdMap map(8);
  EXPECT_EQ(map.find(3), FlatIdMap::kNotFound);
  map.insert(3, 10);
  EXPECT_EQ(map.find(3), 10u);
  EXPECT_TRUE(map.contains(3));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.erase(3));
  EXPECT_FALSE(map.contains(3));
  EXPECT_FALSE(map.erase(3));
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatIdMap, AssignOverwritesExisting) {
  FlatIdMap map(4);
  map.insert(7, 1);
  map.assign(7, 2);
  EXPECT_EQ(map.find(7), 2u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatIdMap, CheckedMisuseThrows) {
  FlatIdMap map(2);
  map.insert(1, 0);
  EXPECT_THROW(map.insert(1, 1), CheckError);   // duplicate
  EXPECT_THROW(map.assign(99, 0), CheckError);  // missing key
  map.insert(2, 1);
  EXPECT_THROW(map.insert(3, 2), CheckError);   // over capacity
}

// A capacity whose table size cannot be represented throws instead of
// doubling a size_t until it wraps to 0 and spinning forever.
TEST(FlatIdMap, UnsizableCapacityThrows) {
  EXPECT_THROW(FlatIdMap(std::numeric_limits<std::size_t>::max()),
               CheckError);
  FlatIdMap map(4);
  EXPECT_THROW(map.reset(std::numeric_limits<std::size_t>::max() / 2),
               CheckError);
}

TEST(FlatIdMap, UnboundedModeGrows) {
  FlatIdMap map(0);  // capacity 0 = unbounded
  for (std::uint64_t k = 0; k < 500; ++k) map.insert(k, static_cast<std::uint32_t>(k));
  for (std::uint64_t k = 0; k < 500; ++k) ASSERT_EQ(map.find(k), k);
  EXPECT_EQ(map.size(), 500u);
}

TEST(FlatIdMapFuzz, MatchesUnorderedMapUnderChurn) {
  Rng rng(2026);
  constexpr std::size_t kCapacity = 40;
  FlatIdMap map(kCapacity);
  std::unordered_map<std::uint64_t, std::uint32_t> model;
  for (int step = 0; step < 30000; ++step) {
    // Narrow key range: long probe chains and constant erase/reinsert of
    // colliding keys — the backward-shift stress case.
    std::uint64_t key = rng.index(96);
    double roll = rng.uniform();
    if (roll < 0.45) {
      if (!model.contains(key) && model.size() < kCapacity) {
        auto value = static_cast<std::uint32_t>(step);
        map.insert(key, value);
        model.emplace(key, value);
      }
    } else if (roll < 0.70) {
      ASSERT_EQ(map.erase(key), model.erase(key) > 0);
    } else if (roll < 0.85) {
      if (model.contains(key)) {
        auto value = static_cast<std::uint32_t>(step);
        map.assign(key, value);
        model[key] = value;
      }
    } else {
      auto it = model.find(key);
      ASSERT_EQ(map.find(key),
                it == model.end() ? FlatIdMap::kNotFound : it->second);
    }
    if (step % 128 == 0) {
      ASSERT_EQ(map.size(), model.size());
      for (std::uint64_t k = 0; k < 96; ++k) {
        auto it = model.find(k);
        ASSERT_EQ(map.find(k),
                  it == model.end() ? FlatIdMap::kNotFound : it->second)
            << "key " << k << " at step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace guess
