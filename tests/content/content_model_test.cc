#include "content/content_model.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "../testsupport/zipf_reference.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <vector>

namespace guess::content {
namespace {

ContentParams small_params() {
  ContentParams params;
  params.catalog_size = 500;
  params.query_universe = 600;
  return params;
}

TEST(Library, SortedDistinctAndSearchable) {
  Library lib({1, 5, 9});
  EXPECT_EQ(lib.size(), 3u);
  EXPECT_TRUE(lib.contains(1));
  EXPECT_TRUE(lib.contains(5));
  EXPECT_TRUE(lib.contains(9));
  EXPECT_FALSE(lib.contains(2));
  EXPECT_FALSE(lib.contains(kNonexistentFile));
}

TEST(Library, RejectsUnsortedOrDuplicateFiles) {
  EXPECT_THROW(Library({3, 1}), CheckError);
  EXPECT_THROW(Library({1, 1, 2}), CheckError);
}

TEST(Library, EmptyLibraryContainsNothing) {
  Library lib;
  EXPECT_TRUE(lib.empty());
  EXPECT_FALSE(lib.contains(0));
}

TEST(ContentModel, FreeRiderFractionRespected) {
  ContentModel model(small_params());
  Rng rng(3);
  int free_riders = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (model.sample_file_count(rng) == 0) ++free_riders;
  }
  EXPECT_NEAR(static_cast<double>(free_riders) / trials, 0.25, 0.03);
}

TEST(ContentModel, LibraryHasRequestedSizeAndValidFiles) {
  ContentModel model(small_params());
  Rng rng(5);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{50}}) {
    Library lib = model.sample_library(count, rng);
    EXPECT_EQ(lib.size(), count);
    for (FileId f : lib.files()) EXPECT_LT(f, 500u);
  }
}

TEST(ContentModel, LibrarySizeCapEnforced) {
  ContentModel model(small_params());
  Rng rng(7);
  // Cap is 20% of 500 = 100.
  EXPECT_THROW(model.sample_library(101, rng), CheckError);
  Library lib = model.sample_library(100, rng);
  EXPECT_EQ(lib.size(), 100u);
}

// The library sampler before the catalog bitmap: hash-set membership, then
// a sort, drawing files by the reference binary search.
std::vector<FileId> reference_library(const std::vector<double>& cdf,
                                      std::size_t count, Rng& rng) {
  std::unordered_set<FileId> chosen;
  chosen.reserve(count * 2);
  while (chosen.size() < count) {
    chosen.insert(static_cast<FileId>(
        testsupport::zipf_reference_rank(cdf, rng.uniform())));
  }
  std::vector<FileId> files(chosen.begin(), chosen.end());
  std::sort(files.begin(), files.end());
  return files;
}

// Same files from the same draws, and the same number of draws: catalogs
// that are not a multiple of the bitmap's 64-bit words, uniform to steep
// popularity, and library sizes up to the cap.
TEST(ContentModel, SampleLibraryMatchesHashSetOracle) {
  for (std::size_t catalog : {100, 500, 8000}) {
    for (double alpha : {0.0, 0.8, 1.5}) {
      ContentParams params;
      params.catalog_size = catalog;
      params.query_universe = catalog;
      params.file_alpha = alpha;
      ContentModel model(params);
      const auto cap = static_cast<std::size_t>(
          params.max_library_fraction * static_cast<double>(catalog));
      const std::vector<double> cdf =
          testsupport::zipf_reference_cdf(catalog, alpha);
      Rng a(71);
      Rng b(71);
      for (int round = 0; round < 3; ++round) {
        for (std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{30}, std::size_t{300}, cap}) {
          if (count > cap) continue;
          Library library = model.sample_library(count, a);
          ASSERT_EQ(library.files(), reference_library(cdf, count, b))
              << "catalog=" << catalog << " alpha=" << alpha
              << " count=" << count;
        }
      }
      EXPECT_EQ(a.engine()(), b.engine()())
          << "catalog=" << catalog << " alpha=" << alpha;
    }
  }
}

TEST(ContentModel, PopularFilesMoreReplicated) {
  ContentModel model(small_params());
  Rng rng(9);
  int head = 0, tail = 0;
  for (int peer = 0; peer < 2000; ++peer) {
    Library lib = model.sample_peer_library(rng);
    if (lib.contains(0)) ++head;          // most popular file
    if (lib.contains(499)) ++tail;        // least popular file
  }
  EXPECT_GT(head, tail * 3);
}

TEST(ContentModel, QueriesIncludeNonexistentTail) {
  ContentModel model(small_params());
  Rng rng(11);
  int nonexistent = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    FileId f = model.draw_query(rng);
    if (f == kNonexistentFile) {
      ++nonexistent;
    } else {
      EXPECT_LT(f, 500u);
    }
  }
  double observed = static_cast<double>(nonexistent) / trials;
  EXPECT_NEAR(observed, model.nonexistent_query_mass(), 0.01);
  EXPECT_GT(observed, 0.0);
}

TEST(ContentModel, DefaultNonexistentMassNearPaperFloor) {
  // The paper reports ~6% of queries unsatisfiable at NetworkSize=1000;
  // the out-of-catalog mass supplies a few points of that floor (rare
  // zero-replica files supply the rest).
  ContentModel model(ContentParams{});
  EXPECT_GT(model.nonexistent_query_mass(), 0.01);
  EXPECT_LT(model.nonexistent_query_mass(), 0.08);
}

TEST(ContentModel, QueryPopularitySkewedToHead) {
  ContentModel model(small_params());
  Rng rng(13);
  std::map<FileId, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[model.draw_query(rng)];
  EXPECT_GT(counts[0], counts.count(400) ? counts[400] * 2 : 2);
}

TEST(ContentModel, InvalidParamsRejected) {
  ContentParams params;
  params.catalog_size = 0;
  EXPECT_THROW(ContentModel{params}, CheckError);
  params = ContentParams{};
  params.query_universe = params.catalog_size - 1;
  EXPECT_THROW(ContentModel{params}, CheckError);
  params = ContentParams{};
  params.free_rider_fraction = 1.0;
  EXPECT_THROW(ContentModel{params}, CheckError);
}

TEST(ContentModel, SharingDistributionIsHeavyTailed) {
  const auto& dist = ContentModel::sharing_distribution();
  // Median sharer offers tens of files; the tail offers thousands.
  EXPECT_LT(dist.quantile(0.5), 100.0);
  EXPECT_GT(dist.quantile(0.99), 1000.0);
}

}  // namespace
}  // namespace guess::content
