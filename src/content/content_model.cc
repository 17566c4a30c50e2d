#include "content/content_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace guess::content {

Library::Library(std::vector<FileId> sorted_files)
    : files_(std::move(sorted_files)) {
  GUESS_CHECK_MSG(std::is_sorted(files_.begin(), files_.end()),
                  "library files must be sorted");
  GUESS_CHECK_MSG(
      std::adjacent_find(files_.begin(), files_.end()) == files_.end(),
      "library files must be distinct");
}

bool Library::contains(FileId file) const {
  return std::binary_search(files_.begin(), files_.end(), file);
}

namespace {
// Files shared by *sharing* peers (free riders excluded), modeled on the
// heavy-tailed distribution measured by Saroiu et al. [18]: most sharers
// offer tens of files, a small fraction offer thousands (≈7% of peers offer
// more files than all others combined).
const EmpiricalDistribution& sharing_table() {
  static const EmpiricalDistribution table({
      {0.00, 1.0},
      {0.20, 10.0},
      {0.40, 30.0},
      {0.60, 80.0},
      {0.75, 180.0},
      {0.87, 450.0},
      {0.95, 1200.0},
      {0.99, 3000.0},
      {1.00, 6000.0},
  });
  return table;
}
}  // namespace

const EmpiricalDistribution& ContentModel::sharing_distribution() {
  return sharing_table();
}

ContentModel::ContentModel(ContentParams params)
    : params_(params),
      file_popularity_(params.catalog_size, params.file_alpha),
      query_popularity_(params.query_universe, params.query_alpha),
      max_library_(static_cast<std::size_t>(
          params.max_library_fraction *
          static_cast<double>(params.catalog_size))) {
  GUESS_CHECK(params_.catalog_size > 0);
  GUESS_CHECK(params_.query_universe >= params_.catalog_size);
  GUESS_CHECK(params_.free_rider_fraction >= 0.0 &&
              params_.free_rider_fraction < 1.0);
  GUESS_CHECK(max_library_ >= 1);
  // Precomputed once: summing the O(query_universe) pmf tail on every call
  // made this the dominant cost for harnesses that report the floor per
  // configuration.
  double mass = 0.0;
  for (std::size_t r = params_.catalog_size; r < params_.query_universe; ++r) {
    mass += query_popularity_.pmf(r);
  }
  nonexistent_query_mass_ = mass;
}

std::size_t ContentModel::sample_file_count(Rng& rng) const {
  if (rng.bernoulli(params_.free_rider_fraction)) return 0;
  auto count = static_cast<std::size_t>(
      std::llround(sharing_table().sample(rng)));
  return std::clamp<std::size_t>(count, 1, max_library_);
}

void ContentModel::draw_library(std::size_t count, Rng& rng,
                                std::vector<std::uint64_t>& chosen) const {
  GUESS_CHECK_MSG(count <= max_library_,
                  "library size " << count << " exceeds cap " << max_library_);
  GUESS_CHECK(chosen.size() == (params_.catalog_size + 63) / 64);
  // Distinct Zipf sampling by rejection: draw until `count` files are
  // distinct. Collisions concentrate on the head ranks; with libraries
  // capped well below the catalog this stays cheap. Membership is one bit
  // per catalog file, and reading the set bits in order yields the sorted
  // library without a sort.
  std::size_t distinct = 0;
  while (distinct < count) {
    std::size_t file = file_popularity_.sample(rng);
    std::uint64_t& word = chosen[file / 64];
    const std::uint64_t bit = std::uint64_t{1} << (file % 64);
    if ((word & bit) == 0) {
      word |= bit;
      ++distinct;
    }
  }
}

Library ContentModel::sample_library(std::size_t count, Rng& rng) const {
  if (count == 0) return Library{};
  std::vector<std::uint64_t> chosen((params_.catalog_size + 63) / 64, 0);
  draw_library(count, rng, chosen);
  std::vector<FileId> files;
  files.reserve(count);
  for (std::size_t w = 0; w < chosen.size(); ++w) {
    for (std::uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1) {
      files.push_back(static_cast<FileId>(w * 64 + std::countr_zero(bits)));
    }
  }
  return Library(std::move(files));
}

Library ContentModel::sample_peer_library(Rng& rng) const {
  return sample_library(sample_file_count(rng), rng);
}

FileId ContentModel::draw_query(Rng& rng) const {
  std::size_t rank = query_popularity_.sample(rng);
  if (rank >= params_.catalog_size) return kNonexistentFile;
  return static_cast<FileId>(rank);
}

double ContentModel::nonexistent_query_mass() const {
  return nonexistent_query_mass_;
}

}  // namespace guess::content
