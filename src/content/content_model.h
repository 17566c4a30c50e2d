// Content and query model.
//
// Concrete instantiation of the hybrid-P2P query model of Yang &
// Garcia-Molina [21] plus the files-per-peer distribution of Saroiu et
// al. [18] (see DESIGN.md, substitutions #2 and #3):
//
//  * A catalog of `catalog_size` distinct files; file popularity is Zipf
//    with exponent `file_alpha` (rank 0 = most popular).
//  * Each peer shares a file count drawn from a free-rider + heavy-tail
//    model, and samples that many distinct files by popularity, so popular
//    files are highly replicated and the tail is rare.
//  * Queries are drawn Zipf(`query_alpha`) over a *query universe* that
//    extends past the catalog: ranks beyond `catalog_size` are requests for
//    items nobody shares. Together with rare catalog files that happen to
//    have no replicas, this yields the unsatisfiable floor the paper reports
//    (~6% at NetworkSize = 1000).
//
// A peer's probability of answering a query thus depends on the number of
// files it shares and on query popularity — the two properties of [21] the
// paper relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/empirical.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "content/types.h"

namespace guess::content {

struct ContentParams {
  std::size_t catalog_size = 8000;    ///< distinct shared files
  std::size_t query_universe = 10000; ///< query ranks; >= catalog_size
  double file_alpha = 0.8;            ///< popularity skew of file replication
  double query_alpha = 0.8;           ///< popularity skew of queries
  double free_rider_fraction = 0.25;  ///< peers sharing zero files, per [18]
  /// Cap on one peer's library, as a fraction of the catalog (keeps distinct
  /// sampling cheap and mirrors reality: nobody shares the whole catalog).
  double max_library_fraction = 0.2;
};

/// A peer's shared library: sorted distinct file ids, supporting O(log n)
/// membership tests.
class Library {
 public:
  Library() = default;
  explicit Library(std::vector<FileId> sorted_files);

  bool contains(FileId file) const;
  std::size_t size() const { return files_.size(); }
  bool empty() const { return files_.empty(); }
  const std::vector<FileId>& files() const { return files_; }

 private:
  std::vector<FileId> files_;
};

/// Shared, immutable generator of libraries and queries.
class ContentModel {
 public:
  explicit ContentModel(ContentParams params);

  const ContentParams& params() const { return params_; }

  /// Number of files a newly born peer shares (0 for free riders).
  std::size_t sample_file_count(Rng& rng) const;

  /// Distinct files for a peer sharing `count` files, sampled by popularity:
  /// Zipf draws are rejected until `count` distinct files are held, tracked
  /// in a catalog-sized bitmap whose set bits are the sorted library. Two
  /// allocations per call (bitmap and library; none for count 0).
  Library sample_library(std::size_t count, Rng& rng) const;

  /// sample_library's draws without the Library: sets one bit per file in
  /// `chosen`, a catalog-sized bitmap that must be all zero on entry. For
  /// callers that index files themselves (the flood backend's holder lists).
  void draw_library(std::size_t count, Rng& rng,
                    std::vector<std::uint64_t>& chosen) const;

  /// Convenience: sample_file_count + sample_library.
  Library sample_peer_library(Rng& rng) const;

  /// Query target; kNonexistentFile for out-of-catalog ranks.
  FileId draw_query(Rng& rng) const;

  /// Fraction of query popularity mass outside the catalog (a lower bound on
  /// the unsatisfiable-query rate). Precomputed at construction; O(1).
  double nonexistent_query_mass() const;

  /// The files-per-peer distribution for sharing (non-free-rider) peers,
  /// exposed for tests/documentation.
  static const EmpiricalDistribution& sharing_distribution();

 private:
  ContentParams params_;
  ZipfDistribution file_popularity_;
  ZipfDistribution query_popularity_;
  std::size_t max_library_;
  double nonexistent_query_mass_ = 0.0;
};

}  // namespace guess::content
