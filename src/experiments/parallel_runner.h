// Worker pool for embarrassingly parallel simulation sweeps.
//
// Every figure in the paper averages over repeated runs with different seeds;
// the replications are independent, so they can execute concurrently without
// touching simulation semantics. ParallelRunner is a fixed-size pool of
// std::threads fed from a mutex/condvar work queue. Jobs are indexed 0..n-1;
// results always come back in index order regardless of thread count or
// completion order, so a parallel sweep is bitwise-identical to the serial
// loop it replaces (pinned by tests/experiments/parallel_runner_test.cc).
//
// What may run on a worker thread: anything whose state is reachable only
// from the job's own index (a search::run_search call owns its Simulator,
// backend and Rng, so a whole replication qualifies — see DESIGN.md
// "Threading model"). Shared immutable tables (the empirical
// lifetime/sharing quantile tables) are safe to read concurrently and are
// warmed eagerly by search::run_search_seeds before workers start, so
// first-touch initialization never serializes the pool.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"

namespace guess::experiments {

/// Number of worker threads to use for a sweep. Resolution order:
///   1. `requested` when > 0 (e.g. SimulationOptions::threads, --threads=N);
///   2. the GUESS_THREADS environment variable when set and positive
///      (throws CheckError if set but not a positive integer);
///   3. std::thread::hardware_concurrency(), floored at 1.
int resolve_thread_count(int requested);

/// Fixed-size worker pool executing indexed jobs.
///
/// The pool is created once and reused across run() calls; workers block on a
/// condition variable between batches. run() is not reentrant (one batch at a
/// time) but the pool may be used from any single thread.
class ParallelRunner {
 public:
  /// Called after each job completes, with (jobs completed so far, total).
  /// Invoked from worker threads, serialized under the pool's mutex, in
  /// completion (not index) order; keep it cheap and do not call back into
  /// the runner from it.
  using ProgressFn = std::function<void(int completed, int total)>;

  /// @param threads  pool size; 0 resolves via resolve_thread_count().
  explicit ParallelRunner(int threads = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Execute job(0) .. job(total-1) across the pool and block until all have
  /// finished. Every job runs exactly once even if another job throws; after
  /// the batch, the exception of the lowest-indexed failed job is rethrown
  /// (deterministic regardless of completion order).
  void run(int total, const std::function<void(int)>& job,
           const ProgressFn& progress = {});

  /// run(), collecting each job's return value into a vector in index order.
  /// T must be default-constructible and movable.
  template <typename T>
  std::vector<T> map(int total, const std::function<T(int)>& job,
                     const ProgressFn& progress = {}) {
    GUESS_CHECK(total >= 0);
    std::vector<T> out(static_cast<std::size_t>(total));
    run(
        total, [&](int i) { out[static_cast<std::size_t>(i)] = job(i); },
        progress);
    return out;
  }

 private:
  /// One batch of jobs; lives on run()'s stack, touched only under mu_
  /// except for the jobs themselves.
  struct Batch {
    int total = 0;
    int next = 0;  ///< next index to hand to a worker
    int done = 0;
    const std::function<void(int)>* job = nullptr;
    const ProgressFn* progress = nullptr;
    /// (index, exception) for every job that threw.
    std::vector<std::pair<int, std::exception_ptr>> errors;
  };

  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for a batch/stop
  std::condition_variable done_cv_;  ///< run() waits here for completion
  Batch* batch_ = nullptr;           ///< non-null while a batch is active
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace guess::experiments
