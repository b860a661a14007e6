//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with a chunked parallel-for helper, used to
/// parallelize the experiment engine (per-tree forest fitting, per-variant
/// model sweeps, per-event additivity trials) and the serving engine's
/// epoch fold (one task per inference batch). Determinism is a design
/// requirement: parallelFor only distributes *independent* index ranges,
/// and every call site derives per-task randomness via Rng::fork(Index)
/// and reduces results in index order, so parallel output is bit-identical
/// to serial output at any thread count.
///
/// The pool size is process-global by default: `ThreadPool::global()`
/// obeys `setGlobalThreadCount(N)` (the `--threads` flag of the drivers)
/// or, failing that, the `SLOPE_THREADS` environment variable, or, failing
/// that, the hardware concurrency capped at `ThreadPool::MaxThreads`.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_SUPPORT_THREADPOOL_H
#define SLOPE_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slope {

/// Fixed-size worker pool. Tasks are arbitrary callables; parallelFor is
/// the structured entry point the experiment engine uses.
class ThreadPool {
public:
  /// The most threads a pool may have. Command lines refuse a larger
  /// --threads, and the constructor stops the program before starting any
  /// worker if asked for more (say, by SLOPE_THREADS). The automatic count
  /// is capped at it, so a host with more hardware threads runs with
  /// MaxThreads.
  static constexpr unsigned MaxThreads = 1024;

  /// Creates a pool with \p NumThreads workers. A count of 0 or 1 creates
  /// no worker threads at all; every task then runs inline on the caller.
  /// \p NumThreads must not exceed MaxThreads.
  explicit ThreadPool(unsigned NumThreads);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  /// \returns the number of worker threads (0 for an inline pool).
  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// \returns the parallel width: workers plus the participating caller.
  unsigned numThreads() const { return numWorkers() + 1; }

  /// Runs Fn(I) for every I in [Begin, End), distributing contiguous
  /// chunks of \p Chunk indices over the workers; the calling thread
  /// participates. Blocks until every index completed. The first exception
  /// thrown by any task is rethrown on the caller (remaining chunks are
  /// abandoned). Nested calls from inside a worker run inline, so call
  /// sites may parallelize freely at every level without deadlock.
  ///
  /// Fn must be safe to invoke concurrently for distinct indices; results
  /// must be written to disjoint, pre-sized slots.
  void parallelFor(size_t Begin, size_t End, size_t Chunk,
                   const std::function<void(size_t)> &Fn);

  /// \returns the process-global pool, (re)sized per the current
  /// configuration. Do not reconfigure while parallel work is in flight.
  static ThreadPool &global();

  /// Overrides the global pool size; 0 restores automatic sizing
  /// (SLOPE_THREADS, then hardware concurrency up to MaxThreads). Takes
  /// effect on the next global() call.
  static void setGlobalThreadCount(unsigned NumThreads);

  /// \returns the thread count global() would use right now.
  static unsigned globalThreadCount();

private:
  void workerLoop();

  /// \returns true when called from one of this pool's workers.
  static bool onWorkerThread();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex QueueMutex;
  std::condition_variable QueueCv;
  bool Stopping = false;
};

/// Chunked parallel loop over [Begin, End) on the global pool. See
/// ThreadPool::parallelFor for the contract.
inline void parallelFor(size_t Begin, size_t End, size_t Chunk,
                        const std::function<void(size_t)> &Fn) {
  ThreadPool::global().parallelFor(Begin, End, Chunk, Fn);
}

} // namespace slope

#endif // SLOPE_SUPPORT_THREADPOOL_H
