//===- support/ThreadPool.cpp - Fixed-size worker pool -------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

using namespace slope;

namespace {

/// Set while a thread is executing inside any pool's worker loop; nested
/// parallelFor calls detect this and run inline instead of re-entering
/// the (possibly saturated) queue.
thread_local bool InsideWorker = false;

/// Shared bookkeeping for one parallelFor invocation.
struct LoopState {
  size_t Begin = 0;
  size_t End = 0;
  size_t Chunk = 1;
  size_t NumChunks = 0;
  const std::function<void(size_t)> *Fn = nullptr;

  std::atomic<size_t> NextChunk{0};
  std::atomic<size_t> DoneChunks{0};
  std::atomic<bool> Cancelled{false};

  std::mutex Mutex;
  std::condition_variable Done;
  std::exception_ptr FirstError;

  /// Claims and runs chunks until the range (or the loop) is exhausted.
  void runChunks() {
    for (;;) {
      size_t C = NextChunk.fetch_add(1, std::memory_order_relaxed);
      if (C >= NumChunks)
        return;
      if (!Cancelled.load(std::memory_order_relaxed)) {
        size_t First = Begin + C * Chunk;
        size_t Last = std::min(First + Chunk, End);
        try {
          for (size_t I = First; I < Last; ++I)
            (*Fn)(I);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(Mutex);
          if (!FirstError)
            FirstError = std::current_exception();
          Cancelled.store(true, std::memory_order_relaxed);
        }
      }
      if (DoneChunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          NumChunks) {
        std::lock_guard<std::mutex> Lock(Mutex);
        Done.notify_all();
      }
    }
  }
};

} // namespace

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads > MaxThreads) {
    std::fprintf(stderr,
                 "fatal: a thread pool of %u threads exceeds the maximum of "
                 "%u\n",
                 NumThreads, MaxThreads);
    std::abort();
  }
  unsigned NumWorkers = NumThreads > 1 ? NumThreads - 1 : 0;
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  InsideWorker = true;
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

bool ThreadPool::onWorkerThread() { return InsideWorker; }

void ThreadPool::parallelFor(size_t Begin, size_t End, size_t Chunk,
                             const std::function<void(size_t)> &Fn) {
  if (End <= Begin)
    return;
  if (Chunk == 0)
    Chunk = 1;
  size_t N = End - Begin;

  // Inline paths: no workers, a range that fits one chunk, or a nested
  // call from inside a worker (the outer loop already owns the pool).
  if (numWorkers() == 0 || N <= Chunk || onWorkerThread()) {
    for (size_t I = Begin; I < End; ++I)
      Fn(I);
    return;
  }

  auto State = std::make_shared<LoopState>();
  State->Begin = Begin;
  State->End = End;
  State->Chunk = Chunk;
  State->NumChunks = (N + Chunk - 1) / Chunk;
  State->Fn = &Fn;

  // One runner task per worker that could usefully claim a chunk; the
  // caller participates too, so State->NumChunks - 1 helpers suffice.
  size_t NumHelpers =
      std::min<size_t>(numWorkers(), State->NumChunks - 1);
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    for (size_t I = 0; I < NumHelpers; ++I)
      Queue.emplace_back([State] { State->runChunks(); });
  }
  QueueCv.notify_all();

  State->runChunks();
  {
    std::unique_lock<std::mutex> Lock(State->Mutex);
    State->Done.wait(Lock, [&] {
      return State->DoneChunks.load(std::memory_order_acquire) ==
             State->NumChunks;
    });
  }
  if (State->FirstError)
    std::rethrow_exception(State->FirstError);
}

namespace {

std::mutex GlobalPoolMutex;
std::unique_ptr<ThreadPool> GlobalPool;
unsigned GlobalThreadOverride = 0;

unsigned autoThreadCount() {
  if (const char *Env = std::getenv("SLOPE_THREADS")) {
    char *EndPtr = nullptr;
    long Value = std::strtol(Env, &EndPtr, 10);
    // Values past MaxThreads pass through (saturated to the unsigned
    // range) so the pool constructor refuses them instead of wrapping.
    if (EndPtr != Env && *EndPtr == '\0' && Value > 0)
      return static_cast<unsigned>(
          std::min<long>(Value, std::numeric_limits<unsigned>::max()));
  }
  // The hardware count is capped rather than refused: a host with more
  // logical CPUs than MaxThreads still runs at the default.
  unsigned HW = std::thread::hardware_concurrency();
  return std::min(HW > 0 ? HW : 1u, ThreadPool::MaxThreads);
}

} // namespace

unsigned ThreadPool::globalThreadCount() {
  std::lock_guard<std::mutex> Lock(GlobalPoolMutex);
  return GlobalThreadOverride > 0 ? GlobalThreadOverride : autoThreadCount();
}

void ThreadPool::setGlobalThreadCount(unsigned NumThreads) {
  std::lock_guard<std::mutex> Lock(GlobalPoolMutex);
  GlobalThreadOverride = NumThreads;
  // Drop a stale pool so the next global() call rebuilds at the new size.
  if (GlobalPool && GlobalPool->numThreads() !=
                        (NumThreads > 0 ? NumThreads : autoThreadCount()))
    GlobalPool.reset();
}

ThreadPool &ThreadPool::global() {
  std::lock_guard<std::mutex> Lock(GlobalPoolMutex);
  unsigned Want =
      GlobalThreadOverride > 0 ? GlobalThreadOverride : autoThreadCount();
  if (!GlobalPool || GlobalPool->numThreads() != Want)
    GlobalPool = std::make_unique<ThreadPool>(Want);
  return *GlobalPool;
}
