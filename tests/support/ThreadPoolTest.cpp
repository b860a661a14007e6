//===- tests/support/ThreadPoolTest.cpp - Worker pool tests --------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "ml/NeuralNetwork.h"
#include "ml/RandomForest.h"
#include "power/RepeatedMeasurement.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

using namespace slope;
using namespace slope::ml;

namespace {

/// Restores the global pool configuration on scope exit so tests that
/// pin the thread count do not leak it into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { ThreadPool::setGlobalThreadCount(0); }
};

Dataset makeSmoothData(size_t N, uint64_t Seed) {
  Rng R(Seed);
  Dataset D({"a", "b", "c"});
  for (size_t I = 0; I < N; ++I) {
    double A = R.uniform(0, 10), B = R.uniform(0, 10), C = R.uniform(0, 10);
    D.addRow({A, B, C}, 2 * A + 5 * B - 3 * C + R.gaussian(0, 0.1));
  }
  return D;
}

} // namespace

TEST(ThreadPool, CompletesEveryTaskExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Visits(1000);
  Pool.parallelFor(0, Visits.size(), 7,
                   [&](size_t I) { Visits[I].fetch_add(1); });
  for (size_t I = 0; I < Visits.size(); ++I)
    EXPECT_EQ(Visits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, CoversArbitraryRangesAndChunks) {
  ThreadPool Pool(3);
  for (size_t Begin : {size_t{0}, size_t{5}, size_t{17}})
    for (size_t Len : {size_t{0}, size_t{1}, size_t{2}, size_t{63}})
      for (size_t Chunk : {size_t{0}, size_t{1}, size_t{4}, size_t{100}}) {
        std::vector<std::atomic<int>> Visits(Begin + Len);
        Pool.parallelFor(Begin, Begin + Len, Chunk,
                         [&](size_t I) { Visits[I].fetch_add(1); });
        for (size_t I = 0; I < Begin; ++I)
          EXPECT_EQ(Visits[I].load(), 0);
        for (size_t I = Begin; I < Begin + Len; ++I)
          EXPECT_EQ(Visits[I].load(), 1)
              << "begin " << Begin << " len " << Len << " chunk " << Chunk;
      }
}

TEST(ThreadPool, InlinePoolRunsOnCaller) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numWorkers(), 0u);
  std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(0, 16, 1, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
  });
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(0, 256, 1,
                                [](size_t I) {
                                  if (I == 97)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a failed loop and keeps serving work.
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 32, 1, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 32);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Visits(64 * 16);
  Pool.parallelFor(0, 64, 1, [&](size_t Outer) {
    Pool.parallelFor(0, 16, 1, [&](size_t Inner) {
      Visits[Outer * 16 + Inner].fetch_add(1);
    });
  });
  for (size_t I = 0; I < Visits.size(); ++I)
    EXPECT_EQ(Visits[I].load(), 1);
}

TEST(ThreadPool, GlobalThreadCountOverride) {
  ThreadCountGuard Guard;
  ThreadPool::setGlobalThreadCount(3);
  EXPECT_EQ(ThreadPool::globalThreadCount(), 3u);
  EXPECT_EQ(ThreadPool::global().numThreads(), 3u);
  ThreadPool::setGlobalThreadCount(0);
  EXPECT_GE(ThreadPool::globalThreadCount(), 1u);
  // The automatic count never exceeds the cap the constructor enforces.
  EXPECT_LE(ThreadPool::globalThreadCount(), ThreadPool::MaxThreads);
}

TEST(ThreadPoolDeathTest, RefusesMoreThanMaxThreadsBeforeStartingWorkers) {
  // The constructor stops the program before it starts a single worker,
  // so an oversized request fails loudly instead of spawning threads, and
  // so does an oversized SLOPE_THREADS when the global pool is built.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(ThreadPool Pool(ThreadPool::MaxThreads + 1),
               "exceeds the maximum of 1024");
  EXPECT_DEATH(
      {
        setenv("SLOPE_THREADS", "99999999999", 1);
        ThreadPool::setGlobalThreadCount(0);
        ThreadPool::global();
      },
      "exceeds the maximum of 1024");
}

// The acceptance bar of the parallel engine: training is bit-identical
// at 1, 2, and 8 threads because every task draws from an Rng stream
// forked from the root seed and reductions run in index order.
TEST(ThreadPool, RandomForestTrainingIsThreadCountInvariant) {
  ThreadCountGuard Guard;
  Dataset D = makeSmoothData(200, 11);
  RandomForestOptions Options;
  Options.NumTrees = 40;
  Options.Seed = 7;

  std::vector<double> Predictions[3];
  double Oob[3] = {0, 0, 0};
  const unsigned Threads[3] = {1, 2, 8};
  for (int T = 0; T < 3; ++T) {
    ThreadPool::setGlobalThreadCount(Threads[T]);
    RandomForest M(Options);
    ASSERT_TRUE(bool(M.fit(D)));
    Oob[T] = M.oobMse();
    for (double X = 0; X < 10; X += 0.3)
      Predictions[T].push_back(M.predict({X, 10 - X, X / 2}));
  }
  for (int T = 1; T < 3; ++T) {
    EXPECT_EQ(Oob[0], Oob[T]) << Threads[T] << " threads";
    ASSERT_EQ(Predictions[0].size(), Predictions[T].size());
    for (size_t I = 0; I < Predictions[0].size(); ++I)
      EXPECT_EQ(Predictions[0][I], Predictions[T][I])
          << Threads[T] << " threads, probe " << I;
  }
}

TEST(ThreadPool, NeuralNetworkTrainingIsThreadCountInvariant) {
  ThreadCountGuard Guard;
  Dataset D = makeSmoothData(150, 12);
  NeuralNetworkOptions Options;
  Options.Epochs = 40;
  Options.Seed = 13;

  std::vector<double> Predictions[3];
  double Loss[3] = {0, 0, 0};
  const unsigned Threads[3] = {1, 2, 8};
  for (int T = 0; T < 3; ++T) {
    ThreadPool::setGlobalThreadCount(Threads[T]);
    NeuralNetwork M(Options);
    ASSERT_TRUE(bool(M.fit(D)));
    Loss[T] = M.finalTrainingLoss();
    for (double X = 0; X < 10; X += 0.4)
      Predictions[T].push_back(M.predict({X, 10 - X, X / 2}));
  }
  for (int T = 1; T < 3; ++T) {
    EXPECT_EQ(Loss[0], Loss[T]) << Threads[T] << " threads";
    ASSERT_EQ(Predictions[0].size(), Predictions[T].size());
    for (size_t I = 0; I < Predictions[0].size(); ++I)
      EXPECT_EQ(Predictions[0][I], Predictions[T][I])
          << Threads[T] << " threads, probe " << I;
  }
}

TEST(ThreadPool, MeasureAllRepeatedlyMatchesSerial) {
  ThreadCountGuard Guard;
  ThreadPool::setGlobalThreadCount(4);
  // Independent observables with forked streams: the parallel batch must
  // reproduce the serial loop sample for sample.
  Rng Root(42);
  auto MakeObservable = [&](uint64_t Tag) {
    auto R = std::make_shared<Rng>(Root.fork(Tag));
    return std::function<double()>([R] { return R->gaussian(100.0, 5.0); });
  };
  std::vector<std::function<double()>> Parallel, Serial;
  for (uint64_t Tag = 0; Tag < 12; ++Tag) {
    Parallel.push_back(MakeObservable(Tag));
    Serial.push_back(MakeObservable(Tag));
  }
  std::vector<power::MeasurementResult> Batch =
      power::measureAllRepeatedly(Parallel);
  ASSERT_EQ(Batch.size(), Serial.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    power::MeasurementResult One = power::measureRepeatedly(Serial[I]);
    EXPECT_EQ(Batch[I].Mean, One.Mean);
    EXPECT_EQ(Batch[I].Runs, One.Runs);
    EXPECT_EQ(Batch[I].Samples, One.Samples);
  }
}
