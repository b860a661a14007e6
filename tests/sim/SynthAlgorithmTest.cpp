//===- tests/sim/SynthAlgorithmTest.cpp - Batched synthesis properties ----------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property suite for the counter-synthesis engine: Machine::readCounters
// and readCountersWindow must reproduce the per-event oracle
// (tests/reference) bit for bit across platforms, phase counts, windows
// and event subsets, and the batch run APIs must reproduce a serial
// sequence of run() calls at any thread count. All comparisons are exact
// (EXPECT_EQ on doubles), not tolerance based — the engine's contract is
// bit-identity, not approximation.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "reference/ReferenceSynth.h"

#include "pmc/PlatformEvents.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace slope;
using namespace slope::pmc;
using namespace slope::sim;

namespace {

/// Restores the global pool configuration on scope exit.
struct ThreadCountGuard {
  ~ThreadCountGuard() { ThreadPool::setGlobalThreadCount(0); }
};

/// A compound with \p NumPhases alternating kernels.
CompoundApplication longCompound(size_t NumPhases) {
  CompoundApplication App;
  for (size_t I = 0; I < NumPhases; ++I)
    App.Phases.push_back(I % 2 == 0
                             ? Application(KernelKind::MklDgemm, 4000 + I)
                             : Application(KernelKind::Stream, 4e8));
  return App;
}

void expectBatchedMatchesNaive(Platform P, const CompoundApplication &App,
                               uint64_t Seed) {
  Machine M(std::move(P), Seed);
  Execution E = M.run(App);
  std::vector<EventId> Ids = M.registry().allEvents();

  std::vector<double> Batched = M.readCounters(Ids, E);
  ASSERT_EQ(Batched.size(), Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I) {
    const double Want = reference::readCounter(M, Ids[I], E);
    EXPECT_EQ(Batched[I], Want)
        << "batched mismatch for " << M.registry().event(Ids[I]).Name;
    EXPECT_EQ(M.readCounter(Ids[I], E), Want)
        << "single-event mismatch for " << M.registry().event(Ids[I]).Name;
  }
}

} // namespace

TEST(SynthAlgorithm, BatchedMatchesNaiveOnHaswellBaseApp) {
  expectBatchedMatchesNaive(
      Platform::intelHaswellServer(),
      CompoundApplication(Application(KernelKind::MklDgemm, 8192)), 101);
}

TEST(SynthAlgorithm, BatchedMatchesNaiveOnSkylakeBaseApp) {
  expectBatchedMatchesNaive(
      Platform::intelSkylakeServer(),
      CompoundApplication(Application(KernelKind::MklFft, 25600)), 102);
}

TEST(SynthAlgorithm, BatchedMatchesNaiveOnTwoPhaseCompound) {
  expectBatchedMatchesNaive(
      Platform::intelHaswellServer(),
      CompoundApplication(Application(KernelKind::MklDgemm, 6000),
                          Application(KernelKind::QuickSort, 1u << 24)),
      103);
}

TEST(SynthAlgorithm, BatchedMatchesNaiveOnFivePhaseCompound) {
  expectBatchedMatchesNaive(Platform::intelSkylakeServer(), longCompound(5),
                            104);
}

TEST(SynthAlgorithm, BatchedMatchesNaivePastPhaseHoistCapacity) {
  // A long compound: 40 phases, 39 boundaries inflating the context
  // share.
  expectBatchedMatchesNaive(Platform::intelHaswellServer(), longCompound(40),
                            105);
}

TEST(SynthAlgorithm, WindowedMatchesReferenceInEveryWindow) {
  // readCountersWindow against the per-window oracle for every event of
  // both registries. One window spans the whole run, seven windows
  // straddle phase boundaries, and 64 cut each phase into several
  // windows (some still straddling a boundary).
  for (const Platform &P :
       {Platform::intelHaswellServer(), Platform::intelSkylakeServer()}) {
    Machine M(P, 112);
    const std::vector<EventId> Ids = M.registry().allEvents();
    std::vector<double> Got(Ids.size());
    for (size_t Windows : {1u, 7u, 64u}) {
      SCOPED_TRACE(P.Name + ", " + std::to_string(Windows) + " windows");
      ExecutionTrace Trace = M.runTrace(longCompound(5), 0x71CE, Windows);
      size_t Straddling = 0;
      for (size_t W = 0; W < Windows; ++W) {
        const TraceWindow &Win = Trace.Windows[W];
        Straddling += Win.FirstPhase != Win.LastPhase;
        M.readCountersWindow(Ids.data(), Ids.size(), Trace, W, Got.data());
        for (size_t I = 0; I < Ids.size(); ++I)
          ASSERT_EQ(Got[I], reference::readCounterWindow(M, Ids[I], Trace, W))
              << "window " << W << ", " << M.registry().event(Ids[I]).Name;
      }
      EXPECT_GT(Straddling, 0u);
    }
  }
}

TEST(SynthAlgorithm, ArbitrarySubsetsAndOrdersMatch) {
  Machine M(Platform::intelSkylakeServer(), 106);
  Execution E = M.run(CompoundApplication(
      Application(KernelKind::MklDgemm, 9000),
      Application(KernelKind::MonteCarlo, 1u << 22)));

  std::vector<EventId> All = M.registry().allEvents();
  // Every 7th event, in reverse order — batch output must follow the
  // request order, not the registry order.
  std::vector<EventId> Subset;
  for (size_t I = 0; I < All.size(); I += 7)
    Subset.push_back(All[I]);
  std::reverse(Subset.begin(), Subset.end());

  std::vector<double> Batch = M.readCounters(Subset, E);
  for (size_t I = 0; I < Subset.size(); ++I)
    EXPECT_EQ(Batch[I], reference::readCounter(M, Subset[I], E));
}

TEST(SynthAlgorithm, SingleEventAndRepeatedReadsAreStable) {
  Machine M(Platform::intelHaswellServer(), 107);
  Execution E = M.run(Application(KernelKind::Stream, 6e8));
  EventId Id = *M.registry().lookup("UOPS_EXECUTED_CORE");
  double A = 0, B = 0;
  M.readCounters(&Id, 1, E, &A);
  M.readCounters(&Id, 1, E, &B);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A, reference::readCounter(M, Id, E));
}

TEST(SynthAlgorithm, RunWithSeedReproducesRun) {
  Machine A(Platform::intelHaswellServer(), 108);
  Machine B(Platform::intelHaswellServer(), 108);
  CompoundApplication App(Application(KernelKind::MklDgemm, 7000),
                          Application(KernelKind::Stencil2D, 3000));
  std::vector<uint64_t> Seeds = B.forkRunSeeds(3);
  for (uint64_t Seed : Seeds) {
    Execution Ea = A.run(App);
    Execution Eb = B.runWithSeed(App, Seed);
    EXPECT_EQ(Ea.RunSeed, Eb.RunSeed);
    EXPECT_EQ(Ea.TrueDynamicEnergyJ, Eb.TrueDynamicEnergyJ);
    ASSERT_EQ(Ea.Phases.size(), Eb.Phases.size());
    for (size_t P = 0; P < Ea.Phases.size(); ++P) {
      EXPECT_EQ(Ea.Phases[P].TimeSec, Eb.Phases[P].TimeSec);
      EXPECT_EQ(Ea.Phases[P].ContextIntensity,
                Eb.Phases[P].ContextIntensity);
      for (size_t K = 0; K < NumActivityKinds; ++K)
        EXPECT_EQ(Ea.Phases[P].Activities.at(K),
                  Eb.Phases[P].Activities.at(K));
    }
  }
}

TEST(SynthAlgorithm, RunWithSeedDoesNotAdvanceMachineState) {
  Machine A(Platform::intelHaswellServer(), 109);
  Machine B(Platform::intelHaswellServer(), 109);
  Application App(KernelKind::MklDgemm, 8000);
  // Interleave pure runs on B; its counter-driven stream must not move.
  (void)B.runWithSeed(CompoundApplication(App), 0xDEAD);
  (void)B.runWithSeed(CompoundApplication(App), 0xBEEF);
  EXPECT_EQ(A.run(App).RunSeed, B.run(App).RunSeed);
}

TEST(SynthAlgorithm, RunBatchMatchesSerialRunsAtAnyThreadCount) {
  ThreadCountGuard Guard;
  CompoundApplication App(Application(KernelKind::MklDgemm, 6000),
                          Application(KernelKind::MklFft, 20000));
  Machine Serial(Platform::intelSkylakeServer(), 110);
  std::vector<Execution> Reference;
  for (int I = 0; I < 6; ++I)
    Reference.push_back(Serial.run(App));

  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool::setGlobalThreadCount(Threads);
    Machine M(Platform::intelSkylakeServer(), 110);
    std::vector<Execution> Batch = M.runBatch(App, 6);
    ASSERT_EQ(Batch.size(), Reference.size());
    for (size_t I = 0; I < Batch.size(); ++I) {
      EXPECT_EQ(Batch[I].RunSeed, Reference[I].RunSeed);
      EXPECT_EQ(Batch[I].TrueDynamicEnergyJ,
                Reference[I].TrueDynamicEnergyJ);
    }
    // The batch must also leave the machine's run counter where the
    // serial scan would: the next run continues the same seed sequence.
    Execution Next = M.run(App);
    Machine Twin(Platform::intelSkylakeServer(), 110);
    for (int I = 0; I < 6; ++I)
      (void)Twin.run(App);
    EXPECT_EQ(Next.RunSeed, Twin.run(App).RunSeed);
  }
}

TEST(SynthAlgorithm, BatchedCountersIdenticalAcrossThreadCounts) {
  ThreadCountGuard PoolGuard;
  std::vector<std::vector<double>> PerThreadCounts;
  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool::setGlobalThreadCount(Threads);
    Machine M(Platform::intelHaswellServer(), 111);
    std::vector<Execution> Execs =
        M.runBatch(CompoundApplication(Application(KernelKind::MklDgemm, 8000)),
                   4);
    std::vector<EventId> Ids = M.registry().allEvents();
    std::vector<double> Counts;
    for (const Execution &E : Execs) {
      std::vector<double> C = M.readCounters(Ids, E);
      Counts.insert(Counts.end(), C.begin(), C.end());
    }
    PerThreadCounts.push_back(std::move(Counts));
  }
  EXPECT_EQ(PerThreadCounts[0], PerThreadCounts[1]);
  EXPECT_EQ(PerThreadCounts[0], PerThreadCounts[2]);
}
