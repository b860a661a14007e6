//===- tests/support/PhaseTimersTest.cpp - Phase accumulator tests -------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/PhaseTimers.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace slope;

namespace {

TEST(PhaseTimers, AccumulatesAndResets) {
  phaseResetAll();
  EXPECT_EQ(phaseTotalNs(Phase::Profile), 0u);
  phaseAccumulate(Phase::Profile, 5);
  phaseAccumulate(Phase::Profile, 7);
  EXPECT_EQ(phaseTotalNs(Phase::Profile), 12u);
  phaseResetAll();
  EXPECT_EQ(phaseTotalNs(Phase::Profile), 0u);
}

TEST(PhaseTimers, ScopedPhaseChargesElapsedTime) {
  phaseResetAll();
  {
    ScopedPhase Timer(Phase::Profile);
    // Do a sliver of work; steady_clock must observe a non-negative span.
    volatile int Sink = 0;
    for (int I = 0; I < 1000; ++I)
      Sink = Sink + I;
  }
  // Elapsed time is platform-dependent; the invariant is that the scope
  // charged something representable and further scopes only add.
  uint64_t First = phaseTotalNs(Phase::Profile);
  { ScopedPhase Timer(Phase::Profile); }
  EXPECT_GE(phaseTotalNs(Phase::Profile), First);
  phaseResetAll();
}

TEST(PhaseTimers, ConcurrentAccumulationDoesNotLoseCounts) {
  phaseResetAll();
  constexpr size_t Tasks = 64;
  constexpr uint64_t PerTask = 1000;
  parallelFor(0, Tasks, 1, [](size_t) {
    for (uint64_t I = 0; I < PerTask; ++I)
      phaseAccumulate(Phase::Profile, 1);
  });
  EXPECT_EQ(phaseTotalNs(Phase::Profile), Tasks * PerTask);
  phaseResetAll();
}

} // namespace
