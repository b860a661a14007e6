//===- tests/core/PmcProfilerTest.cpp - Profiler tests --------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/PmcProfiler.h"

#include "../ml/AllocCounting.h"
#include "pmc/PlatformEvents.h"
#include "reference/ReferenceSynth.h"

#include <gtest/gtest.h>

#include <map>

using namespace slope;
using namespace slope::core;
using namespace slope::pmc;
using namespace slope::sim;

namespace {
CompoundApplication dgemm() {
  return CompoundApplication(Application(KernelKind::MklDgemm, 10000));
}

/// The seed-era collection algorithm, kept verbatim as the reference the
/// batched campaign must reproduce bit for bit: one serial machine run
/// per (collection run, repetition), the meter read as each run finishes,
/// per-event counts read through the seed per-event formula of
/// tests/reference and accumulated through ordered map nodes.
ProfileResult referenceCollect(Machine &M, power::HclWattsUp *Meter,
                               const CompoundApplication &App,
                               const std::vector<EventId> &Events,
                               unsigned Repetitions) {
  auto Plan = planCollection(M.registry(), Events);
  EXPECT_TRUE(bool(Plan));
  std::map<EventId, double> MeanByEvent;
  ProfileResult Result;
  double EnergySum = 0, TotalSum = 0, TimeSum = 0;
  for (const CollectionRun &Run : Plan->Runs) {
    std::map<EventId, double> GroupSum;
    for (unsigned Rep = 0; Rep < Repetitions; ++Rep) {
      Execution Exec = M.run(App);
      ++Result.RunsUsed;
      TimeSum += Exec.totalTimeSec();
      if (Meter) {
        power::EnergyReading Reading = Meter->readingFor(Exec);
        EnergySum += Reading.DynamicEnergyJ;
        TotalSum += Reading.TotalEnergyJ;
      }
      for (EventId Id : Run.Events)
        GroupSum[Id] += reference::readCounter(M, Id, Exec);
    }
    for (EventId Id : Run.Events)
      MeanByEvent[Id] = GroupSum[Id] / Repetitions;
  }
  for (EventId Id : Events)
    Result.Counts.push_back(MeanByEvent[Id]);
  if (Result.RunsUsed > 0) {
    Result.TimeSec = TimeSum / static_cast<double>(Result.RunsUsed);
    Result.DynamicEnergyJ =
        Meter ? EnergySum / static_cast<double>(Result.RunsUsed) : 0.0;
    Result.TotalEnergyJ =
        Meter ? TotalSum / static_cast<double>(Result.RunsUsed) : 0.0;
  }
  return Result;
}
} // namespace

TEST(PmcProfiler, CollectsRequestedEvents) {
  Machine M(Platform::intelHaswellServer(), 1);
  PmcProfiler Profiler(M);
  std::vector<EventId> Ids;
  for (const std::string &Name : haswellClassAPmcNames())
    Ids.push_back(*M.registry().lookup(Name));
  auto Result = Profiler.collect(dgemm(), Ids);
  ASSERT_TRUE(bool(Result));
  ASSERT_EQ(Result->Counts.size(), Ids.size());
  for (double C : Result->Counts)
    EXPECT_GT(C, 0.0);
}

TEST(PmcProfiler, SixGeneralEventsNeedTwoRuns) {
  Machine M(Platform::intelHaswellServer(), 2);
  PmcProfiler Profiler(M);
  std::vector<EventId> Ids;
  for (const std::string &Name : haswellClassAPmcNames())
    Ids.push_back(*M.registry().lookup(Name));
  auto Result = Profiler.collect(dgemm(), Ids);
  ASSERT_TRUE(bool(Result));
  EXPECT_EQ(Result->RunsUsed, 2u);
}

TEST(PmcProfiler, RepetitionsMultiplyRuns) {
  Machine M(Platform::intelHaswellServer(), 3);
  PmcProfiler Profiler(M);
  std::vector<EventId> Ids = {*M.registry().lookup("L2_RQSTS_MISS")};
  auto Result = Profiler.collect(dgemm(), Ids, /*Repetitions=*/3);
  ASSERT_TRUE(bool(Result));
  EXPECT_EQ(Result->RunsUsed, 3u);
}

TEST(PmcProfiler, EnergyAttachedWhenMeterPresent) {
  Machine M(Platform::intelHaswellServer(), 4);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  PmcProfiler Profiler(M, &Meter);
  auto Result =
      Profiler.collect(dgemm(), {*M.registry().lookup("UOPS_ISSUED_ANY")});
  ASSERT_TRUE(bool(Result));
  EXPECT_GT(Result->DynamicEnergyJ, 0.0);
  EXPECT_GT(Result->TimeSec, 0.0);
}

TEST(PmcProfiler, NoMeterMeansZeroEnergy) {
  Machine M(Platform::intelHaswellServer(), 5);
  PmcProfiler Profiler(M);
  auto Result =
      Profiler.collect(dgemm(), {*M.registry().lookup("UOPS_ISSUED_ANY")});
  ASSERT_TRUE(bool(Result));
  EXPECT_DOUBLE_EQ(Result->DynamicEnergyJ, 0.0);
}

TEST(PmcProfiler, CollectionCostMatchesPaperForFullRegistry) {
  Machine M(Platform::intelHaswellServer(), 6);
  PmcProfiler Profiler(M);
  std::vector<EventId> Significant;
  for (EventId Id : M.registry().allEvents())
    if (!M.registry().event(Id).Model.Coeffs.empty())
      Significant.push_back(Id);
  auto Cost = Profiler.collectionCost(Significant);
  ASSERT_TRUE(bool(Cost));
  EXPECT_EQ(*Cost, 53u);
}

TEST(PmcProfiler, DuplicateRequestIsRejected) {
  Machine M(Platform::intelHaswellServer(), 7);
  PmcProfiler Profiler(M);
  EventId Id = *M.registry().lookup("L2_RQSTS_MISS");
  auto Result = Profiler.collect(dgemm(), {Id, Id});
  EXPECT_FALSE(bool(Result));
}

TEST(PmcProfiler, CountsOrderedLikeRequest) {
  Machine M(Platform::intelHaswellServer(), 8);
  PmcProfiler Profiler(M);
  EventId Uops = *M.registry().lookup("UOPS_ISSUED_ANY");
  EventId Divs = *M.registry().lookup("ARITH_DIVIDER_COUNT");
  auto Forward = Profiler.collect(dgemm(), {Uops, Divs});
  ASSERT_TRUE(bool(Forward));
  // Uop volume dwarfs divider counts for DGEMM.
  EXPECT_GT(Forward->Counts[0], Forward->Counts[1]);
}

TEST(PmcProfiler, BatchedCampaignMatchesSeedEraSerialScan) {
  // Twin rigs with identical seeds: one profiled through the batched
  // campaign, one through the seed-era serial algorithm replicated above.
  // Every count, energy, and time must agree bit for bit.
  std::vector<EventId> Ids;
  {
    Machine Probe(Platform::intelHaswellServer(), 9);
    for (const std::string &Name : haswellClassAPmcNames())
      Ids.push_back(*Probe.registry().lookup(Name));
  }
  Machine RefM(Platform::intelHaswellServer(), 9);
  power::HclWattsUp RefMeter(RefM,
                             std::make_unique<power::WattsUpProMeter>());
  ProfileResult Ref =
      referenceCollect(RefM, &RefMeter, dgemm(), Ids, /*Repetitions=*/3);

  Machine M(Platform::intelHaswellServer(), 9);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  PmcProfiler Profiler(M, &Meter);
  auto Result = Profiler.collect(dgemm(), Ids, /*Repetitions=*/3);
  ASSERT_TRUE(bool(Result));
  EXPECT_EQ(Result->RunsUsed, Ref.RunsUsed);
  EXPECT_EQ(Result->Counts, Ref.Counts);
  EXPECT_EQ(Result->DynamicEnergyJ, Ref.DynamicEnergyJ);
  EXPECT_EQ(Result->TotalEnergyJ, Ref.TotalEnergyJ);
  EXPECT_EQ(Result->TimeSec, Ref.TimeSec);
}

TEST(PmcProfiler, WarmRepLoopDoesNotAllocate) {
  Machine M(Platform::intelHaswellServer(), 10);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  PmcProfiler Profiler(M, &Meter);
  std::vector<EventId> Ids;
  for (const std::string &Name : haswellClassAPmcNames())
    Ids.push_back(*M.registry().lookup(Name));

  // The probe fires after all reduction scratch is sized and before the
  // per-run, per-repetition read/accumulate loop — which must then touch
  // the heap exactly zero times.
  detail::ProfilerRepLoopProbe = [](bool Entering) {
    if (Entering)
      test::allocCountingArm();
    else
      test::allocCountingDisarm();
  };
  auto Result = Profiler.collect(dgemm(), Ids, /*Repetitions=*/4);
  detail::ProfilerRepLoopProbe = nullptr;

  ASSERT_TRUE(bool(Result));
  EXPECT_EQ(test::armedAllocationCount(), 0u)
      << "profiler rep loop allocated after scratch setup";
}
