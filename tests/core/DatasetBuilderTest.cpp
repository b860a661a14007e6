//===- tests/core/DatasetBuilderTest.cpp - Dataset builder tests ----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/DatasetBuilder.h"

#include "pmc/PlatformEvents.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

namespace {
struct Rig {
  Machine M;
  power::HclWattsUp Meter;
  DatasetBuilder Builder;

  explicit Rig(uint64_t Seed)
      : M(Platform::intelSkylakeServer(), Seed),
        Meter(M, std::make_unique<power::WattsUpProMeter>()),
        Builder(M, Meter) {}
};

std::vector<CompoundApplication> someApps() {
  return {CompoundApplication(Application(KernelKind::MklDgemm, 8000)),
          CompoundApplication(Application(KernelKind::MklDgemm, 12000)),
          CompoundApplication(Application(KernelKind::MklFft, 25000))};
}
} // namespace

TEST(DatasetBuilder, OneRowPerApplication) {
  Rig R(1);
  auto Data = R.Builder.buildByName(someApps(), pmc::skylakePaNames());
  ASSERT_TRUE(bool(Data));
  EXPECT_EQ(Data->numRows(), 3u);
  EXPECT_EQ(Data->numFeatures(), 9u);
}

TEST(DatasetBuilder, FeatureNamesMatchEvents) {
  Rig R(2);
  auto Data = R.Builder.buildByName(someApps(), pmc::skylakePaNames());
  ASSERT_TRUE(bool(Data));
  EXPECT_EQ(Data->featureNames(), pmc::skylakePaNames());
}

TEST(DatasetBuilder, TargetsArePositiveEnergies) {
  Rig R(3);
  auto Data = R.Builder.buildByName(someApps(), pmc::skylakePaNames());
  ASSERT_TRUE(bool(Data));
  for (size_t I = 0; I < Data->numRows(); ++I)
    EXPECT_GT(Data->target(I), 0.0);
}

TEST(DatasetBuilder, BiggerProblemMoreEnergy) {
  Rig R(4);
  auto Data = R.Builder.buildByName(someApps(), pmc::skylakePaNames());
  ASSERT_TRUE(bool(Data));
  EXPECT_LT(Data->target(0), Data->target(1)); // 8000^3 < 12000^3.
}

TEST(DatasetBuilder, UnknownEventNameFails) {
  Rig R(5);
  auto Data = R.Builder.buildByName(someApps(), {"NOT_A_COUNTER"});
  ASSERT_FALSE(bool(Data));
  EXPECT_NE(Data.error().message().find("NOT_A_COUNTER"),
            std::string::npos);
}

TEST(DatasetBuilder, TotalEnergyOptionRaisesTargets) {
  // E_T = E_D + P_S * T: the total-energy target must exceed the
  // dynamic one by roughly the static power times runtime.
  Machine M(Platform::intelSkylakeServer(), 77);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  DatasetBuildOptions Total;
  Total.UseTotalEnergy = true;
  DatasetBuilder DynBuilder(M, Meter);
  DatasetBuilder TotalBuilder(M, Meter, Total);
  std::vector<CompoundApplication> App = {
      CompoundApplication(Application(KernelKind::MklDgemm, 12000))};
  auto Dyn = DynBuilder.buildByName(App, {"UOPS_EXECUTED_CORE"});
  auto Tot = TotalBuilder.buildByName(App, {"UOPS_EXECUTED_CORE"});
  ASSERT_TRUE(bool(Dyn));
  ASSERT_TRUE(bool(Tot));
  double T = kernelTimeSeconds(KernelKind::MklDgemm, 12000,
                               M.platform());
  double StaticJ = M.platform().IdlePowerWatts * T;
  EXPECT_NEAR(Tot->target(0) - Dyn->target(0), StaticJ, StaticJ * 0.15);
}

TEST(DatasetBuilder, CountsScaleWithWork) {
  Rig R(6);
  auto Data = R.Builder.buildByName(
      someApps(), {"FP_ARITH_INST_RETIRED_DOUBLE"});
  ASSERT_TRUE(bool(Data));
  // 2 * 8000^3 vs 2 * 12000^3.
  double Ratio = Data->row(1)[0] / Data->row(0)[0];
  EXPECT_NEAR(Ratio, std::pow(12000.0 / 8000.0, 3), Ratio * 0.05);
}

namespace {
/// Restores automatic pool sizing on scope exit.
struct CampaignConfigGuard {
  ~CampaignConfigGuard() { ThreadPool::setGlobalThreadCount(0); }
};

/// Asserts two datasets are bit-for-bit equal (columns and targets).
void expectDatasetsIdentical(const ml::Dataset &A, const ml::Dataset &B) {
  ASSERT_EQ(A.numRows(), B.numRows());
  ASSERT_EQ(A.featureNames(), B.featureNames());
  EXPECT_EQ(A.targets(), B.targets());
  for (size_t C = 0; C < A.numFeatures(); ++C)
    EXPECT_EQ(A.featureColumn(C), B.featureColumn(C))
        << "column " << A.featureNames()[C] << " differs";
}
} // namespace

TEST(DatasetBuilder, ParallelBuildMatchesSerialPerAppCampaign) {
  // The fused campaign (seeds pre-forked app-major, runs parallel, meter
  // serial, reductions parallel) must reproduce profiling each
  // application one after the other on a twin rig, bit for bit.
  CampaignConfigGuard Guard;
  DatasetBuildOptions Options;
  Options.Repetitions = 2;

  Machine SerialM(Platform::intelSkylakeServer(), 21);
  power::HclWattsUp SerialMeter(SerialM,
                                std::make_unique<power::WattsUpProMeter>());
  PmcProfiler SerialProfiler(SerialM, &SerialMeter);
  std::vector<pmc::EventId> Events;
  for (const std::string &Name : pmc::skylakePaNames())
    Events.push_back(*SerialM.registry().lookup(Name));
  ml::Dataset Reference(pmc::skylakePaNames());
  ThreadPool::setGlobalThreadCount(1);
  for (const CompoundApplication &App : someApps()) {
    auto Profile = SerialProfiler.collect(App, Events, Options.Repetitions);
    ASSERT_TRUE(bool(Profile));
    Reference.addRow(Profile->Counts, Profile->DynamicEnergyJ);
  }

  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool::setGlobalThreadCount(Threads);
    Machine M(Platform::intelSkylakeServer(), 21);
    power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
    DatasetBuilder Builder(M, Meter, Options);
    auto Data = Builder.buildByName(someApps(), pmc::skylakePaNames());
    ASSERT_TRUE(bool(Data));
    expectDatasetsIdentical(*Data, Reference);
  }
}
