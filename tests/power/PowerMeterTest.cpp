//===- tests/power/PowerMeterTest.cpp - Power meter tests -----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "power/PowerMeter.h"
#include "power/RaplSensor.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace slope;
using namespace slope::power;
using namespace slope::sim;

namespace {
Execution longRun(Machine &M) {
  return M.run(Application(KernelKind::MklDgemm, 16000)); // ~10 s class.
}
} // namespace

TEST(WattsUpProMeter, TotalEnergyNearTruth) {
  Machine M(Platform::intelHaswellServer(), 1);
  WattsUpProMeter Meter;
  Execution E = longRun(M);
  double Truth = E.TrueDynamicEnergyJ +
                 M.platform().IdlePowerWatts * E.totalTimeSec();
  double Measured = Meter.measureTotalEnergyJ(M, E);
  EXPECT_NEAR(Measured / Truth, 1.0, 0.03);
}

TEST(WattsUpProMeter, RepeatedMeasurementsDiffer) {
  Machine M(Platform::intelHaswellServer(), 2);
  WattsUpProMeter Meter;
  Execution E = longRun(M);
  double A = Meter.measureTotalEnergyJ(M, E);
  double B = Meter.measureTotalEnergyJ(M, E);
  EXPECT_NE(A, B); // Fresh sampling alignment and sensor noise.
  EXPECT_NEAR(A / B, 1.0, 0.05);
}

TEST(WattsUpProMeter, ShortRunStillMeasured) {
  // Sub-second runs fall below the 1 Hz sampling period; the device
  // takes a single mid-run sample.
  Machine M(Platform::intelHaswellServer(), 3);
  WattsUpProMeter Meter;
  Execution E = M.run(Application(KernelKind::MklDgemm, 1024));
  ASSERT_LT(E.totalTimeSec(), 1.0);
  double Measured = Meter.measureTotalEnergyJ(M, E);
  EXPECT_GT(Measured, 0.0);
}

TEST(WattsUpProMeter, IdlePowerCalibration) {
  Machine M(Platform::intelSkylakeServer(), 4);
  WattsUpProMeter Meter;
  double Idle = Meter.measureIdlePowerW(M, 60.0);
  EXPECT_NEAR(Idle, 32.0, 0.5);
}

TEST(WattsUpProMeter, GainErrorBiasesReadings) {
  Machine M(Platform::intelHaswellServer(), 5);
  WattsUpOptions Drifted;
  Drifted.GainError = 0.10;
  Drifted.SensorNoiseFraction = 0.0;
  Drifted.QuantizationW = 0.0;
  WattsUpProMeter Meter(Drifted);
  double Idle = Meter.measureIdlePowerW(M, 10.0);
  EXPECT_NEAR(Idle, 58.0 * 1.10, 1e-9);
}

TEST(WattsUpProMeter, QuantizationRoundsToResolution) {
  Machine M(Platform::intelHaswellServer(), 6);
  WattsUpOptions Clean;
  Clean.SensorNoiseFraction = 0.0;
  Clean.QuantizationW = 0.5;
  WattsUpProMeter Meter(Clean);
  double Idle = Meter.measureIdlePowerW(M, 5.0);
  EXPECT_DOUBLE_EQ(std::fmod(Idle, 0.5), 0.0);
}

TEST(WattsUpProMeter, CompoundProfileIntegratesBothPhases) {
  Machine M(Platform::intelHaswellServer(), 7);
  WattsUpProMeter Meter;
  CompoundApplication App(Application(KernelKind::MklDgemm, 14000),
                          Application(KernelKind::Stream, 1500000000u));
  Execution E = M.run(App);
  double Truth = E.TrueDynamicEnergyJ +
                 M.platform().IdlePowerWatts * E.totalTimeSec();
  EXPECT_NEAR(Meter.measureTotalEnergyJ(M, E) / Truth, 1.0, 0.04);
}

namespace {
/// Restores automatic pool sizing however the test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { ThreadPool::setGlobalThreadCount(0); }
};

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Sub-sample-period, mid-length and long executions, interleaved.
std::vector<Execution> mixedRuns(Machine &M) {
  const size_t Sizes[] = {1024, 16000, 4000, 32000};
  std::vector<Execution> Execs;
  for (size_t I = 0; I < 40; ++I)
    Execs.push_back(M.run(Application(KernelKind::MklDgemm, Sizes[I % 4])));
  return Execs;
}
} // namespace

TEST(WattsUpProMeter, BatchMatchesSerialReadingsAtAnyThreadCount) {
  ThreadCountGuard Guard;
  Machine M(Platform::intelHaswellServer(), 7);
  std::vector<Execution> Execs = mixedRuns(M);
  ASSERT_LT(Execs[0].totalTimeSec(), 1.0);
  ASSERT_GT(Execs[3].totalTimeSec(), 20.0);

  WattsUpProMeter Serial(WattsUpOptions(), 0x5EED);
  std::vector<double> Want;
  for (const Execution &E : Execs)
    Want.push_back(Serial.measureTotalEnergyJ(M, E));
  const double WantAfter = Serial.measureTotalEnergyJ(M, Execs[1]);

  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool::setGlobalThreadCount(Threads);
    WattsUpProMeter Batch(WattsUpOptions(), 0x5EED);
    std::vector<double> Got = Batch.measureTotalEnergiesJ(M, Execs);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_TRUE(sameBits(Got[I], Want[I]))
          << "reading " << I << " at " << Threads << " threads: " << Got[I]
          << " vs " << Want[I];
    // The stream ends where the serial scan's does.
    EXPECT_TRUE(sameBits(Batch.measureTotalEnergyJ(M, Execs[1]), WantAfter))
        << Threads << " threads";
  }
}

TEST(PowerMeter, DefaultBatchIsTheSerialLoop) {
  Machine M(Platform::intelHaswellServer(), 8);
  std::vector<Execution> Execs = mixedRuns(M);
  RaplSensor Serial, Batch;
  std::vector<double> Got = Batch.measureTotalEnergiesJ(M, Execs);
  ASSERT_EQ(Got.size(), Execs.size());
  for (size_t I = 0; I < Execs.size(); ++I)
    EXPECT_TRUE(sameBits(Got[I], Serial.measureTotalEnergyJ(M, Execs[I])))
        << "reading " << I;
}
