//===- power/PowerMeter.cpp - System power meter models ----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "power/PowerMeter.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace slope;
using namespace slope::power;
using namespace slope::sim;

// Out-of-line virtual anchor.
PowerMeter::~PowerMeter() = default;

std::vector<double>
PowerMeter::measureTotalEnergiesJ(const Machine &M,
                                  const std::vector<Execution> &Execs) {
  std::vector<double> Out;
  Out.reserve(Execs.size());
  for (const Execution &Exec : Execs)
    Out.push_back(measureTotalEnergyJ(M, Exec));
  return Out;
}

WattsUpProMeter::WattsUpProMeter(WattsUpOptions Options, uint64_t Seed)
    : Options(Options), MeterRng(Seed) {
  assert(Options.SampleHz > 0 && "sampling rate must be positive");
}

double WattsUpProMeter::sample(Rng &R, double TrueW) const {
  double Noisy = TrueW * (1.0 + Options.GainError) +
                 R.gaussian(0.0, Options.SensorNoiseFraction * TrueW);
  if (Options.QuantizationW <= 0)
    return Noisy;
  return std::round(Noisy / Options.QuantizationW) * Options.QuantizationW;
}

double WattsUpProMeter::measureTotalEnergyJ(const Machine &M,
                                            const Execution &Exec) {
  return measure(MeterRng, M, Exec);
}

double WattsUpProMeter::measure(Rng &R, const Machine &M,
                                const Execution &Exec) const {
  double Idle = M.platform().IdlePowerWatts;
  double Total = Exec.totalTimeSec();
  assert(Total > 0 && "execution with no duration");

  // Build the piecewise-constant power profile: per phase, idle power
  // plus that phase's average dynamic power.
  std::vector<double> PhaseEnd;
  std::vector<double> PhasePower;
  double T = 0;
  for (const ExecutionPhase &Phase : Exec.Phases) {
    double DynamicJ =
        M.energyModel().dynamicEnergyJoules(Phase.Activities);
    T += Phase.TimeSec;
    PhaseEnd.push_back(T);
    PhasePower.push_back(Idle + DynamicJ / Phase.TimeSec);
  }

  auto PowerAt = [&](double Time) {
    for (size_t I = 0; I < PhaseEnd.size(); ++I)
      if (Time < PhaseEnd[I])
        return PhasePower[I];
    return PhasePower.back();
  };

  // Sample at the device rate with a random phase offset; the reading is
  // the mean sampled power times the (precisely known) duration.
  double Dt = 1.0 / Options.SampleHz;
  double Offset = R.uniform() * Dt;
  double Sum = 0;
  size_t Count = 0;
  for (double Time = Offset; Time < Total; Time += Dt) {
    Sum += sample(R, PowerAt(Time));
    ++Count;
  }
  if (Count == 0) {
    // Sub-sample-period run: one reading mid-run is all the device sees.
    Sum = sample(R, PowerAt(Total / 2));
    Count = 1;
  }
  return Sum / static_cast<double>(Count) * Total;
}

std::vector<double>
WattsUpProMeter::measureTotalEnergiesJ(const Machine &M,
                                       const std::vector<Execution> &Execs) {
  // The serial pass replays only the stream bookkeeping of measure(): the
  // offset draw, the same sample-time loop to count samples, and two
  // draws (one Gaussian) per sample, or per the lone mid-run sample.
  std::vector<Rng> Starts;
  Starts.reserve(Execs.size());
  const double Dt = 1.0 / Options.SampleHz;
  for (const Execution &Exec : Execs) {
    Starts.push_back(MeterRng);
    const double Total = Exec.totalTimeSec();
    size_t Count = 0;
    for (double Time = MeterRng.uniform() * Dt; Time < Total; Time += Dt)
      ++Count;
    for (size_t Draw = 0; Draw < 2 * std::max<size_t>(Count, 1); ++Draw)
      MeterRng.next();
  }
  std::vector<double> Out(Execs.size());
  // A reading is microseconds of work: hand the pool blocks of them.
  parallelFor(0, Execs.size(), 64, [&](size_t I) {
    Rng R = Starts[I];
    Out[I] = measure(R, M, Execs[I]);
  });
  return Out;
}

double WattsUpProMeter::measureIdlePowerW(const Machine &M, double Seconds) {
  assert(Seconds > 0 && "idle observation needs a duration");
  double Idle = M.platform().IdlePowerWatts;
  double Dt = 1.0 / Options.SampleHz;
  double Sum = 0;
  size_t Count = 0;
  for (double Time = 0; Time < Seconds; Time += Dt) {
    Sum += sample(MeterRng, Idle);
    ++Count;
  }
  assert(Count > 0 && "no idle samples taken");
  return Sum / static_cast<double>(Count);
}
