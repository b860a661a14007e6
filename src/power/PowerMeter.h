//===- power/PowerMeter.h - System power meter models -----------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// System-level power measurement, standing in for the paper's WattsUp
/// Pro meters (periodically calibrated against a Yokogawa WT210). A meter
/// observes the machine's wall power — idle power plus the running
/// application's dynamic power profile — through sampling, quantization,
/// and sensor noise. Models are trained/validated against these readings,
/// which the paper treats as the ground truth.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_POWER_POWERMETER_H
#define SLOPE_POWER_POWERMETER_H

#include "sim/Machine.h"

#include <string>
#include <vector>

namespace slope {
namespace power {

/// Abstract wall-power meter.
class PowerMeter {
public:
  virtual ~PowerMeter();

  /// Measures the total (static + dynamic) energy in joules consumed
  /// while \p Exec ran on \p M. Each call models a fresh measurement
  /// (fresh sampling alignment and sensor noise).
  virtual double measureTotalEnergyJ(const sim::Machine &M,
                                     const sim::Execution &Exec) = 0;

  /// Measures the total energy of each of \p Execs in order: the same
  /// values, and the same meter state afterwards, as calling
  /// measureTotalEnergyJ on each in turn. The default does exactly that;
  /// a meter may override it to spread the work over the thread pool.
  virtual std::vector<double>
  measureTotalEnergiesJ(const sim::Machine &M,
                        const std::vector<sim::Execution> &Execs);

  /// Measures the idle machine's power (watts) by observing it for
  /// \p Seconds with no load. Used for static-power calibration.
  virtual double measureIdlePowerW(const sim::Machine &M,
                                   double Seconds) = 0;

  /// \returns a short device name.
  virtual std::string name() const = 0;
};

/// Configuration of the WattsUp Pro model.
struct WattsUpOptions {
  double SampleHz = 1.0;          ///< Device reports ~1 sample/second.
  double QuantizationW = 0.1;     ///< Reading resolution.
  double SensorNoiseFraction = 0.005; ///< Gaussian sigma, fraction of P.
  /// Calibration drift: multiplicative gain error, re-zeroed when the
  /// meters are calibrated against the revenue-grade reference.
  double GainError = 0.0;
};

/// WattsUp Pro: samples the power profile at ~1 Hz, quantizes to 0.1 W,
/// adds proportional sensor noise, and integrates samples over the run.
class WattsUpProMeter : public PowerMeter {
public:
  explicit WattsUpProMeter(WattsUpOptions Options = WattsUpOptions(),
                           uint64_t Seed = 0x3A77);

  double measureTotalEnergyJ(const sim::Machine &M,
                             const sim::Execution &Exec) override;
  /// Reads the executions in parallel, bit-identical to the serial loop.
  /// A serial pass snapshots the sampling stream at each reading's start
  /// and skips it past that reading's draws (one for the phase offset,
  /// two per sample); the readings then run from their snapshots.
  std::vector<double>
  measureTotalEnergiesJ(const sim::Machine &M,
                        const std::vector<sim::Execution> &Execs) override;
  double measureIdlePowerW(const sim::Machine &M, double Seconds) override;
  std::string name() const override { return "WattsUp Pro"; }

private:
  /// One noisy, quantized sample of an instantaneous power \p TrueW.
  double sample(Rng &R, double TrueW) const;

  /// One reading of \p Exec, drawing from \p R.
  double measure(Rng &R, const sim::Machine &M,
                 const sim::Execution &Exec) const;

  WattsUpOptions Options;
  Rng MeterRng;
};

} // namespace power
} // namespace slope

#endif // SLOPE_POWER_POWERMETER_H
