//===- power/HclWattsUp.h - HCLWattsUp API facade ----------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programmatic energy-measurement API the paper uses (HCLWattsUp,
/// git.ucd.ie/hcl/hclwattsup): wraps a power meter and the machine under
/// test, calibrates static power, and reports per-run total and dynamic
/// energy, E_D = E_T - P_S * T_E (Sect. 2 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_POWER_HCLWATTSUP_H
#define SLOPE_POWER_HCLWATTSUP_H

#include "power/PowerMeter.h"
#include "power/RepeatedMeasurement.h"

#include <memory>

namespace slope {
namespace power {

/// One measured application run.
struct EnergyReading {
  double TotalEnergyJ = 0;
  double DynamicEnergyJ = 0;
  double TimeSec = 0;
};

/// Energy-measurement facade combining a Machine and a PowerMeter.
class HclWattsUp {
public:
  /// Creates the facade and calibrates static power by observing the
  /// idle machine for \p CalibrationSeconds.
  HclWattsUp(sim::Machine &M, std::unique_ptr<PowerMeter> Meter,
             double CalibrationSeconds = 60.0);

  /// \returns the calibrated static (idle) power in watts.
  double staticPowerW() const { return StaticPowerW; }

  /// Measures one fresh run of \p App.
  EnergyReading measureRun(const sim::CompoundApplication &App);

  /// Computes the reading for an already-performed execution (used when
  /// PMCs and energy must come from the same run).
  EnergyReading readingFor(const sim::Execution &Exec);

  /// Readings for a batch of already-performed executions, in order,
  /// through the meter's batch entry point: bit-identical to reading each
  /// execution as it finishes, including the meter's state afterwards.
  std::vector<EnergyReading> readingsFor(const std::vector<sim::Execution> &Execs);

  /// Measures the dynamic energy of \p App with the repeated-runs
  /// methodology; \returns the converged sample-mean summary.
  MeasurementResult measureDynamicEnergy(const sim::CompoundApplication &App,
                                         const MeasurementPolicy &Policy = {});

  sim::Machine &machine() { return M; }

private:
  /// The reading of \p Exec given its measured total energy.
  EnergyReading reading(const sim::Execution &Exec, double TotalEnergyJ) const;

  sim::Machine &M;
  std::unique_ptr<PowerMeter> Meter;
  double StaticPowerW = 0;
};

} // namespace power
} // namespace slope

#endif // SLOPE_POWER_HCLWATTSUP_H
