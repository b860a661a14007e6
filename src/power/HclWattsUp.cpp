//===- power/HclWattsUp.cpp - HCLWattsUp API facade ---------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "power/HclWattsUp.h"

#include <cassert>

using namespace slope;
using namespace slope::power;
using namespace slope::sim;

HclWattsUp::HclWattsUp(Machine &M, std::unique_ptr<PowerMeter> Meter,
                       double CalibrationSeconds)
    : M(M), Meter(std::move(Meter)) {
  assert(this->Meter && "HclWattsUp needs a power meter");
  StaticPowerW = this->Meter->measureIdlePowerW(M, CalibrationSeconds);
}

EnergyReading HclWattsUp::reading(const Execution &Exec,
                                  double TotalEnergyJ) const {
  EnergyReading Reading;
  Reading.TimeSec = Exec.totalTimeSec();
  Reading.TotalEnergyJ = TotalEnergyJ;
  Reading.DynamicEnergyJ =
      Reading.TotalEnergyJ - StaticPowerW * Reading.TimeSec;
  return Reading;
}

EnergyReading HclWattsUp::readingFor(const Execution &Exec) {
  return reading(Exec, Meter->measureTotalEnergyJ(M, Exec));
}

std::vector<EnergyReading>
HclWattsUp::readingsFor(const std::vector<Execution> &Execs) {
  std::vector<double> TotalJ = Meter->measureTotalEnergiesJ(M, Execs);
  std::vector<EnergyReading> Readings;
  Readings.reserve(Execs.size());
  for (size_t I = 0; I < Execs.size(); ++I)
    Readings.push_back(reading(Execs[I], TotalJ[I]));
  return Readings;
}

EnergyReading HclWattsUp::measureRun(const CompoundApplication &App) {
  Execution Exec = M.run(App);
  return readingFor(Exec);
}

MeasurementResult
HclWattsUp::measureDynamicEnergy(const CompoundApplication &App,
                                 const MeasurementPolicy &Policy) {
  return measureRepeatedly(
      [this, &App]() { return measureRun(App).DynamicEnergyJ; }, Policy);
}
