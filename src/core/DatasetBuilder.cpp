//===- core/DatasetBuilder.cpp - Experiment dataset construction ---------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/DatasetBuilder.h"

#include "support/PhaseTimers.h"
#include "support/ThreadPool.h"

using namespace slope;
using namespace slope::core;
using namespace slope::pmc;
using namespace slope::sim;

Expected<ml::Dataset>
DatasetBuilder::build(const std::vector<CompoundApplication> &Apps,
                      const std::vector<EventId> &Events) {
  // Charged on the calling thread so the counter reflects the campaign's
  // wall clock and credits the parallel fan-out below.
  ScopedPhase Timer(Phase::Profile);

  std::vector<std::string> Names;
  Names.reserve(Events.size());
  for (EventId Id : Events)
    Names.push_back(M.registry().event(Id).Name);

  ml::Dataset Data(Names);
  auto Plan = planCollection(M.registry(), Events, M.platform().pmuSpec());
  if (!Plan)
    return Plan.error();

  // The whole campaign decomposes into four stages that together are
  // bit-identical to profiling each application serially:
  //   1. run seeds fork from the machine's stateful counter serially, in
  //      application-major order — the order a serial scan consumes them;
  //   2. the executions themselves are pure given a seed, so all
  //      applications' runs fan out over the pool into disjoint slots;
  //   3. meter readings are stateful (the sampling RNG advances per
  //      reading); the meter's batch entry point reproduces the serial
  //      scan's stream and fans the readings out;
  //   4. the per-application reductions are pure reads of (2) and (3)
  //      and fan out again, one disjoint slice each.
  const size_t RunsPerApp = Plan->numRuns() * Options.Repetitions;
  std::vector<uint64_t> Seeds = M.forkRunSeeds(Apps.size() * RunsPerApp);
  std::vector<Execution> Execs(Seeds.size());
  // Individual runs and reductions are microseconds of work, so hand the
  // pool contiguous blocks; each index still writes only its own slot.
  parallelFor(0, Execs.size(), 64, [&](size_t I) {
    Execs[I] = M.runWithSeed(Apps[I / RunsPerApp], Seeds[I]);
  });
  std::vector<power::EnergyReading> Readings = Meter.readingsFor(Execs);

  std::vector<ProfileResult> Results(Apps.size());
  parallelFor(0, Apps.size(), 8, [&](size_t A) {
    Results[A] =
        Profiler.reduceRuns(*Plan, Events, Options.Repetitions,
                            Execs.data() + A * RunsPerApp,
                            Readings.data() + A * RunsPerApp);
  });

  // Energy comes from the same profiling campaign (mean of the per-run
  // meter readings), as in the paper's setup where PMCs and energy are
  // recorded for the same application execution.
  for (const ProfileResult &Profile : Results)
    Data.addRow(Profile.Counts, Options.UseTotalEnergy
                                    ? Profile.TotalEnergyJ
                                    : Profile.DynamicEnergyJ);
  return Data;
}

Expected<ml::Dataset>
DatasetBuilder::buildByName(const std::vector<CompoundApplication> &Apps,
                            const std::vector<std::string> &EventNames) {
  std::vector<EventId> Events;
  Events.reserve(EventNames.size());
  for (const std::string &Name : EventNames) {
    auto Id = M.registry().lookup(Name);
    if (!Id)
      return Id.error();
    Events.push_back(*Id);
  }
  return build(Apps, Events);
}
