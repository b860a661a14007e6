//===- core/PmcProfiler.cpp - Multi-run PMC collection -------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/PmcProfiler.h"

#include <algorithm>

using namespace slope;
using namespace slope::core;
using namespace slope::pmc;
using namespace slope::sim;

void (*core::detail::ProfilerRepLoopProbe)(bool) = nullptr;

Expected<ProfileResult>
PmcProfiler::collect(const CompoundApplication &App,
                     const std::vector<EventId> &Events,
                     unsigned Repetitions) {
  assert(Repetitions >= 1 && "need at least one repetition");
  auto Plan = planCollection(M.registry(), Events, M.platform().pmuSpec());
  if (!Plan)
    return Plan.error();

  // Perform every execution of the campaign up front: seeds fork from the
  // machine's run counter in the exact order a serial per-run loop would
  // consume them, then the runs execute in parallel. The meter is stateful
  // (its sampling RNG advances per reading); its batch entry point gives
  // the readings of a serial scan in the same order.
  std::vector<Execution> Execs =
      M.runBatch(App, Plan->numRuns() * Repetitions);
  std::vector<power::EnergyReading> Readings;
  if (Meter)
    Readings = Meter->readingsFor(Execs);
  return reduceRuns(*Plan, Events, Repetitions, Execs.data(),
                    Meter ? Readings.data() : nullptr);
}

ProfileResult
PmcProfiler::reduceRuns(const CollectionPlan &Plan,
                        const std::vector<EventId> &Events,
                        unsigned Repetitions, const Execution *Execs,
                        const power::EnergyReading *Readings) const {
  // Dense accumulators indexed by the event's slot in the flattened plan
  // (collection runs concatenated): SlotOf maps an event id to its slot,
  // SlotMean accumulates the group sums in place, and Scratch receives
  // each run's batch-synthesized counts. All scratch is sized here, so
  // the reduction loop below performs no heap allocations.
  std::vector<uint32_t> SlotOf(M.registry().size(), UINT32_MAX);
  uint32_t NumSlots = 0;
  size_t MaxRunWidth = 0;
  for (const CollectionRun &Run : Plan.Runs) {
    MaxRunWidth = std::max(MaxRunWidth, Run.Events.size());
    for (EventId Id : Run.Events)
      SlotOf[Id] = NumSlots++;
  }
  std::vector<double> SlotMean(NumSlots, 0.0);
  std::vector<double> Scratch(MaxRunWidth);

  ProfileResult Result;
  double EnergySum = 0, TotalSum = 0, TimeSum = 0;
  if (detail::ProfilerRepLoopProbe)
    detail::ProfilerRepLoopProbe(true);
  size_t ExecIdx = 0;
  uint32_t SlotBase = 0;
  for (const CollectionRun &Run : Plan.Runs) {
    const size_t Width = Run.Events.size();
    for (unsigned Rep = 0; Rep < Repetitions; ++Rep, ++ExecIdx) {
      const Execution &Exec = Execs[ExecIdx];
      ++Result.RunsUsed;
      TimeSum += Exec.totalTimeSec();
      if (Readings) {
        EnergySum += Readings[ExecIdx].DynamicEnergyJ;
        TotalSum += Readings[ExecIdx].TotalEnergyJ;
      }
      M.readCounters(Run.Events.data(), Width, Exec, Scratch.data());
      for (size_t I = 0; I < Width; ++I)
        SlotMean[SlotBase + I] += Scratch[I];
    }
    for (size_t I = 0; I < Width; ++I)
      SlotMean[SlotBase + I] /= Repetitions;
    SlotBase += static_cast<uint32_t>(Width);
  }
  if (detail::ProfilerRepLoopProbe)
    detail::ProfilerRepLoopProbe(false);

  Result.Counts.reserve(Events.size());
  for (EventId Id : Events)
    Result.Counts.push_back(SlotMean[SlotOf[Id]]);
  if (Result.RunsUsed > 0) {
    Result.TimeSec = TimeSum / static_cast<double>(Result.RunsUsed);
    Result.DynamicEnergyJ =
        Readings ? EnergySum / static_cast<double>(Result.RunsUsed) : 0.0;
    Result.TotalEnergyJ =
        Readings ? TotalSum / static_cast<double>(Result.RunsUsed) : 0.0;
  }
  return Result;
}

Expected<size_t>
PmcProfiler::collectionCost(const std::vector<EventId> &Events) const {
  auto Plan = planCollection(M.registry(), Events, M.platform().pmuSpec());
  if (!Plan)
    return Plan.error();
  return Plan->numRuns();
}
