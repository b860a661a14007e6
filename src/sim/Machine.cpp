//===- sim/Machine.cpp - Execution engine and PMC synthesis ------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "support/PhaseTimers.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace slope;
using namespace slope::pmc;
using namespace slope::sim;

ActivityVector Execution::totalActivities() const {
  ActivityVector Total;
  for (const ExecutionPhase &Phase : Phases)
    Total += Phase.Activities;
  return Total;
}

double Execution::totalTimeSec() const {
  double Total = 0;
  for (const ExecutionPhase &Phase : Phases)
    Total += Phase.TimeSec;
  return Total;
}

Machine::Machine(Platform P, uint64_t Seed)
    : Plat(std::move(P)), Registry(Plat.buildRegistry()), Energy(Plat),
      MachineRng(Seed) {}

Execution Machine::runWithSeed(const CompoundApplication &App,
                               uint64_t RunSeed) const {
  assert(!App.Phases.empty() && "running an empty compound application");
  Execution Exec;
  Exec.RunSeed = RunSeed;

  Rng RunRng(Exec.RunSeed);
  for (const Application &Base : App.Phases) {
    assert(Base.isValid() && "problem size outside the kernel's range");
    const KernelSpec &Spec = kernelSpec(Base.Kind);

    ExecutionPhase Phase;
    Phase.App = Base;
    Phase.Activities =
        kernelActivities(Base.Kind, static_cast<double>(Base.Size), Plat);
    // Run-to-run workload variation: a common multiplicative factor on
    // all data-dependent work of the phase (scheduling, frequency wander).
    double WorkJitter = RunRng.lognormalFactor(0.008);
    Phase.Activities *= WorkJitter;
    Phase.TimeSec =
        kernelTimeSeconds(Base.Kind, static_cast<double>(Base.Size), Plat) *
        RunRng.lognormalFactor(0.01);
    Phase.ContextIntensity =
        Spec.ContextIntensity * RunRng.lognormalFactor(0.05);
    // With the DVFS model on, the achieved clock also wanders run to
    // run (thermal state, turbo bins): unhalted-cycle counts pick up
    // variance that no other counter and no energy component shares.
    if (Plat.DvfsEnabled)
      Phase.Activities[ActivityKind::CoreCycles] *=
          RunRng.lognormalFactor(0.10);

    // Energy carries additional run-to-run variance no counter observes
    // (thermal state, voltage, fan). Kept at ~3% so serial-composition
    // energy additivity — the paper's premise — still holds within the
    // 5% tolerance, while models face some irreducible error.
    Exec.TrueDynamicEnergyJ += Energy.dynamicEnergyJoules(Phase.Activities) *
                               RunRng.lognormalFactor(0.03);
    Exec.Phases.push_back(std::move(Phase));
  }

  // Phase-transition overhead: ~0.1% of the smaller neighbour's energy
  // per boundary. Real but far below the 5% additivity tolerance — the
  // paper's premise that dynamic energy composes additively holds.
  for (size_t I = 1; I < Exec.Phases.size(); ++I) {
    double Smaller =
        std::min(Energy.dynamicEnergyJoules(Exec.Phases[I - 1].Activities),
                 Energy.dynamicEnergyJoules(Exec.Phases[I].Activities));
    Exec.TrueDynamicEnergyJ += 0.001 * Smaller;
  }
  return Exec;
}

Execution Machine::run(const CompoundApplication &App) {
  return runWithSeed(App, MachineRng.fork(++RunCounter).next());
}

std::vector<uint64_t> Machine::forkRunSeeds(size_t NumRuns) {
  std::vector<uint64_t> Seeds;
  Seeds.reserve(NumRuns);
  for (size_t I = 0; I < NumRuns; ++I)
    Seeds.push_back(MachineRng.fork(++RunCounter).next());
  return Seeds;
}

std::vector<Execution> Machine::runBatch(const CompoundApplication &App,
                                         size_t NumRuns) {
  std::vector<uint64_t> Seeds = forkRunSeeds(NumRuns);
  std::vector<Execution> Execs(NumRuns);
  parallelFor(0, NumRuns, 1, [&](size_t I) {
    Execs[I] = runWithSeed(App, Seeds[I]);
  });
  return Execs;
}

namespace {
/// Lognormal sigma of the per-window power-meter sample in runTrace.
/// Matches the ~3% unobserved energy variance of whole runs, so windowed
/// power telemetry is exactly as trustworthy per sample as the WattsUp
/// trace the offline pipeline consumes.
constexpr double TracePowerNoiseSigma = 0.03;

/// \returns the event's count before context and noise over \p Act: the
/// model's weighted activity sum, accumulated in Coeffs order (summing in
/// any other order would change the floating-point result).
double baseCount(const SynthesisModel &Model, const ActivityVector &Act) {
  double Base = 0;
  for (const ActivityTerm &Term : Model.Coeffs)
    Base += Term.Weight * Act[Term.Kind];
  return Base;
}

/// The per-event tail of the synthesis formula (pmc::SynthesisModel),
/// shared by whole-run and windowed reads: the context share of
/// \p ContextSum inflated per phase boundary, the floor scaled by
/// \p TimeShare (1 for a whole run), and observation noise. \p EventRng
/// draws the context jitter, the floor jitter (only when a floor exists)
/// and the noise, in that order.
double observedCount(const SynthesisModel &Model, double Base,
                     double ContextSum, double Boundaries, double TimeShare,
                     Rng &EventRng) {
  const double Context = Model.NaFraction * ContextSum *
                         (1.0 + Model.NaBoundaryBeta * Boundaries) *
                         EventRng.lognormalFactor(Model.NaJitterSigma);
  double Floor = Model.ContextFloor * TimeShare;
  if (Floor > 0)
    Floor *= EventRng.lognormalFactor(Model.NoiseSigma);
  const double Count =
      (Base + Context + Floor) * EventRng.lognormalFactor(Model.NoiseSigma);
  return std::max(Count, 0.0);
}
} // namespace

ExecutionTrace Machine::runTrace(const CompoundApplication &App,
                                 uint64_t RunSeed, size_t WindowCount) const {
  assert(WindowCount >= 1 && "a trace needs at least one window");
  ExecutionTrace Trace;
  Trace.Exec = runWithSeed(App, RunSeed);

  const size_t NumPhases = Trace.Exec.Phases.size();
  std::vector<double> PhaseEnd(NumPhases);
  double Total = 0;
  for (size_t P = 0; P < NumPhases; ++P) {
    Total += Trace.Exec.Phases[P].TimeSec;
    PhaseEnd[P] = Total;
  }
  const double Dt = Total / static_cast<double>(WindowCount);

  // Every window is a pure function of (RunSeed, window index): activity
  // shares come from the fixed phase timeline, and the power sample's
  // noise is drawn from a fork tagged by the index alone. Windows
  // therefore synthesize in parallel, bit-identical at any thread count,
  // and window W's draw stream does not change when the trace is cut into
  // more or fewer windows.
  Trace.Windows.resize(WindowCount);
  const Rng SeedRng = Rng(RunSeed).fork("trace");
  parallelFor(0, WindowCount, 16, [&](size_t W) {
    TraceWindow &Win = Trace.Windows[W];
    Win.StartSec = static_cast<double>(W) * Dt;
    // The last window absorbs the division rounding so the windows
    // partition [0, Total) exactly.
    const double End =
        W + 1 == WindowCount ? Total : static_cast<double>(W + 1) * Dt;
    Win.DtSec = End - Win.StartSec;

    double IntensitySum = 0;
    bool AnyPhase = false;
    for (size_t P = 0; P < NumPhases; ++P) {
      const double P0 = P == 0 ? 0.0 : PhaseEnd[P - 1];
      const double P1 = PhaseEnd[P];
      const double Overlap =
          std::min(End, P1) - std::max(Win.StartSec, P0);
      if (Overlap <= 0)
        continue;
      if (!AnyPhase)
        Win.FirstPhase = static_cast<uint32_t>(P);
      Win.LastPhase = static_cast<uint32_t>(P);
      AnyPhase = true;
      const ExecutionPhase &Phase = Trace.Exec.Phases[P];
      const double Share = Overlap / Phase.TimeSec;
      for (size_t K = 0; K < pmc::NumActivityKinds; ++K)
        Win.Activities.at(K) += Share * Phase.Activities.at(K);
      IntensitySum += Overlap * Phase.ContextIntensity;
    }
    Win.ContextIntensity = Win.DtSec > 0 ? IntensitySum / Win.DtSec : 0;

    // The meter sample: true window power under lognormal noise, drawn
    // from fork(W + 1) so the jitter stream is a pure function of the
    // window index (window-count and thread-count invariant).
    Rng WindowRng = SeedRng.fork(W + 1);
    const double TrueWindowJ = Energy.dynamicEnergyJoules(Win.Activities);
    Win.PowerW = Win.DtSec > 0
                     ? (TrueWindowJ / Win.DtSec) *
                           WindowRng.lognormalFactor(TracePowerNoiseSigma)
                     : 0;
  });
  return Trace;
}

void Machine::readCountersWindow(const EventId *Ids, size_t NumIds,
                                 const ExecutionTrace &Trace, size_t W,
                                 double *Out) const {
  assert(W < Trace.windowCount() && "window index out of range");
  ScopedPhase Timer(Phase::Synth);
  const TraceWindow &Win = Trace.Windows[W];
  const double TotalTime = Trace.Exec.totalTimeSec();
  const double TimeShare = TotalTime > 0 ? Win.DtSec / TotalTime : 0;
  const double Boundaries =
      static_cast<double>(Win.LastPhase - Win.FirstPhase);
  // A fork tagged (window, event): reading the same window twice gives one
  // value, and cutting the trace into a different window count leaves
  // window W's stream untouched.
  const Rng WindowRng = Rng(Trace.Exec.RunSeed).fork("tracewin").fork(W + 1);

  for (size_t I = 0; I < NumIds; ++I) {
    const SynthesisModel &Model = Registry.event(Ids[I]).Model;
    Rng EventRng = WindowRng.fork(static_cast<uint64_t>(Ids[I]) + 1);
    const double Base = baseCount(Model, Win.Activities);
    const double ContextSum =
        Base * std::max(Win.ContextIntensity, Model.IntensityFloor);
    Out[I] = observedCount(Model, Base, ContextSum, Boundaries, TimeShare,
                           EventRng);
  }
}

std::vector<double>
Machine::readCountersWindow(const std::vector<EventId> &Ids,
                            const ExecutionTrace &Trace, size_t W) const {
  std::vector<double> Counts(Ids.size());
  readCountersWindow(Ids.data(), Ids.size(), Trace, W, Counts.data());
  return Counts;
}

double Machine::readCounter(EventId Id, const Execution &Exec) const {
  double Count;
  readCounters(&Id, 1, Exec, &Count);
  return Count;
}

std::vector<double> Machine::readCounters(const std::vector<EventId> &Ids,
                                          const Execution &Exec) const {
  std::vector<double> Counts(Ids.size());
  readCounters(Ids.data(), Ids.size(), Exec, Counts.data());
  return Counts;
}

void Machine::readCounters(const EventId *Ids, size_t NumIds,
                           const Execution &Exec, double *Out) const {
  assert(!Exec.Phases.empty() && "reading counters without an execution");
  ScopedPhase Timer(Phase::Synth);
  // fork() is const, so one seed generator serves every event.
  const Rng SeedRng(Exec.RunSeed);
  const double Boundaries = static_cast<double>(Exec.Phases.size()) - 1.0;

  for (size_t I = 0; I < NumIds; ++I) {
    const SynthesisModel &Model = Registry.event(Ids[I]).Model;
    // Forked ahead of the phase sums and passed by reference: copying the
    // just-forked generator into a by-value argument made
    // BM_ReadCountersBatch about a quarter slower.
    Rng EventRng = SeedRng.fork(static_cast<uint64_t>(Ids[I]) + 1);
    double BaseTotal = 0;
    double ContextSum = 0;
    for (const ExecutionPhase &Phase : Exec.Phases) {
      const double Base = baseCount(Model, Phase.Activities);
      BaseTotal += Base;
      ContextSum +=
          Base * std::max(Phase.ContextIntensity, Model.IntensityFloor);
    }
    Out[I] = observedCount(Model, BaseTotal, ContextSum, Boundaries,
                           /*TimeShare=*/1.0, EventRng);
  }
}
