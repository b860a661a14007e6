//===- tests/reference/ReferenceSynth.cpp - Per-event synthesis oracle ------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSynth.h"

#include <algorithm>
#include <cassert>

using namespace slope;
using namespace slope::pmc;
using namespace slope::sim;

double reference::readCounter(const Machine &M, EventId Id,
                              const Execution &Exec) {
  assert(!Exec.Phases.empty() && "reading a counter without an execution");
  const SynthesisModel &Model = M.registry().event(Id).Model;

  // The counter's observation noise is a pure function of (run, event):
  // reading the same counter twice against one run gives one value.
  Rng EventRng = Rng(Exec.RunSeed).fork(static_cast<uint64_t>(Id) + 1);

  double BaseTotal = 0;
  double ContextSum = 0;
  for (const ExecutionPhase &Phase : Exec.Phases) {
    double Base = 0;
    for (const ActivityTerm &Term : Model.Coeffs)
      Base += Term.Weight * Phase.Activities[Term.Kind];
    BaseTotal += Base;
    ContextSum +=
        Base * std::max(Phase.ContextIntensity, Model.IntensityFloor);
  }

  double Boundaries = static_cast<double>(Exec.Phases.size()) - 1.0;
  double Context = Model.NaFraction * ContextSum *
                   (1.0 + Model.NaBoundaryBeta * Boundaries) *
                   EventRng.lognormalFactor(Model.NaJitterSigma);

  double Floor = Model.ContextFloor;
  if (Floor > 0)
    Floor *= EventRng.lognormalFactor(Model.NoiseSigma);

  double Count = (BaseTotal + Context + Floor) *
                 EventRng.lognormalFactor(Model.NoiseSigma);
  return std::max(Count, 0.0);
}

double reference::readCounterWindow(const Machine &M, EventId Id,
                                    const ExecutionTrace &Trace, size_t W) {
  assert(W < Trace.windowCount() && "window index out of range");
  const SynthesisModel &Model = M.registry().event(Id).Model;
  const TraceWindow &Win = Trace.Windows[W];

  // A pure function of (run, window, event): the window's stream does not
  // depend on how many windows the trace was cut into.
  Rng EventRng = Rng(Trace.Exec.RunSeed)
                     .fork("tracewin")
                     .fork(static_cast<uint64_t>(W) + 1)
                     .fork(static_cast<uint64_t>(Id) + 1);

  double Base = 0;
  for (const ActivityTerm &Term : Model.Coeffs)
    Base += Term.Weight * Win.Activities[Term.Kind];

  double ContextSum =
      Base * std::max(Win.ContextIntensity, Model.IntensityFloor);
  double Boundaries = static_cast<double>(Win.LastPhase - Win.FirstPhase);
  double Context = Model.NaFraction * ContextSum *
                   (1.0 + Model.NaBoundaryBeta * Boundaries) *
                   EventRng.lognormalFactor(Model.NaJitterSigma);

  // The whole-run floor (a fixed overhead) falls on the window in
  // proportion to its time, so the deltas sum to about the run's count.
  double TotalTime = Trace.Exec.totalTimeSec();
  double TimeShare = TotalTime > 0 ? Win.DtSec / TotalTime : 0;
  double Floor = Model.ContextFloor * TimeShare;
  if (Floor > 0)
    Floor *= EventRng.lognormalFactor(Model.NoiseSigma);

  double Count =
      (Base + Context + Floor) * EventRng.lognormalFactor(Model.NoiseSigma);
  return std::max(Count, 0.0);
}
