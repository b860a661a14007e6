//===- tests/reference/ReferenceSynth.h - Per-event synthesis oracle -*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counter-synthesis formula of pmc::SynthesisModel, written a second
/// time straight off the machine's registry, one event at a time and apart
/// from sim::Machine's code: the oracle Machine::readCounters and
/// Machine::readCountersWindow must reproduce bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_TESTS_REFERENCE_REFERENCESYNTH_H
#define SLOPE_TESTS_REFERENCE_REFERENCESYNTH_H

#include "sim/Machine.h"

namespace slope {
namespace reference {

/// Synthesizes the observed count of \p Id for \p Exec on \p M through
/// M.registry().event(Id).Model: each phase's weighted activity sum in the
/// model's term order, phases in execution order, then the context,
/// floor and noise draws from Rng(Exec.RunSeed).fork(Id + 1).
double readCounter(const sim::Machine &M, pmc::EventId Id,
                   const sim::Execution &Exec);

/// Synthesizes the delta of \p Id over window \p W of \p Trace on \p M:
/// the model's weighted sum over the window's activity share, context
/// from the window's mean intensity and the phase boundaries it spans,
/// the whole-run floor scaled by the window's share of the run time, and
/// the context, floor and noise draws from
/// Rng(RunSeed).fork("tracewin").fork(W + 1).fork(Id + 1).
double readCounterWindow(const sim::Machine &M, pmc::EventId Id,
                         const sim::ExecutionTrace &Trace, size_t W);

} // namespace reference
} // namespace slope

#endif // SLOPE_TESTS_REFERENCE_REFERENCESYNTH_H
