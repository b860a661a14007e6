//===- tests/reference/ReferenceSynth.h - Per-event synthesis oracle -*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed per-event counter synthesis, kept as the oracle the plan
/// kernel of sim::Machine::readCounters must reproduce bit for bit: the
/// formula of pmc::SynthesisModel read straight off the machine's
/// registry, one event at a time.
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

} // namespace reference
} // namespace slope

#endif // SLOPE_TESTS_REFERENCE_REFERENCESYNTH_H
