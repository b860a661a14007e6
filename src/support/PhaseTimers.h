//===- support/PhaseTimers.h - Process-wide phase accumulators --*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cheap process-wide wall-clock accumulators for named hot phases. Library
/// code charges the duration of a scope to a fixed Phase slot (one atomic
/// add per scope, safe under parallelFor); bench drivers read the totals
/// into their BENCH_*.json summaries so CI perf gates can compare a kernel
/// in isolation from the fixed setup and evaluation work around it.
///
/// The counters are observational only: they never feed back into any
/// computation, so enabling or reading them cannot perturb results.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_SUPPORT_PHASETIMERS_H
#define SLOPE_SUPPORT_PHASETIMERS_H

#include <chrono>
#include <cstdint>

namespace slope {

/// Instrumented phases. Each names one hot kernel whose cumulative cost a
/// perf gate wants to see separately from its surrounding workload.
enum class Phase : unsigned {
  Profile,       ///< Profiling campaigns: DatasetBuilder::build and
                 ///< AdditivityChecker::checkAll, timed on the calling
                 ///< thread so the counter reflects wall clock (and thus
                 ///< credits parallel execution), never summed CPU time.
  Synth,         ///< Machine::readCounters counter synthesis.
  Serve,         ///< ServingEngine trace replay (ingest, shard epochs,
                 ///< folds), timed on the calling thread so the counter
                 ///< reflects wall clock and credits the per-shard
                 ///< fan-out.
  ServeIngest,   ///< ServingEngine replay ingest/staging slices (row
                 ///< buffering; on the quantized path also the inline
                 ///< batch inference). Disjoint from ServeFold; both are
                 ///< sub-slices of Serve.
  ServeFold,     ///< ServingEngine epoch folds (partition, shard epochs,
                 ///< publish, online retrain). Includes RlsUpdate/Refit
                 ///< when retraining is enabled.
  RlsUpdate,     ///< RlsLinearRegression::update calls made by the
                 ///< ServingEngine online-retrain path (O(F^2) per
                 ///< observation, epoch-size-independent).
  Refit,         ///< Full batch refits over the accumulated history (the
                 ///< O(N*F^2) reference the RLS path is gated against).
  NumPhases,
};

/// Adds \p Ns nanoseconds to phase \p P (thread-safe, relaxed order).
void phaseAccumulate(Phase P, uint64_t Ns);

/// \returns the cumulative nanoseconds charged to phase \p P so far.
uint64_t phaseTotalNs(Phase P);

/// Resets every phase counter to zero (tests and repeated measurements).
void phaseResetAll();

/// Charges the lifetime of the scope to one phase.
class ScopedPhase {
public:
  explicit ScopedPhase(Phase P)
      : P(P), Start(std::chrono::steady_clock::now()) {}
  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;
  ~ScopedPhase() {
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    phaseAccumulate(P, static_cast<uint64_t>(Ns));
  }

private:
  Phase P;
  std::chrono::steady_clock::time_point Start;
};

} // namespace slope

#endif // SLOPE_SUPPORT_PHASETIMERS_H
