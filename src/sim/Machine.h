//===- sim/Machine.h - Execution engine and PMC synthesis -------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated machine: runs (compound) applications, producing an
/// Execution with per-phase latent activities, timing, and ground-truth
/// dynamic energy; and synthesizes PMC readings for any event of the
/// platform's registry against a given Execution. Counter readings are a
/// deterministic function of (execution run seed, event id), so all the
/// events collected in one run observe one consistent execution context,
/// while repeated runs of the same application vary realistically.
/// Synthesis runs one kernel, readCounters, over a flattened term table;
/// its counts are bit-identical to the seed per-event formula, which
/// lives in tests/reference as the oracle the tests compare against.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_SIM_MACHINE_H
#define SLOPE_SIM_MACHINE_H

#include "pmc/CounterScheduler.h"
#include "sim/Application.h"
#include "sim/EnergyModel.h"
#include "support/Rng.h"

namespace slope {
namespace sim {

/// One executed phase of a run.
struct ExecutionPhase {
  Application App;
  pmc::ActivityVector Activities; ///< This run's actual latent counts.
  double TimeSec = 0;
  double ContextIntensity = 0;    ///< This run's context disturbance.
};

/// One completed (compound) application run.
struct Execution {
  std::vector<ExecutionPhase> Phases;
  uint64_t RunSeed = 0;          ///< Identifies this run's context.
  double TrueDynamicEnergyJ = 0; ///< Ground truth (not observable).

  /// \returns the sum of the phases' activity vectors.
  pmc::ActivityVector totalActivities() const;

  /// \returns total wall-clock seconds.
  double totalTimeSec() const;
};

/// One sampled time window of an execution trace: the slice of latent
/// activity falling inside [StartSec, StartSec + DtSec) plus a noisy
/// power-meter sample over the same interval.
struct TraceWindow {
  double StartSec = 0;
  double DtSec = 0;
  /// Latent activity attributed to the window (time-proportional share of
  /// every overlapping phase's activities). Summing all windows'
  /// activities recovers the run's totalActivities() up to rounding.
  pmc::ActivityVector Activities;
  /// Time-weighted mean context disturbance over the window.
  double ContextIntensity = 0;
  /// Sampled dynamic power (W): the energy model applied to the window's
  /// activities over DtSec, under per-window lognormal meter noise.
  double PowerW = 0;
  /// Phases overlapping the window, as [FirstPhase, LastPhase] indices
  /// into Exec.Phases (phase boundaries inside a window distort
  /// phase-varying counters; see readCountersWindow).
  uint32_t FirstPhase = 0;
  uint32_t LastPhase = 0;
};

/// A sampled per-window view of one execution: the streaming (Class E)
/// telemetry the per-run scalar pipeline cannot express. The underlying
/// Execution is bit-identical to runWithSeed() on the same seed — trace
/// mode observes a run, it never perturbs one.
struct ExecutionTrace {
  Execution Exec;
  std::vector<TraceWindow> Windows;

  size_t windowCount() const { return Windows.size(); }

  /// \returns the sampled dynamic energy (J) of window \p W.
  double windowEnergyJ(size_t W) const {
    return Windows[W].PowerW * Windows[W].DtSec;
  }
};

/// A simulated platform instance with its event registry and energy model.
class Machine {
public:
  /// Creates a machine for \p P; \p Seed fixes all stochastic behaviour.
  explicit Machine(Platform P, uint64_t Seed = 0xC0FFEE);

  const Platform &platform() const { return Plat; }
  const pmc::EventRegistry &registry() const { return Registry; }
  const EnergyModel &energyModel() const { return Energy; }

  /// Executes \p App once. Each call models a fresh process launch with
  /// new run-to-run variation.
  Execution run(const CompoundApplication &App);

  /// Convenience overload for a base application.
  Execution run(const Application &App) {
    return run(CompoundApplication(App));
  }

  /// Executes \p App against an explicit run seed. Pure: does not touch
  /// the machine's run counter, so pre-forked runs may execute
  /// concurrently. run() is exactly runWithSeed() on the next counter
  /// seed.
  Execution runWithSeed(const CompoundApplication &App,
                        uint64_t RunSeed) const;

  /// Draws the next \p NumRuns run seeds from the stateful run counter,
  /// in the order \p NumRuns successive run() calls would consume them.
  /// Forking serially and executing with runWithSeed() in parallel
  /// reproduces a serial scan bit for bit.
  std::vector<uint64_t> forkRunSeeds(size_t NumRuns);

  /// Executes \p App \p NumRuns times: seeds are forked serially, the
  /// runs execute in parallel on the global thread pool into disjoint
  /// slots. Bit-identical to \p NumRuns successive run() calls at any
  /// thread count.
  std::vector<Execution> runBatch(const CompoundApplication &App,
                                  size_t NumRuns);

  /// Executes \p App once against an explicit run seed and slices the run
  /// into \p WindowCount equal time windows with per-window activity
  /// shares and power samples (see ExecutionTrace). Pure like
  /// runWithSeed(): the embedded Execution is bit-identical to
  /// runWithSeed(App, RunSeed) at any WindowCount, and every per-window
  /// draw comes from a forked Rng tagged by the window index alone — so
  /// window W's noise stream is invariant under both the total window
  /// count and the thread count (the FleetTrace splittable-seeding
  /// contract). Asserts WindowCount >= 1.
  ExecutionTrace runTrace(const CompoundApplication &App, uint64_t RunSeed,
                          size_t WindowCount) const;

  /// Stateful convenience overload: draws the next run-counter seed, so
  /// runTrace(App, N) advances the machine exactly like run(App).
  ExecutionTrace runTrace(const CompoundApplication &App, size_t WindowCount) {
    return runTrace(App, MachineRng.fork(++RunCounter).next(), WindowCount);
  }

  /// Synthesizes the per-window PMC deltas of \p Ids for window \p W of
  /// \p Trace through the flattened SynthesisPlan term table: base counts
  /// from the window's activity share, context distortion from the
  /// window's mean intensity, whole-run floors pro-rated by DtSec, and
  /// observation noise drawn from a fork tagged (window, event) — a pure
  /// function of (RunSeed, W, Id), invariant under the trace's window
  /// count. Summing a counter's deltas over all windows tracks the
  /// whole-run readCounter() up to sampling noise.
  void readCountersWindow(const pmc::EventId *Ids, size_t NumIds,
                          const ExecutionTrace &Trace, size_t W,
                          double *Out) const;

  /// Allocating convenience wrapper over readCountersWindow.
  std::vector<double>
  readCountersWindow(const std::vector<pmc::EventId> &Ids,
                     const ExecutionTrace &Trace, size_t W) const;

  /// Synthesizes the observed count of \p Id for \p Exec (see
  /// pmc::SynthesisModel for the formula): readCounters() for one id.
  /// Deterministic per (Exec.RunSeed, Id).
  double readCounter(pmc::EventId Id, const Execution &Exec) const;

  /// Synthesizes every one of \p Ids against \p Exec in one pass. The
  /// RNG seed state and the execution's per-phase activity vectors are
  /// hoisted once, and each event streams its slice of a flattened
  /// machine-wide term table, keeping the registry's term order and the
  /// phase order — so every count is bit-identical to the seed per-event
  /// formula over the registry's SynthesisModel (tests/reference keeps it
  /// as the oracle). The caller is responsible for respecting PMU
  /// scheduling constraints (see pmc::planCollection); core::PmcProfiler
  /// does this.
  std::vector<double> readCounters(const std::vector<pmc::EventId> &Ids,
                                   const Execution &Exec) const;

  /// Allocation-free form of readCounters: writes \p NumIds counts to
  /// \p Out. Hot rep loops reuse one output buffer across calls.
  void readCounters(const pmc::EventId *Ids, size_t NumIds,
                    const Execution &Exec, double *Out) const;

private:
  /// Flattened, cache-contiguous copy of every event's SynthesisModel:
  /// one dense parameter entry per event plus a shared term table in the
  /// registry's original per-event term order (term order must be
  /// preserved — reassociating the weighted sums would change the
  /// floating-point result).
  struct SynthesisPlan {
    struct EventEntry {
      uint32_t TermBegin = 0;    ///< First index into TermKind/TermWeight.
      uint32_t TermEnd = 0;      ///< One past the last term.
      double NaFraction = 0;
      double NaBoundaryBeta = 0;
      double IntensityFloor = 0;
      double NaJitterSigma = 0;
      double ContextFloor = 0;
      double NoiseSigma = 0;
    };
    std::vector<EventEntry> Events; ///< Indexed by EventId.
    std::vector<uint32_t> TermKind; ///< ActivityKind per term.
    std::vector<double> TermWeight; ///< Weight per term.
  };

  void buildSynthesisPlan();

  Platform Plat;
  pmc::EventRegistry Registry;
  EnergyModel Energy;
  Rng MachineRng;
  uint64_t RunCounter = 0;
  SynthesisPlan Plan;
};

} // namespace sim
} // namespace slope

#endif // SLOPE_SIM_MACHINE_H
