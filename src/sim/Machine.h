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
/// Synthesis is the per-event formula of pmc::SynthesisModel, written once
/// here for whole runs and windows alike; tests/reference writes it a
/// second time as the oracle the tests compare against bit for bit.
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
  /// \p Trace through each event's SynthesisModel: base counts from the
  /// window's activity share, context distortion from the window's mean
  /// intensity, whole-run floors pro-rated by DtSec, and observation
  /// noise drawn from a fork tagged (window, event) — a pure function of
  /// (RunSeed, W, Id), invariant under the trace's window count. Summing
  /// a counter's deltas over all windows tracks the whole-run
  /// readCounter() up to sampling noise.
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

  /// Synthesizes every one of \p Ids against \p Exec: for each id, its
  /// SynthesisModel's weighted activity sum over the phases in execution
  /// order, then the context, floor and noise draws from the run seed's
  /// fork(Id + 1). The seed generator is built once per call. The caller
  /// is responsible for respecting PMU scheduling constraints (see
  /// pmc::planCollection); core::PmcProfiler does this.
  std::vector<double> readCounters(const std::vector<pmc::EventId> &Ids,
                                   const Execution &Exec) const;

  /// Allocation-free form of readCounters: writes \p NumIds counts to
  /// \p Out. Hot rep loops reuse one output buffer across calls.
  void readCounters(const pmc::EventId *Ids, size_t NumIds,
                    const Execution &Exec, double *Out) const;

private:
  Platform Plat;
  pmc::EventRegistry Registry;
  EnergyModel Energy;
  Rng MachineRng;
  uint64_t RunCounter = 0;
};

} // namespace sim
} // namespace slope

#endif // SLOPE_SIM_MACHINE_H
