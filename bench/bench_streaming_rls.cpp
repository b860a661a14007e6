//===- bench/bench_streaming_rls.cpp - Streaming telemetry + online RLS ---------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// The streaming (Class E) telemetry pipeline in isolation, upstream of
// the serving engine:
//
//   1. Windowed PMU multiplexing: sim::Machine::runTrace slices a run
//      into time windows, MultiplexedProfiler::collectWindowed rotates
//      the scheduler's groups across them round-robin (perf-style) and
//      reconstructs whole-run totals by occupancy-weighted
//      extrapolation. The table scores the reconstruction against clean
//      dedicated-run counts.
//
//   2. Online model maintenance: a recursive-least-squares model absorbs
//      a labeled fleet stream one observation at a time (O(F^2)
//      Sherman-Morrison updates, no history) while the reference path
//      re-solves the full batch fit over the accumulated stream at every
//      epoch (O(N*F^2)). Both paths solve the same ridge system, so
//      their coefficients agree to solver precision; the --bench-json
//      rls_update_ms / refit_ms counters quantify the asymptotic gap the
//      serving engine's online-retrain CI gate is built on.
//
// Tables on stdout are deterministic (timing lives only in the JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/FleetTrace.h"
#include "core/MultiplexedProfiler.h"
#include "ml/RlsLinearRegression.h"
#include "sim/TestSuite.h"
#include "stats/Descriptive.h"

#include <cmath>
#include <cstdio>

using namespace slope;
using namespace slope::core;
using namespace slope::pmc;
using namespace slope::sim;

namespace {

/// Windowed-multiplexing reconstruction accuracy against dedicated runs.
void windowedTelemetry(size_t Windows) {
  Machine M(Platform::intelHaswellServer(), 77);
  std::vector<EventId> Events;
  for (EventId Id : M.registry().allEvents()) {
    if (!M.registry().event(Id).Model.Coeffs.empty())
      Events.push_back(Id);
    if (Events.size() == 12)
      break;
  }

  MultiplexedProfiler Mux(M);
  const size_t Groups = *Mux.numGroups(Events);
  CompoundApplication App(Application(KernelKind::MklDgemm, 12000));

  Expected<WindowedProfileResult> Windowed = [&] {
    bench::ScopedTimer Timer("windowed_collect");
    return Mux.collectWindowed(App, Events, Windows, /*Repetitions=*/4);
  }();
  if (!Windowed) {
    std::fprintf(stderr, "error: %s\n", Windowed.error().message().c_str());
    return;
  }

  // Clean reference: dedicated whole-run counts averaged over fresh runs
  // (run-to-run variation is part of the baseline, as in
  // bench_multiplexing).
  std::vector<double> Reference(Events.size(), 0.0);
  const unsigned RefRuns = 4;
  for (unsigned Rep = 0; Rep < RefRuns; ++Rep) {
    Execution Ref = M.run(App);
    for (size_t I = 0; I < Events.size(); ++I)
      Reference[I] += M.readCounter(Events[I], Ref) / RefRuns;
  }

  TablePrinter T({"Event", "Occupancy (%)", "Windowed total",
                  "Dedicated mean", "Rel err (%)"});
  T.setCaption("Windowed multiplexing (" + std::to_string(Windows) +
               " windows, " + std::to_string(Groups) +
               " groups rotated round-robin, 4 repetitions) vs dedicated "
               "whole-run collection (DGEMM N=12000).");
  std::vector<double> RelErrPct;
  for (size_t I = 0; I < Events.size(); ++I) {
    const double Rec = Windowed->Profile.Counts[I];
    const double Ref = Reference[I];
    const double Err = Ref > 0 ? std::fabs(Rec - Ref) / Ref * 100 : 0;
    RelErrPct.push_back(Err);
    T.addRow({M.registry().event(Events[I]).Name,
              str::fixed(Windowed->Occupancy[I] * 100, 1),
              str::scientific(Rec), str::scientific(Ref),
              str::fixed(Err, 2)});
  }
  std::printf("%s\n", T.render().c_str());

  bench::extraJsonNumbers().emplace_back("mux_windows",
                                         static_cast<double>(Windows));
  bench::extraJsonNumbers().emplace_back("mux_groups",
                                         static_cast<double>(Groups));
  bench::extraJsonNumbers().emplace_back("mux_windowed_mean_rel_err_pct",
                                         stats::mean(RelErrPct));
}

/// O(F^2) RLS updates vs the O(N*F^2) full-refit reference on a labeled
/// fleet stream.
void streamingFit(size_t Observations, size_t EpochSize) {
  Machine M(Platform::intelSkylakeServer(), 43);
  std::vector<EventId> Events;
  for (const std::string &Name :
       {skylakePaNames()[0], skylakePaNames()[1], skylakePaNames()[3],
        skylakePaNames()[7]})
    Events.push_back(*M.registry().lookup(Name));
  std::vector<CompoundApplication> Apps;
  for (const Application &App : diverseBaseSuite(M.platform(), 8, Rng(5)))
    Apps.emplace_back(App);

  FleetTraceConfig TraceConfig;
  TraceConfig.NumObservations = Observations;
  TraceConfig.NumTenants = 64;
  TraceConfig.DriftMax = 0.2;
  Expected<FleetTrace> Trace = [&] {
    bench::ScopedTimer Timer("stream_synth");
    return FleetTrace::synthesize(M, Events, Apps, TraceConfig);
  }();
  if (!Trace) {
    std::fprintf(stderr, "error: %s\n", Trace.error().message().c_str());
    return;
  }

  // Seed both paths from the identical head of the stream.
  std::vector<std::string> FeatureNames;
  for (size_t F = 0; F < Trace->width(); ++F)
    FeatureNames.push_back("pmc" + std::to_string(F));
  ml::Dataset History(FeatureNames);
  const size_t SeedRows = std::min<size_t>(4096, Trace->size());
  for (size_t I = 0; I < SeedRows; ++I)
    History.addRow(Trace->features(I), Trace->label(I));

  ml::RlsLinearRegression Streaming, Reference;
  if (!Streaming.fit(History) || !Reference.fit(History)) {
    std::fprintf(stderr, "error: streaming seed fit failed\n");
    return;
  }

  // Stream the remainder in epochs: the RLS side folds each observation
  // in as it arrives; the reference side re-solves over everything seen
  // so far at each epoch boundary.
  size_t Epochs = 0;
  for (size_t Begin = SeedRows; Begin < Trace->size(); Begin += EpochSize) {
    const size_t End = std::min(Trace->size(), Begin + EpochSize);
    {
      ScopedPhase Timer(Phase::RlsUpdate);
      for (size_t I = Begin; I < End; ++I)
        Streaming.update(Trace->features(I), Trace->label(I));
    }
    {
      ScopedPhase Timer(Phase::Refit);
      for (size_t I = Begin; I < End; ++I)
        History.addRow(Trace->features(I), Trace->label(I));
      if (auto Refitted = Reference.fit(History); !Refitted) {
        std::fprintf(stderr, "error: %s\n",
                     Refitted.error().message().c_str());
        return;
      }
    }
    ++Epochs;
  }

  // Agreement: both maintain the same ridge system, so coefficients and
  // predictions must match far inside the 1e-8 property-test tolerance.
  double CoefRel = 0;
  for (size_t C = 0; C < Streaming.coefficients().size(); ++C) {
    const double A = Reference.coefficients()[C];
    const double B = Streaming.coefficients()[C];
    if (A != 0)
      CoefRel = std::max(CoefRel, std::fabs(B - A) / std::fabs(A));
  }

  TablePrinter T({"Path", "Cost model", "Observations", "Coefficients"});
  T.setCaption("Online maintenance after " + std::to_string(Epochs) +
               " epochs of " + std::to_string(EpochSize) +
               " observations (seed " + std::to_string(SeedRows) + ").");
  auto CoeffCell = [](const ml::RlsLinearRegression &Model) {
    std::vector<std::string> Cells;
    for (double C : Model.coefficients())
      Cells.push_back(str::scientific(C));
    return str::join(Cells, ", ");
  };
  T.addRow({"RLS (Sherman-Morrison)", "O(F^2) per observation",
            std::to_string(Streaming.observations()), CoeffCell(Streaming)});
  T.addRow({"Full refit (reference)", "O(N*F^2) per epoch",
            std::to_string(Reference.observations()), CoeffCell(Reference)});
  std::printf("%s\n", T.render().c_str());
  std::printf("Max relative coefficient difference: %s (property-test "
              "bound 1e-8).\n",
              str::scientific(CoefRel).c_str());

  bench::extraJsonNumbers().emplace_back(
      "stream_observations", static_cast<double>(Trace->size()));
  bench::extraJsonNumbers().emplace_back("stream_epochs",
                                         static_cast<double>(Epochs));
  bench::extraJsonNumbers().emplace_back("rls_vs_refit_coef_rel", CoefRel);
}

} // namespace

int main(int Argc, char **Argv) {
  size_t Windows = 240;
  size_t Observations = 131072;
  size_t EpochSize = 4096;
  bench::parseArgs(Argc, Argv,
                   {bench::countFlag("--windows", Windows),
                    bench::countFlag("--observations", Observations),
                    bench::countFlag("--epoch-size", EpochSize)});

  bench::banner("Streaming telemetry and online RLS maintenance");
  windowedTelemetry(Windows);
  streamingFit(Observations, EpochSize);
  bench::writeBenchJson("streaming_rls");
  return 0;
}
