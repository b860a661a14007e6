//===- bench/BenchCommon.h - Shared bench-harness helpers -------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table-reproduction binaries: full paper-scale
/// experiment configurations and measured-vs-paper table rendering.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_BENCH_BENCHCOMMON_H
#define SLOPE_BENCH_BENCHCOMMON_H

#include "PaperReference.h"

#include "core/Experiments.h"
#include "core/Report.h"
#include "ml/DecisionTree.h"
#include "ml/NeuralNetwork.h"
#include "ml/QuantizedModel.h"
#include "ml/RlsLinearRegression.h"
#include "pmc/PlatformEvents.h"
#include "sim/Machine.h"
#include "stats/SimdKernels.h"
#include "support/PhaseTimers.h"
#include "support/Str.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace bench {

/// Output path for the machine-readable timing summary; empty (the
/// default) disables JSON emission entirely.
inline std::string &benchJsonPath() {
  static std::string Path;
  return Path;
}

/// Value of --sweep-repeat (default 1); benches that support repetition
/// forward it into their experiment config.
inline unsigned &sweepRepeatFlag() {
  static unsigned Repeat = 1;
  return Repeat;
}

/// Value of --profile-repeat (default 1); benches that support it forward
/// the count into their experiment config to amplify the profiling
/// campaign for perf gates (extra passes are discarded, output unchanged).
inline unsigned &profileRepeatFlag() {
  static unsigned Repeat = 1;
  return Repeat;
}

/// Thread count requested on the command line (0 = pool default);
/// recorded for the JSON summary.
inline unsigned &requestedThreads() {
  static unsigned Threads = 0;
  return Threads;
}

/// One shared bench flag, accepted as `--flag V` or `--flag=V`.
struct SharedFlag {
  const char *Name;
  const char *Accepted; ///< Names the accepted values in the error.
  /// Applies \p Value; \returns false when the value is not accepted.
  bool (*Apply)(const std::string &Value);
};

/// \returns \p Value as an unsigned decimal count, or -1 when it is not
/// one (empty, signed, non-digit, or more than nine digits).
inline long long parseCount(const std::string &Value) {
  if (Value.empty() || Value.size() > 9 ||
      Value.find_first_not_of("0123456789") != std::string::npos)
    return -1;
  return std::stoll(Value);
}

/// Applies \p Value to the first of \p Choices whose name it equals;
/// \returns false when none does.
template <typename T, size_t N>
bool applyChoice(const std::string &Value,
                 const std::pair<const char *, T> (&Choices)[N],
                 void (*Set)(T)) {
  for (const auto &[Name, Choice] : Choices)
    if (Value == Name) {
      Set(Choice);
      return true;
    }
  return false;
}

/// The shared bench flags, each declared once. `--threads N` (or the
/// SLOPE_THREADS environment variable) sizes the global experiment thread
/// pool, 0 meaning automatic; parallel results are bit-identical at any
/// setting, so the knob trades wall clock only. `--tree-algo`, `--nn-algo`
/// and `--synth-algo` select between the bit-identical naive reference
/// and fast kernels of tree growth, neural-network training and counter
/// synthesis (perf gates compare the two sides). `--infer-algo
/// fp|quantized` (or SLOPE_INFER_ALGO) selects the inference kernel
/// core/ModelZoo and core/OnlineEstimator serve; quantized exists for LR
/// and identity-transfer NNs only (other families are a build error).
/// Unlike the bit-neutral switches it changes numerics within
/// ml/QuantizedModel's documented error bound, so the CI gate checks
/// speedup and tolerance together. `--fit-algo rls|refit`
/// (or SLOPE_FIT_ALGO) selects the online-model maintenance path
/// (O(F^2) Sherman-Morrison updates vs the O(N*F^2) full-refit
/// reference); like --infer-algo it is tolerance-gated, not
/// bit-identical — see ml/RlsLinearRegression.h. `--simd
/// auto|avx2|scalar` (or SLOPE_SIMD) selects the SIMD kernel variant:
/// auto (the default) enables only the bit-identical column-parallel
/// AVX2 kernels, avx2 additionally opts into the reassociating K-split
/// kernels, scalar forces the reference — see stats/SimdKernels.h.
/// `--bench-json PATH` (or SLOPE_BENCH_JSON) writes a machine-readable
/// timing summary to PATH without changing anything on stdout.
/// `--sweep-repeat N` repeats the model sweep in benches that support it;
/// `--profile-repeat N` likewise repeats the profiling campaign (extra
/// passes discarded).
inline const std::vector<SharedFlag> &sharedFlags() {
  using namespace slope;
  static const std::vector<SharedFlag> Flags = {
      {"--threads", "a count; 0 = automatic",
       [](const std::string &V) {
         long long N = parseCount(V);
         if (N < 0)
           return false;
         requestedThreads() = static_cast<unsigned>(N);
         ThreadPool::setGlobalThreadCount(requestedThreads());
         return true;
       }},
      {"--tree-algo", "naive, presorted",
       [](const std::string &V) {
         static const std::pair<const char *, ml::TreeAlgorithm> C[] = {
             {"naive", ml::TreeAlgorithm::Naive},
             {"presorted", ml::TreeAlgorithm::Presorted}};
         return applyChoice(V, C, ml::setDefaultTreeAlgorithm);
       }},
      {"--nn-algo", "naive, batched",
       [](const std::string &V) {
         static const std::pair<const char *, ml::NnAlgorithm> C[] = {
             {"naive", ml::NnAlgorithm::Naive},
             {"batched", ml::NnAlgorithm::Batched}};
         return applyChoice(V, C, ml::setDefaultNnAlgorithm);
       }},
      {"--synth-algo", "naive, batched",
       [](const std::string &V) {
         static const std::pair<const char *, sim::SynthAlgorithm> C[] = {
             {"naive", sim::SynthAlgorithm::Naive},
             {"batched", sim::SynthAlgorithm::Batched}};
         return applyChoice(V, C, sim::setDefaultSynthAlgorithm);
       }},
      {"--infer-algo", "fp, quantized",
       [](const std::string &V) {
         static const std::pair<const char *, ml::InferenceAlgorithm> C[] = {
             {"fp", ml::InferenceAlgorithm::Fp},
             {"quantized", ml::InferenceAlgorithm::Quantized}};
         return applyChoice(V, C, ml::setDefaultInferenceAlgorithm);
       }},
      {"--fit-algo", "rls, refit",
       [](const std::string &V) {
         static const std::pair<const char *, ml::FitAlgorithm> C[] = {
             {"rls", ml::FitAlgorithm::Rls},
             {"refit", ml::FitAlgorithm::Refit}};
         return applyChoice(V, C, ml::setDefaultFitAlgorithm);
       }},
      {"--simd", "auto, avx2, scalar",
       [](const std::string &V) {
         static const std::pair<const char *, stats::SimdMode> C[] = {
             {"auto", stats::SimdMode::Auto},
             {"avx2", stats::SimdMode::Avx2},
             {"scalar", stats::SimdMode::Scalar}};
         return applyChoice(V, C, stats::setDefaultSimdMode);
       }},
      {"--bench-json", "a file path",
       [](const std::string &V) {
         benchJsonPath() = V;
         return !V.empty();
       }},
      {"--sweep-repeat", "a count of at least 1",
       [](const std::string &V) {
         long long N = parseCount(V);
         if (N < 1)
           return false;
         sweepRepeatFlag() = static_cast<unsigned>(N);
         return true;
       }},
      {"--profile-repeat", "a count of at least 1",
       [](const std::string &V) {
         long long N = parseCount(V);
         if (N < 1)
           return false;
         profileRepeatFlag() = static_cast<unsigned>(N);
         return true;
       }},
  };
  return Flags;
}

/// Parses the shared bench flags (see sharedFlags) and \returns the
/// remaining positional arguments. A value a flag does not accept, or a
/// flag without its value, exits with status 2 and an error naming the
/// accepted values, before the program prints anything. google-benchmark
/// style `--benchmark_*` flags are accepted and ignored so CI can pass
/// one command line to every bench binary.
inline std::vector<std::string> parseArgs(int Argc, char **Argv) {
  if (const char *Env = std::getenv("SLOPE_BENCH_JSON"))
    benchJsonPath() = Env;
  std::vector<std::string> Positional;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const SharedFlag *Matched = nullptr;
    std::string Value;
    for (const SharedFlag &Flag : sharedFlags()) {
      const size_t Len = std::strlen(Flag.Name);
      if (Arg == Flag.Name) {
        if (I + 1 == Argc) {
          std::fprintf(stderr, "error: %s needs a value (accepted: %s)\n",
                       Flag.Name, Flag.Accepted);
          std::exit(2);
        }
        Matched = &Flag;
        Value = Argv[++I];
      } else if (Arg.compare(0, Len, Flag.Name) == 0 && Arg.size() > Len &&
                 Arg[Len] == '=') {
        Matched = &Flag;
        Value = Arg.substr(Len + 1);
      }
      if (Matched)
        break;
    }
    if (Matched) {
      if (!Matched->Apply(Value)) {
        std::fprintf(stderr, "error: unknown %s '%s' (accepted: %s)\n",
                     Matched->Name, Value.c_str(), Matched->Accepted);
        std::exit(2);
      }
    } else if (Arg.rfind("--benchmark_", 0) != 0) {
      // --benchmark_* is ignored: lets the CI smoke step pass
      // google-benchmark flags to table binaries that render directly.
      Positional.push_back(std::move(Arg));
    }
  }
  return Positional;
}

/// Named wall-clock sections recorded for the JSON summary.
inline std::vector<std::pair<std::string, double>> &timedSections() {
  static std::vector<std::pair<std::string, double>> Sections;
  return Sections;
}

/// Extra bench-specific numeric fields appended to the JSON summary
/// (e.g. the serving driver's predictions_per_sec and latency
/// percentiles). Keys must be unique and JSON-safe.
inline std::vector<std::pair<std::string, double>> &extraJsonNumbers() {
  static std::vector<std::pair<std::string, double>> Extras;
  return Extras;
}

/// Records the wall time of one named scope into timedSections().
class ScopedTimer {
public:
  explicit ScopedTimer(std::string Name)
      : Name(std::move(Name)), Start(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    timedSections().emplace_back(std::move(Name), Ms);
  }

private:
  std::string Name;
  std::chrono::steady_clock::time_point Start;
};

/// Writes the BENCH_*.json timing summary for \p BenchName if JSON output
/// was requested (--bench-json / SLOPE_BENCH_JSON); stdout is untouched
/// either way, so table output stays byte-identical.
inline void writeBenchJson(const char *BenchName) {
  const std::string &Path = benchJsonPath();
  if (Path.empty())
    return;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write bench JSON to %s\n",
                 Path.c_str());
    return;
  }
  double TotalMs = 0;
  for (const auto &[Name, Ms] : timedSections())
    TotalMs += Ms;
  std::fprintf(F, "{\n  \"bench\": \"%s\",\n  \"threads\": %u,\n", BenchName,
               requestedThreads());
  std::fprintf(F, "  \"tree_algo\": \"%s\",\n",
               slope::ml::defaultTreeAlgorithm() ==
                       slope::ml::TreeAlgorithm::Naive
                   ? "naive"
                   : "presorted");
  std::fprintf(F, "  \"nn_algo\": \"%s\",\n",
               slope::ml::defaultNnAlgorithm() == slope::ml::NnAlgorithm::Naive
                   ? "naive"
                   : "batched");
  std::fprintf(F, "  \"synth_algo\": \"%s\",\n",
               slope::sim::defaultSynthAlgorithm() ==
                       slope::sim::SynthAlgorithm::Naive
                   ? "naive"
                   : "batched");
  std::fprintf(F, "  \"infer_algo\": \"%s\",\n",
               slope::ml::defaultInferenceAlgorithm() ==
                       slope::ml::InferenceAlgorithm::Quantized
                   ? "quantized"
                   : "fp");
  std::fprintf(F, "  \"fit_algo\": \"%s\",\n",
               slope::ml::defaultFitAlgorithm() ==
                       slope::ml::FitAlgorithm::Refit
                   ? "refit"
                   : "rls");
  // The *resolved* variant the column-parallel kernels actually ran with
  // on this host (auto resolves to "avx2" or "scalar" here), so archived
  // JSON records what executed rather than what was requested.
  std::fprintf(F, "  \"simd\": \"%s\",\n",
               slope::stats::resolvedSimdVariant());
  std::fprintf(F, "  \"sweep_repeat\": %u,\n", sweepRepeatFlag());
  std::fprintf(F, "  \"profile_repeat\": %u,\n", profileRepeatFlag());
  std::fprintf(F, "  \"sections\": [\n");
  for (size_t I = 0; I < timedSections().size(); ++I) {
    const auto &[Name, Ms] = timedSections()[I];
    std::fprintf(F, "    {\"name\": \"%s\", \"ms\": %.3f}%s\n", Name.c_str(),
                 Ms, I + 1 < timedSections().size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  // Phase counters isolate instrumented kernels (e.g. forest tree
  // training) from the fixed simulator/OOB/evaluation cost that both
  // growth algorithms share, so CI can gate on the kernel alone.
  std::fprintf(F, "  \"tree_fit_ms\": %.3f,\n",
               static_cast<double>(
                   slope::phaseTotalNs(slope::Phase::ForestTreeFit)) /
                   1e6);
  std::fprintf(F, "  \"nn_fit_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::NnFit)) /
                   1e6);
  // profile_ms is charged at campaign level on the calling thread (wall
  // clock), so a parallel campaign reports a smaller number — the CI
  // speedup gate compares exactly this. synth_ms is summed across all
  // threads' readCountersBatch scopes (kernel CPU time).
  std::fprintf(F, "  \"profile_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::Profile)) /
                   1e6);
  std::fprintf(F, "  \"synth_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::Synth)) /
                   1e6);
  // serve_ms is the ServingEngine replay wall clock on the calling
  // thread (ingest + shard epochs + folds); the CI serving gate compares
  // exactly this across thread counts.
  std::fprintf(F, "  \"serve_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::Serve)) /
                   1e6);
  // Disjoint sub-slices of serve_ms: row staging/ingest vs epoch folds
  // (partition, shard inference, publish, online retrain).
  std::fprintf(
      F, "  \"ingest_ms\": %.3f,\n",
      static_cast<double>(slope::phaseTotalNs(slope::Phase::ServeIngest)) /
          1e6);
  std::fprintf(
      F, "  \"fold_ms\": %.3f,\n",
      static_cast<double>(slope::phaseTotalNs(slope::Phase::ServeFold)) / 1e6);
  // The online-retrain pair the streaming CI gate compares: O(F^2)
  // incremental updates vs the O(N*F^2) full-refit reference.
  std::fprintf(
      F, "  \"rls_update_ms\": %.3f,\n",
      static_cast<double>(slope::phaseTotalNs(slope::Phase::RlsUpdate)) / 1e6);
  std::fprintf(
      F, "  \"refit_ms\": %.3f,\n",
      static_cast<double>(slope::phaseTotalNs(slope::Phase::Refit)) / 1e6);
  for (const auto &[Key, Value] : extraJsonNumbers())
    std::fprintf(F, "  \"%s\": %.3f,\n", Key.c_str(), Value);
  std::fprintf(F, "  \"total_ms\": %.3f\n}\n", TotalMs);
  std::fclose(F);
}

/// The paper-scale Class A configuration (277 base apps, 50 compounds).
inline slope::core::ClassAConfig fullClassA() {
  return slope::core::ClassAConfig();
}

/// The paper-scale Class B/C configuration (801 points, 651/150 split).
inline slope::core::ClassBCConfig fullClassBC() {
  return slope::core::ClassBCConfig();
}

/// Renders one model family with the paper's numbers side by side.
inline std::string
renderFamilyComparison(const std::string &Caption,
                       const std::vector<slope::core::ModelEvalRow> &Rows,
                       const paper::ErrorTriple *Paper, bool WithCoeffs) {
  using slope::str::compact;
  using slope::str::join;
  using slope::str::scientific;
  std::vector<std::string> Headers = {"Model", "PMCs"};
  if (WithCoeffs)
    Headers.push_back("Coefficients");
  Headers.push_back("Reproduced (min, avg, max)");
  Headers.push_back("Paper (min, avg, max)");
  slope::TablePrinter T(Headers);
  T.setCaption(Caption);
  std::vector<std::string> Universe = slope::pmc::haswellClassAPmcNames();
  for (size_t I = 0; I < Rows.size(); ++I) {
    std::vector<std::string> Cells = {
        Rows[I].Label,
        slope::core::compactPmcList(Rows[I].Pmcs, Universe, 'X')};
    if (WithCoeffs) {
      std::vector<std::string> Coeffs;
      for (double C : Rows[I].Coefficients)
        Coeffs.push_back(scientific(C));
      Cells.push_back(join(Coeffs, ", "));
    }
    Cells.push_back(Rows[I].Errors.str());
    Cells.push_back("(" + compact(Paper[I].Min) + ", " +
                    compact(Paper[I].Avg) + ", " + compact(Paper[I].Max) +
                    ")");
    T.addRow(Cells);
  }
  return T.render();
}

/// Prints a short banner so concatenated bench output is navigable.
inline void banner(const char *Title) {
  std::printf("\n===== %s =====\n\n", Title);
}

} // namespace bench

#endif // SLOPE_BENCH_BENCHCOMMON_H
