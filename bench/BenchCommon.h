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
#include "ml/QuantizedModel.h"
#include "pmc/PlatformEvents.h"
#include "stats/SimdKernels.h"
#include "support/PhaseTimers.h"
#include "support/Str.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
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

/// One command-line flag, accepted as `--flag V` or `--flag=V`.
struct Flag {
  const char *Name;
  /// Names the accepted values in the error; null marks a switch, which
  /// takes no value (Apply then receives an empty string).
  const char *Accepted;
  /// Applies \p Value; \returns false when the value is not accepted.
  std::function<bool(const std::string &Value)> Apply;
};

/// \returns \p Value as an unsigned decimal count, or -1 when it is not
/// one (empty, signed, non-digit, or more than nine digits).
inline long long parseCount(const std::string &Value) {
  if (Value.empty() || Value.size() > 9 ||
      Value.find_first_not_of("0123456789") != std::string::npos)
    return -1;
  return std::stoll(Value);
}

/// A flag storing a count of at least \p Min into \p Out.
template <typename T>
Flag countFlag(const char *Name, T &Out, long long Min = 1,
               const char *Accepted = "a count of at least 1") {
  return {Name, Accepted, [&Out, Min](const std::string &V) {
            const long long N = parseCount(V);
            if (N < Min)
              return false;
            Out = static_cast<T>(N);
            return true;
          }};
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
/// pool, 0 meaning automatic and ThreadPool::MaxThreads the most; parallel
/// results are bit-identical at any setting, so the knob trades wall clock
/// only. `--infer-algo fp|quantized` (or SLOPE_INFER_ALGO) selects the
/// inference kernel core/ModelZoo and core/OnlineEstimator serve;
/// quantized exists for LR and identity-transfer NNs only (other families
/// are a build error). It changes numerics within ml/QuantizedModel's
/// documented error bound, so the CI gate checks speedup and tolerance
/// together. `--simd auto|avx2|scalar` (or SLOPE_SIMD) selects the SIMD
/// kernel variant: auto (the default) enables only the bit-identical
/// column-parallel AVX2 kernels, avx2 additionally opts into the
/// reassociating K-split kernels, scalar forces the reference — see
/// stats/SimdKernels.h. `--bench-json PATH` (or SLOPE_BENCH_JSON) writes a
/// machine-readable timing summary to PATH without changing anything on
/// stdout. `--profile-repeat N` repeats the profiling campaign in benches
/// that support it (extra passes discarded). Tree growth, network
/// training and counter synthesis have no switch: their bit-identical
/// oracles live in tests/reference. The online-retrain algorithm has no
/// process-wide default either; each serving engine is given its own.
inline const std::vector<Flag> &sharedFlags() {
  using namespace slope;
  static_assert(ThreadPool::MaxThreads == 1024,
                "--threads names the maximum in its error");
  static const std::vector<Flag> Flags = {
      {"--threads", "a count up to 1024; 0 = automatic",
       [](const std::string &V) {
         long long N = parseCount(V);
         if (N < 0 || N > ThreadPool::MaxThreads)
           return false;
         requestedThreads() = static_cast<unsigned>(N);
         ThreadPool::setGlobalThreadCount(requestedThreads());
         return true;
       }},
      {"--infer-algo", "fp, quantized",
       [](const std::string &V) {
         static const std::pair<const char *, ml::InferenceAlgorithm> C[] = {
             {"fp", ml::InferenceAlgorithm::Fp},
             {"quantized", ml::InferenceAlgorithm::Quantized}};
         return applyChoice(V, C, ml::setDefaultInferenceAlgorithm);
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
      countFlag("--profile-repeat", profileRepeatFlag()),
  };
  return Flags;
}

/// Prints "error: MESSAGE" to stderr and exits with status 2: the bench
/// programs' one response to a command line they do not accept.
[[noreturn]] inline void usageError(const std::string &Message) {
  std::fprintf(stderr, "error: %s\n", Message.c_str());
  std::exit(2);
}

/// Parses the shared bench flags (see sharedFlags) and the driver's own
/// \p DriverFlags. \returns the positional arguments: at most one, and
/// only when \p Positional names what it is (e.g. "a results CSV path").
/// A value a flag does not accept, a flag without its value, and any
/// other argument exit with status 2 and an error naming what is
/// accepted, before the program prints anything. google-benchmark style
/// `--benchmark_*` flags are accepted and ignored so CI can pass one
/// command line to every bench binary.
inline std::vector<std::string>
parseArgs(int Argc, char **Argv, const std::vector<Flag> &DriverFlags = {},
          const char *Positional = nullptr) {
  if (const char *Env = std::getenv("SLOPE_BENCH_JSON"))
    benchJsonPath() = Env;
  std::vector<const Flag *> Known;
  for (const Flag &F : sharedFlags())
    Known.push_back(&F);
  for (const Flag &F : DriverFlags)
    Known.push_back(&F);
  std::vector<std::string> Positionals;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const Flag *Matched = nullptr;
    std::string Value;
    for (const Flag *F : Known) {
      const size_t Len = std::strlen(F->Name);
      if (Arg == F->Name) {
        Matched = F;
        if (F->Accepted) {
          if (I + 1 == Argc)
            usageError(std::string(F->Name) + " needs a value (accepted: " +
                       F->Accepted + ")");
          Value = Argv[++I];
        }
      } else if (F->Accepted && Arg.compare(0, Len, F->Name) == 0 &&
                 Arg.size() > Len && Arg[Len] == '=') {
        Matched = F;
        Value = Arg.substr(Len + 1);
      }
      if (Matched)
        break;
    }
    if (Matched) {
      if (!Matched->Apply(Value))
        usageError(std::string("unknown ") + Matched->Name + " '" + Value +
                   "' (accepted: " + Matched->Accepted + ")");
    } else if (Arg.rfind("--benchmark_", 0) == 0) {
      // Ignored: lets the CI smoke step pass google-benchmark flags to
      // table binaries that render directly.
    } else if (Positional && Positionals.empty() && Arg.rfind("-", 0) != 0) {
      Positionals.push_back(Arg);
    } else {
      std::string Accepted;
      for (const Flag *F : Known)
        Accepted += std::string(F->Name) + ", ";
      Accepted += "--benchmark_*";
      if (Positional)
        Accepted += std::string(", ") + Positional;
      usageError("unknown argument '" + Arg + "' (accepted: " + Accepted +
                 ")");
    }
  }
  return Positionals;
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
  std::fprintf(F, "  \"infer_algo\": \"%s\",\n",
               slope::ml::defaultInferenceAlgorithm() ==
                       slope::ml::InferenceAlgorithm::Quantized
                   ? "quantized"
                   : "fp");
  // The *resolved* variant the column-parallel kernels actually ran with
  // on this host (auto resolves to "avx2" or "scalar" here), so archived
  // JSON records what executed rather than what was requested.
  std::fprintf(F, "  \"simd\": \"%s\",\n",
               slope::stats::resolvedSimdVariant());
  std::fprintf(F, "  \"profile_repeat\": %u,\n", profileRepeatFlag());
  std::fprintf(F, "  \"sections\": [\n");
  for (size_t I = 0; I < timedSections().size(); ++I) {
    const auto &[Name, Ms] = timedSections()[I];
    std::fprintf(F, "    {\"name\": \"%s\", \"ms\": %.3f}%s\n", Name.c_str(),
                 Ms, I + 1 < timedSections().size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  // Phase counters isolate instrumented kernels from the fixed setup and
  // evaluation work around them, so CI can gate on the kernel alone.
  // profile_ms is charged at campaign level on the calling thread (wall
  // clock), so a parallel campaign reports a smaller number — the CI
  // speedup gate compares exactly this. synth_ms is summed across all
  // threads' readCounters scopes (kernel CPU time).
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
