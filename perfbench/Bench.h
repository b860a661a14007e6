//===- perfbench/Bench.h - End-to-end benchmark plumbing --------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See perfbench/README.md for the benchmark contract.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: run options, the operation
/// ledger (attempted / failed per kind), the span tracer of the traced
/// run, sample statistics with the percentile refusal rule, and result
/// records. The workloads live in Study.cpp and Fleet.cpp; main.cpp
/// parses arguments and prints the result.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_PERFBENCH_BENCH_H
#define SLOPE_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Every workload runs on a pool of this many threads: half of the
/// 4-core reference host, leaving cores for the harness and the host.
constexpr unsigned PoolThreads = 2;

/// The seed that reproduces the paper-table goldens (ClassBCConfig's
/// default) and the serving CI gate fleets.
constexpr uint64_t DefaultSeed = 2019;

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  /// Set up (the study's first, cold runClassBC; a fleet's machine,
  /// training and engine), report setup_s and exit. run.py launches
  /// several of these per run, so setup_s is a median of cold starts.
  bool SetupOnly = false;
};

/// Paths relative to the repository root, where perfbench runs:
/// the paper-table goldens the study checks, and where spans are written.
constexpr const char *GoldenDir = "tests/golden";
constexpr const char *OutDir = ".bench_out";

/// Monotonic nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in nanoseconds.
inline int64_t cpuNs() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<int64_t>(Ts.tv_sec) * 1000000000 + Ts.tv_nsec;
}

/// Operations attempted and failed, per kind (ingest, fold, query, fit,
/// check, study). A failed check fails the run.
class Ledger {
public:
  void attempt(const std::string &Kind, uint64_t N = 1) {
    Counts[Kind].first += N;
  }
  void fail(const std::string &Kind, uint64_t N = 1) {
    Counts[Kind].second += N;
  }
  /// Records one check; \returns \p Ok.
  bool check(bool Ok, const std::string &What) {
    attempt("check");
    if (!Ok) {
      fail("check");
      FailedChecks.push_back(What);
    }
    return Ok;
  }
  uint64_t attempted() const {
    uint64_t N = 0;
    for (const auto &[Kind, AF] : Counts)
      N += AF.first;
    return N;
  }
  uint64_t failed() const {
    uint64_t N = 0;
    for (const auto &[Kind, AF] : Counts)
      N += AF.second;
    return N;
  }
  const std::map<std::string, std::pair<uint64_t, uint64_t>> &counts() const {
    return Counts;
  }
  const std::vector<std::string> &failedChecks() const { return FailedChecks; }

private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> Counts;
  std::vector<std::string> FailedChecks;
};

/// Samples beyond a percentile that a report needs before it may quote
/// it (the median needs 20 samples, p90 needs 92).
constexpr size_t MinSamplesBeyond = 10;

/// \returns the \p Q quantile (0 < Q < 1, nearest rank on the sorted
/// samples), or nothing when fewer than MinSamplesBeyond samples lie
/// beyond it — such a percentile is refused, not estimated.
inline std::optional<double> percentile(std::vector<double> Samples, double Q) {
  const size_t N = Samples.size();
  if (N == 0 || Q <= 0 || Q >= 1)
    return std::nullopt;
  const size_t Rank = static_cast<size_t>(Q * static_cast<double>(N - 1));
  if (N - 1 - Rank < MinSamplesBeyond)
    return std::nullopt;
  std::nth_element(Samples.begin(), Samples.begin() + Rank, Samples.end());
  return Samples[Rank];
}

/// \returns the fewest samples for which percentile(Samples, Q) is quoted.
inline size_t samplesNeeded(double Q) {
  size_t N = MinSamplesBeyond + 1;
  while (N - 1 - static_cast<size_t>(Q * static_cast<double>(N - 1)) <
         MinSamplesBeyond)
    ++N;
  return N;
}

/// Median without the refusal rule, for diagnostics over few samples.
inline double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

/// FNV-1a over raw bytes: output and trace digests are bitwise, so
/// "identical" means identical to the last bit.
class Digest {
public:
  void add(const void *Data, size_t Bytes) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Bytes; ++I)
      H = (H ^ P[I]) * 0x100000001B3ULL;
  }
  template <typename T> void addVector(const std::vector<T> &V) {
    add(V.data(), V.size() * sizeof(T));
  }
  void addDouble(double X) { add(&X, sizeof X); }
  void addString(const std::string &S) { add(S.data(), S.size() + 1); }
  uint64_t value() const { return H; }
  std::string hex() const {
    char Buf[17];
    std::snprintf(Buf, sizeof Buf, "%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }

private:
  uint64_t H = 0xCBF29CE484222325ULL;
};

/// One span of the traced run: a timed call into a layer, its parent span
/// (-1 for a root) and the request it served (a study iteration or a
/// fleet epoch).
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  uint64_t Request = 0;
  uint64_t Items = 0;
};

/// Aggregate of one span name.
struct LayerRecord {
  uint64_t Calls = 0;
  double WallNs = 0;
  double SelfNs = 0;
  uint64_t Items = 0;
};

/// In-memory span recorder. begin/end may be called from pool threads;
/// the recorder is written out once, after the measured loop.
class Tracer {
public:
  Tracer() { Spans.reserve(1 << 16); }

  int32_t begin(const char *Name, int32_t Parent, uint64_t Request) {
    const int64_t Start = nowNs();
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back(Span{Name, Start, 0, Parent, Request, 0});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void end(int32_t Id, uint64_t Items) {
    const int64_t End = nowNs();
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans[Id].EndNs = End;
    Spans[Id].Items = Items;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Per-name calls, wall time, items and self time. Self time is a
  /// span's duration minus the part of it its children cover (children on
  /// several threads may overlap; their union is subtracted).
  std::map<std::string, LayerRecord> aggregate() const;

  /// Per-request sum of the wall time of spans named \p Name (ns).
  std::map<uint64_t, double> perRequestNs(const char *Name) const;

  /// Median over requests of the wall time of the spans named in
  /// \p Names, summed per request (ms).
  double perRequestMedianMs(std::initializer_list<const char *> Names) const;

  /// Median duration of one span named \p Name (ms).
  double medianMs(const char *Name) const;

  /// Writes every span as JSON lines to \p Path; \returns false on error.
  bool write(const std::string &Path) const;

private:
  std::mutex Mutex;
  std::vector<Span> Spans;
};

/// RAII span; a null tracer makes it free.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, int32_t Parent, uint64_t Request)
      : T(T), Id(T ? T->begin(Name, Parent, Request) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id, Items);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int32_t id() const { return Id; }
  void setItems(uint64_t N) { Items = N; }

private:
  Tracer *T;
  int32_t Id;
  uint64_t Items = 0;
};

/// Facts about the host that explain a run's speed: a fixed calibration
/// loop timed at the start and the end of the run (a slower host shows as
/// a longer loop), the share of each CPU's time the hypervisor gave to
/// others in between (steal time), and the CPUs the threads of this
/// process were seen on.
class HostLog {
public:
  /// Times the calibration loop once, keeps the reading and snapshots
  /// the per-CPU time counters.
  void calibrate();
  /// Records the CPU each thread of this process last ran on.
  void sample();
  /// {"calibration_ms": [...], "steal_pct": {"<cpu>": pct},
  /// "threads": {"caller": {"<cpu>": samples}, "thread-<tid>": {...}}}.
  std::string json() const;

private:
  std::vector<double> CalibrationMs;
  /// Per CPU: {all time, steal time} in clock ticks, at the first and at
  /// the latest calibrate().
  std::map<int, std::pair<uint64_t, uint64_t>> TicksFirst, TicksLast;
  /// Thread id -> CPU -> samples.
  std::map<long, std::map<int, unsigned>> Seen;
};

/// A named metric value with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload run produces; main.cpp prints it.
struct Result {
  std::vector<Metric> Metrics;
  std::vector<Metric> Details;
  /// Extra facts for the report line: sample counts, digests, the
  /// measured-vs-ceiling line, predicted splits.
  std::vector<std::pair<std::string, std::string>> Notes;
  std::map<std::string, LayerRecord> Layers;
  Ledger Ops;
  HostLog Host;
  /// Set-up seconds of this process (set-up-only mode and untraced runs).
  double SetupS = 0;

  /// A result-line metric. Every workload reports the same names:
  /// BENCHMARK.json's end_to_end untraced, its per_layer traced.
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// A figure that only this workload has (fold, query, staleness, one
  /// call of one layer): printed in the report, not in the result line,
  /// whose metrics every workload reports alike.
  void detail(const std::string &Name, double Value, const std::string &Unit) {
    Details.push_back({Name, Value, Unit});
  }
  void note(const std::string &Key, const std::string &Value) {
    Notes.emplace_back(Key, Value);
  }
  /// Records a refused percentile as a failed check (the run measured too
  /// few samples to quote it) and \returns 0.
  double require(std::optional<double> P, const std::string &What) {
    Ops.check(P.has_value(), "too few samples beyond " + What);
    return P.value_or(0);
  }
};

/// Peak resident set of this process in MiB.
double peakRssMb();

/// Streaming-copy bandwidth (read plus write bytes per second, GB/s) over
/// two arrays of at least four times the last-level cache; notes both
/// sizes in \p R.
double copyGbps(Result &R);

/// Workload entry points. Each returns with Result filled; the caller
/// prints it. runFleet \returns false, doing nothing, when O.Workload
/// names no fleet.
void runStudy(const Options &O, Result &R);
bool runFleet(const Options &O, Result &R);

/// The benchmark's own checks of its statistics and digests.
int runSelfTest();

} // namespace perfbench

#endif // SLOPE_PERFBENCH_BENCH_H
