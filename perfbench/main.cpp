//===- perfbench/main.cpp - End-to-end benchmark program ------------------===//
//
// Part of SLOPE-PMC++. See perfbench/README.md for the benchmark contract.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
// perfbench --self-test
//
// Runs from the repository root (it reads tests/golden/ and writes spans
// to .bench_out/).
//
// Prints a PERFBENCH_REPORT line (provenance, operation counts, per-layer
// records, sample counts) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
// this program and wraps it; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "stats/SimdKernels.h"
#include "support/ThreadPool.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <unistd.h>

using namespace perfbench;

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out;
}

std::string jsonNumber(double X) {
  if (!std::isfinite(X))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", X);
  return Buf;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--setup-only] | --self-test\n",
               Msg);
  return 2;
}

void printResult(const Options &O, const Result &R) {
  const bool Correct = R.Ops.failed() == 0;
  std::string Report = "{\"workload\": \"" + jsonEscape(O.Workload) + "\"";
  Report += ", \"provenance\": {\"cpu_model\": \"" + jsonEscape(cpuModel()) +
            "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
            ", \"compiler\": \"" PERFBENCH_COMPILER "\", \"build_type\": \"" +
            PERFBENCH_BUILD_TYPE "\", \"simd\": \"" +
            slope::stats::resolvedSimdVariant() + "\", \"git_revision\": \"" +
            jsonEscape(std::getenv("PERFBENCH_REVISION")
                           ? std::getenv("PERFBENCH_REVISION")
                           : "unknown") +
            "\", \"seed\": " + std::to_string(O.Seed) +
            ", \"threads\": " + std::to_string(PoolThreads) +
            ", \"trace\": " + (O.Trace ? "1" : "0") + "}";
  Report += ", \"operations\": {";
  bool First = true;
  for (const auto &[Kind, AF] : R.Ops.counts()) {
    Report += (First ? "\"" : ", \"") + Kind + "\": {\"attempted\": " +
              std::to_string(AF.first) +
              ", \"failed\": " + std::to_string(AF.second) + "}";
    First = false;
  }
  Report += "}, \"failed_checks\": [";
  for (size_t I = 0; I < R.Ops.failedChecks().size(); ++I)
    Report += (I ? ", \"" : "\"") + jsonEscape(R.Ops.failedChecks()[I]) + "\"";
  Report += "], \"notes\": {";
  for (size_t I = 0; I < R.Notes.size(); ++I)
    Report += (I ? ", \"" : "\"") + jsonEscape(R.Notes[I].first) + "\": \"" +
              jsonEscape(R.Notes[I].second) + "\"";
  Report += "}, \"layers\": {";
  First = true;
  for (const auto &[Name, L] : R.Layers) {
    Report += (First ? "\"" : ", \"") + Name + "\": {\"calls\": " +
              std::to_string(L.Calls) + ", \"wall_ms\": " +
              jsonNumber(L.WallNs / 1e6) + ", \"self_ms\": " +
              jsonNumber(L.SelfNs / 1e6) +
              ", \"items\": " + std::to_string(L.Items) +
              ", \"ns_per_item\": " +
              jsonNumber(L.Items ? L.WallNs / static_cast<double>(L.Items)
                                 : 0) +
              "}";
    First = false;
  }
  Report += "}, \"detail_metrics\": {";
  for (size_t I = 0; I < R.Details.size(); ++I)
    Report += (I ? ", \"" : "\"") + R.Details[I].Name + "\": {\"value\": " +
              jsonNumber(R.Details[I].Value) + ", \"unit\": \"" +
              R.Details[I].Unit + "\"}";
  Report += "}, \"host\": " + R.Host.json() +
            ", \"setup_s\": " + jsonNumber(R.SetupS) + "}";
  std::printf("PERFBENCH_REPORT %s\n", Report.c_str());

  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Ops.attempted()) +
                     ", \"failed\": " + std::to_string(R.Ops.failed()) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    Line += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " +
            jsonNumber(R.Metrics[I].Value) + ", \"unit\": \"" +
            R.Metrics[I].Unit + "\"}";
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

} // namespace

std::map<std::string, LayerRecord> Tracer::aggregate() const {
  std::vector<std::vector<int32_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[Spans[I].Parent].push_back(static_cast<int32_t>(I));
  std::map<std::string, LayerRecord> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::vector<std::pair<int64_t, int64_t>> Cover;
    for (int32_t C : Children[I])
      Cover.emplace_back(std::max(S.StartNs, Spans[C].StartNs),
                         std::min(S.EndNs, Spans[C].EndNs));
    std::sort(Cover.begin(), Cover.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (const auto &[Lo, Hi] : Cover) {
      const int64_t From = std::max(Lo, Reach);
      if (Hi > From) {
        Covered += Hi - From;
        Reach = Hi;
      }
    }
    LayerRecord &L = Out[S.Name];
    L.Calls += 1;
    L.WallNs += static_cast<double>(S.EndNs - S.StartNs);
    L.SelfNs += static_cast<double>(S.EndNs - S.StartNs - Covered);
    L.Items += S.Items;
  }
  return Out;
}

std::map<uint64_t, double> Tracer::perRequestNs(const char *Name) const {
  std::map<uint64_t, double> Out;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Out[S.Request] += static_cast<double>(S.EndNs - S.StartNs);
  return Out;
}

double
Tracer::perRequestMedianMs(std::initializer_list<const char *> Names) const {
  std::map<uint64_t, double> Sum;
  for (const char *Name : Names)
    for (const auto &[Req, Ns] : perRequestNs(Name))
      Sum[Req] += Ns;
  std::vector<double> V;
  for (const auto &[Req, Ns] : Sum)
    V.push_back(Ns / 1e6);
  return median(V);
}

double Tracer::medianMs(const char *Name) const {
  std::vector<double> V;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      V.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e6);
  return median(V);
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu, "
                 "\"items\": %llu}\n",
                 I, S.Name, static_cast<long long>(S.StartNs - Origin),
                 static_cast<long long>(S.EndNs - Origin), S.Parent,
                 static_cast<unsigned long long>(S.Request),
                 static_cast<unsigned long long>(S.Items));
  }
  return std::fclose(F) == 0;
}

int perfbench::runSelfTest() {
  int Failures = 0;
  auto Expect = [&](bool Ok, const char *What) {
    std::printf("%s: %s\n", Ok ? "ok  " : "FAIL", What);
    Failures += !Ok;
  };
  std::vector<double> Nineteen(19), Twenty(20), Ninety(91), Hundred(92);
  std::iota(Nineteen.begin(), Nineteen.end(), 1.0);
  std::iota(Twenty.begin(), Twenty.end(), 1.0);
  std::iota(Ninety.begin(), Ninety.end(), 1.0);
  std::iota(Hundred.begin(), Hundred.end(), 1.0);
  Expect(!percentile(Nineteen, 0.5), "p50 of 19 samples is refused");
  Expect(percentile(Twenty, 0.5) == 10.0,
         "p50 of 20 samples has 10 samples beyond it");
  Expect(!percentile(Ninety, 0.9), "p90 of 91 samples is refused");
  Expect(percentile(Hundred, 0.9) == 82.0,
         "p90 of 92 samples has 10 samples beyond it");
  Expect(!percentile({}, 0.5), "percentile of no samples is refused");
  {
    Tracer T;
    const int32_t Root = T.begin("root", -1, 7);
    const int32_t A = T.begin("child", Root, 7);
    T.end(A, 3);
    const int32_t B = T.begin("child", Root, 7);
    T.end(B, 4);
    T.end(Root, 1);
    auto L = T.aggregate();
    Expect(L["child"].Calls == 2 && L["child"].Items == 7,
           "spans aggregate calls and items per name");
    Expect(L["root"].SelfNs >= 0 &&
               L["root"].SelfNs <= L["root"].WallNs - L["child"].WallNs + 1,
           "self time excludes the children's union");
    Expect(T.perRequestNs("child").count(7) == 1,
           "spans group by request id");
  }
  {
    Digest A, B, C;
    A.addDouble(0.1);
    B.addDouble(0.1);
    C.addDouble(0.1 + 1e-17 + 2.8e-17);
    Expect(A.value() == B.value(), "digest is deterministic");
    Expect(A.value() != C.value(), "digest sees the last bit");
  }
  std::printf("%d self-test failure(s)\n", Failures);
  return Failures == 0 ? 0 : 1;
}

namespace {
/// Keeps the calibration loop's result alive.
volatile uint64_t CalibrationSink = 0;
} // namespace

void HostLog::calibrate() {
  // A dependent multiply-add chain: its time follows only the speed the
  // host gives this thread, not memory or the library.
  const int64_t T0 = nowNs();
  uint64_t X = 1;
  for (uint32_t I = 0; I < (1u << 25); ++I)
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
  CalibrationMs.push_back(static_cast<double>(nowNs() - T0) / 1e6);
  CalibrationSink = X;

  // Lines "cpuN user nice system idle iowait irq softirq steal ...".
  std::ifstream In("/proc/stat");
  std::string Line;
  TicksLast.clear();
  while (std::getline(In, Line)) {
    if (Line.rfind("cpu", 0) != 0 || Line.size() < 4 || !std::isdigit(Line[3]))
      continue;
    std::istringstream Fields(Line.substr(3));
    int Cpu = 0;
    uint64_t V = 0, All = 0, Steal = 0;
    Fields >> Cpu;
    for (int I = 0; I < 8 && Fields >> V; ++I) {
      All += V;
      if (I == 7)
        Steal = V;
    }
    TicksLast[Cpu] = {All, Steal};
  }
  if (TicksFirst.empty())
    TicksFirst = TicksLast;
}

void HostLog::sample() {
  DIR *Tasks = opendir("/proc/self/task");
  if (!Tasks)
    return;
  while (const dirent *E = readdir(Tasks)) {
    if (E->d_name[0] == '.')
      continue;
    std::ifstream In(std::string("/proc/self/task/") + E->d_name + "/stat");
    std::string Stat;
    std::getline(In, Stat);
    // Field 39 (processor); fields from 3 on follow the ')' closing the
    // command name, which may itself contain spaces.
    const size_t Close = Stat.rfind(')');
    if (Close == std::string::npos)
      continue;
    std::istringstream Fields(Stat.substr(Close + 1));
    std::string Field;
    for (int I = 3; I <= 39 && Fields >> Field; ++I)
      if (I == 39)
        ++Seen[std::atol(E->d_name)][std::atoi(Field.c_str())];
  }
  closedir(Tasks);
}

std::string HostLog::json() const {
  std::string Out = "{\"calibration_ms\": [";
  for (size_t I = 0; I < CalibrationMs.size(); ++I)
    Out += (I ? ", " : "") + jsonNumber(CalibrationMs[I]);
  Out += "], \"steal_pct\": {";
  bool First = true;
  for (const auto &[Cpu, Last] : TicksLast) {
    auto It = TicksFirst.find(Cpu);
    if (It == TicksFirst.end() || Last.first <= It->second.first)
      continue;
    const double Steal =
        static_cast<double>(Last.second - It->second.second) /
        static_cast<double>(Last.first - It->second.first);
    Out += std::string(First ? "" : ", ") + "\"" + std::to_string(Cpu) +
           "\": " + jsonNumber(100.0 * Steal);
    First = false;
  }
  Out += "}, \"threads\": {";
  First = true;
  for (const auto &[Tid, Cpus] : Seen) {
    Out += std::string(First ? "" : ", ") + "\"" +
           (Tid == getpid() ? std::string("caller")
                            : "thread-" + std::to_string(Tid)) +
           "\": {";
    bool FirstCpu = true;
    for (const auto &[Cpu, N] : Cpus) {
      Out += std::string(FirstCpu ? "" : ", ") + "\"" + std::to_string(Cpu) +
             "\": " + std::to_string(N);
      FirstCpu = false;
    }
    Out += "}";
    First = false;
  }
  return Out + "}}";
}

double perfbench::copyGbps(Result &R) {
  long Llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (Llc <= 0) {
    std::ifstream In("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string S;
    if (In >> S && !S.empty())
      Llc = std::atol(S.c_str()) * (S.back() == 'M' ? 1 << 20 : 1 << 10);
  }
  if (Llc <= 0)
    Llc = 32L << 20;
  const size_t Bytes =
      std::max<size_t>(4 * static_cast<size_t>(Llc), 64u << 20);
  std::unique_ptr<char[]> Src(new char[Bytes]), Dst(new char[Bytes]);
  std::memset(Src.get(), 1, Bytes);
  std::memset(Dst.get(), 0, Bytes);
  std::vector<double> Gbps;
  for (int Rep = 0; Rep < 5; ++Rep) {
    const int64_t T0 = nowNs();
    std::memcpy(Dst.get(), Src.get(), Bytes);
    Gbps.push_back(2.0 * static_cast<double>(Bytes) /
                   static_cast<double>(nowNs() - T0));
    Src[static_cast<size_t>(Rep) * 4096] ^= Dst[Bytes - 1 - Rep];
  }
  R.note("copy_array_mib", std::to_string(Bytes >> 20) + " (x2 arrays)");
  R.note("llc_mib", std::to_string(static_cast<size_t>(Llc) >> 20));
  return median(Gbps);
}

double perfbench::peakRssMb() {
  // VmHWM is this address space's high-water mark; getrusage's ru_maxrss
  // would carry over the launching process's peak across exec.
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB.
  return 0;
}

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--self-test")
      return runSelfTest();
    if (Arg == "--setup-only") {
      O.SetupOnly = true;
      continue;
    }
    const char *V = Value();
    if (!V)
      return usage(("missing value for " + Arg).c_str());
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = V, HaveWorkload = true;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(V, &End, 10), HaveSeed = *End == '\0';
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      HaveSeconds = *End == '\0' && O.Seconds > 0;
    } else if (Arg == "--trace") {
      O.Trace = std::string(V) == "1";
      HaveTrace = O.Trace || std::string(V) == "0";
    } else {
      return usage(("unknown flag " + Arg).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required "
                 "and must be well-formed");

  slope::ThreadPool::setGlobalThreadCount(PoolThreads);
  Result R;
  if (!O.SetupOnly)
    R.Host.calibrate();
  if (O.Workload == "study")
    runStudy(O, R);
  else if (!runFleet(O, R))
    return usage(("unknown workload " + O.Workload).c_str());
  if (!O.SetupOnly)
    R.Host.calibrate();
  printResult(O, R);
  return R.Ops.failed() == 0 ? 0 : 1;
}
