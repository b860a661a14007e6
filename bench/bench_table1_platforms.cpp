//===- bench/bench_table1_platforms.cpp - Table 1 reproduction ----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Prints the simulated platform specifications in the layout of the
// paper's Table 1, plus the derived machine-model quantities the
// simulator adds (peak flops, memory bandwidth, event-catalogue size).
// With the `--zoo` positional it additionally prints the Class D
// platform-zoo members (AMD Zen2 and ARM big.LITTLE); the default output
// stays byte-identical to the paper's two-platform table.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "sim/Platform.h"

#include <cstdio>

using namespace slope;
using namespace slope::sim;

int main(int Argc, char **Argv) {
  bool ShowZoo = false;
  bench::parseArgs(Argc, Argv, {{"--zoo", nullptr, [&](const std::string &) {
                                   ShowZoo = true;
                                   return true;
                                 }}});
  bench::banner("Table 1: platform specifications");
  Platform H = Platform::intelHaswellServer();
  Platform S = Platform::intelSkylakeServer();
  std::printf("%s\n", core::renderTable1(H, S).c_str());

  TablePrinter Derived(
      {"Derived model quantity", "Haswell", "Skylake"});
  Derived.setCaption("Simulator-model extensions (not in the paper's "
                     "table; used by the kernel models).");
  Derived.addRow({"Peak DP GFLOP/s", str::compact(H.peakGflops(), 5),
                  str::compact(S.peakGflops(), 5)});
  Derived.addRow({"Memory bandwidth (GB/s)",
                  str::compact(H.MemBandwidthGBs, 4),
                  str::compact(S.MemBandwidthGBs, 4)});
  Derived.addRow({"Likwid-style events offered",
                  std::to_string(H.buildRegistry().size()),
                  std::to_string(S.buildRegistry().size())});
  std::printf("%s\n", Derived.render().c_str());

  if (!ShowZoo)
    return 0;

  // The Class D platform zoo: same derived quantities for the non-Intel
  // members, plus the per-cluster shape of the heterogeneous board.
  Platform Z = Platform::amdZen2Server();
  Platform B = Platform::armBigLittle();
  TablePrinter Zoo({"Derived model quantity", "AMD Zen2", "ARM big.LITTLE"});
  Zoo.setCaption("Class D platform-zoo extensions (cross-architecture "
                 "transfer targets).");
  Zoo.addRow({"Processor", Z.Processor, B.Processor});
  Zoo.addRow({"Micro-architecture", microarchName(Z.Arch),
              microarchName(B.Arch)});
  Zoo.addRow({"Cores", std::to_string(Z.totalCores()),
              std::to_string(B.totalCores())});
  Zoo.addRow({"Peak DP GFLOP/s", str::compact(Z.peakGflops(), 5),
              str::compact(B.peakGflops(), 5)});
  Zoo.addRow({"PMU (programmable+fixed)",
              std::to_string(Z.NumProgrammableCounters) + "+" +
                  std::to_string(Z.NumFixedCounters),
              std::to_string(B.NumProgrammableCounters) + "+" +
                  std::to_string(B.NumFixedCounters)});
  Zoo.addRow({"Likwid-style events offered",
              std::to_string(Z.buildRegistry().size()),
              std::to_string(B.buildRegistry().size())});
  std::printf("%s\n", Zoo.render().c_str());

  TablePrinter Clusters({"Cluster", "Arch", "Cores", "Freq (GHz)",
                         "L2 (KB)", "TDP (W)", "PMU"});
  Clusters.setCaption("ARM big.LITTLE clusters (one machine per cluster "
                      "in Class D).");
  for (const ClusterSpec &C : B.Clusters)
    Clusters.addRow({C.Name, microarchName(C.Arch), std::to_string(C.Cores),
                     str::compact(C.MinFreqGHz, 3) + "-" +
                         str::compact(C.MaxFreqGHz, 3),
                     std::to_string(C.L2KB), str::compact(C.TdpWatts, 3),
                     std::to_string(C.NumProgrammableCounters) + "+" +
                         std::to_string(C.NumFixedCounters)});
  std::printf("%s\n", Clusters.render().c_str());
  return 0;
}
