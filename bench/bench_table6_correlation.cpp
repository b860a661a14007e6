//===- bench/bench_table6_correlation.cpp - Table 6 reproduction ---------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Reproduces Table 6: the PA (nine most additive) and PNA (nine
// non-additive, literature-popular) PMC sets on the simulated Skylake
// server, with their Pearson correlation against dynamic energy over the
// 801-point DGEMM/FFT dataset and their additivity errors over the
// 50-base/30-compound additivity datasets.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ResultsIo.h"

#include <cstdio>

using namespace slope;
using namespace slope::core;

int main(int Argc, char **Argv) {
  std::vector<std::string> Args =
      bench::parseArgs(Argc, Argv, {}, "a results CSV path");
  bench::banner("Table 6: PA/PNA energy correlations");
  ClassBCResult Result;
  {
    bench::ScopedTimer Timer("run_class_bc");
    Result = runClassBC(bench::fullClassBC());
  }

  TablePrinter T({"", "PMC", "Reproduced corr", "Paper corr",
                  "Additivity err (%)"});
  T.setCaption("Table 6. Additive and non-additive PMCs highly correlated "
               "with dynamic energy.");
  for (size_t I = 0; I < Result.Pa.size(); ++I)
    T.addRow({"X" + std::to_string(I + 1), Result.Pa[I].Name,
              str::fixed(Result.Pa[I].Correlation, 3),
              str::fixed(paper::Table6PaCorrelation[I], 3),
              str::fixed(Result.Pa[I].AdditivityErrorPct, 2)});
  for (size_t I = 0; I < Result.Pna.size(); ++I)
    T.addRow({"Y" + std::to_string(I + 1), Result.Pna[I].Name,
              str::fixed(Result.Pna[I].Correlation, 3),
              str::fixed(paper::Table6PnaCorrelation[I], 3),
              str::fixed(Result.Pna[I].AdditivityErrorPct, 2)});
  std::printf("%s\n", T.render().c_str());

  size_t PaAdditive = 0, PnaAdditive = 0;
  for (const PmcCorrelationRow &Row : Result.Pa)
    PaAdditive += Row.Additive;
  for (const PmcCorrelationRow &Row : Result.Pna)
    PnaAdditive += Row.Additive;
  std::printf("PA additive for DGEMM/FFT: %zu/9 (paper: 9/9, err < 1%%); "
              "PNA additive: %zu/9 (paper: 0/9).\n",
              PaAdditive, PnaAdditive);

  // Optional archival: bench_table6_correlation <results.csv> writes the
  // full Class B/C result (Tables 6-7) for cross-version diffing.
  if (!Args.empty()) {
    if (auto Ok = writeResultCsv(classBCResultToCsv(Result), Args[0]); !Ok)
      std::fprintf(stderr, "archive failed: %s\n",
                   Ok.error().message().c_str());
    else
      std::printf("archived Class B/C results -> %s\n", Args[0].c_str());
  }
  bench::writeBenchJson("table6_correlation");
  return 0;
}
