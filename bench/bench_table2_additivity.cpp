//===- bench/bench_table2_additivity.cpp - Table 2 reproduction ---------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Reproduces Table 2: additivity-test errors of the six Class-A PMCs on
// the simulated dual-socket Haswell server, using 277 base applications
// and 50 serial compounds at the paper's 5% tolerance.
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
  bench::banner("Table 2: additivity test errors of the selected PMCs");
  // The printed table depends only on the additivity results, so the
  // model sweep is skipped unless the full Class A CSV archive (which
  // includes the model rows) was requested.
  ClassAConfig Config = bench::fullClassA();
  if (Args.empty())
    Config.Families = 0;
  ClassAResult Result;
  {
    bench::ScopedTimer Timer("run_class_a_additivity");
    Result = runClassA(Config);
  }

  TablePrinter T({"Selected PMCs", "Reproduced err (%)", "Paper err (%)",
                  "Additive at 5%?"});
  T.setCaption("Table 2. Selected PMCs for modelling with their additivity "
               "test errors (%).");
  for (size_t I = 0; I < Result.AdditivityTable.size(); ++I) {
    const AdditivityResult &R = Result.AdditivityTable[I];
    T.addRow({"X" + std::to_string(I + 1) + ": " + R.Name,
              str::fixed(R.MaxErrorPct, 0),
              str::fixed(paper::Table2Errors[I], 0),
              R.Additive ? "yes" : "no"});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Finding (paper Sect. 5.1): no PMC is additive within the "
              "5%% tolerance on the diverse suite.\n");
  bool AnyAdditive = false;
  for (const AdditivityResult &R : Result.AdditivityTable)
    AnyAdditive |= R.Additive;
  std::printf("Reproduced: %s\n",
              AnyAdditive ? "VIOLATED (some PMC additive)" : "confirmed");

  // Optional archival: bench_table2_additivity <results.csv> writes the
  // full Class A result (Tables 2-5) for cross-version diffing.
  if (!Args.empty()) {
    if (auto Ok = writeResultCsv(classAResultToCsv(Result), Args[0]); !Ok)
      std::fprintf(stderr, "archive failed: %s\n",
                   Ok.error().message().c_str());
    else
      std::printf("archived Class A results -> %s\n", Args[0].c_str());
  }
  bench::writeBenchJson("table2_additivity");
  return 0;
}
