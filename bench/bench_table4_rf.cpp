//===- bench/bench_table4_rf.cpp - Table 4 reproduction ------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Reproduces Table 4: random forest models RF1..RF6 on the Class A
// datasets. Compound test applications exceed the training range of the
// counters, so the forest's inability to extrapolate produces the large
// maximum errors the paper highlights.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace slope;
using namespace slope::core;

int main(int Argc, char **Argv) {
  bench::parseArgs(Argc, Argv);
  bench::banner("Table 4: RF1..RF6 prediction errors");
  // Only the RF family feeds this table; each sweep variant is seeded by
  // (family, subset), so restricting the sweep leaves every printed row
  // bit-identical to a full run.
  ClassAConfig Config = bench::fullClassA();
  Config.Families = ClassAConfig::FamilyRF;
  ClassAResult Result;
  {
    bench::ScopedTimer Timer("run_class_a_rf");
    Result = runClassA(Config);
  }
  std::printf("%s\n",
              bench::renderFamilyComparison(
                  "Table 4. Random forest (RF) regression based energy "
                  "predictive models (RF1-RF6).",
                  Result.Rf, paper::Table4Rf, /*WithCoeffs=*/false)
                  .c_str());
  double Best = 1e300;
  size_t BestIndex = 0;
  for (size_t I = 0; I < Result.Rf.size(); ++I)
    if (Result.Rf[I].Errors.Avg < Best) {
      Best = Result.Rf[I].Errors.Avg;
      BestIndex = I;
    }
  std::printf("Best model: RF%zu (avg %.2f%%); paper's best is RF4 "
              "(avg 23.68%%).\n", BestIndex + 1, Best);
  bench::writeBenchJson("table4_rf");
  return 0;
}
