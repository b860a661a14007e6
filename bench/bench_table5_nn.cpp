//===- bench/bench_table5_nn.cpp - Table 5 reproduction ------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Reproduces Table 5: neural network models NN1..NN6 (MLP with linear
// transfer, per the paper) on the Class A datasets.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace slope;
using namespace slope::core;

int main(int Argc, char **Argv) {
  bench::parseArgs(Argc, Argv);
  bench::banner("Table 5: NN1..NN6 prediction errors");
  // Only the NN family feeds this table; each sweep variant is seeded by
  // (family, subset), so restricting the sweep leaves every printed row
  // bit-identical to a full run.
  ClassAConfig Config = bench::fullClassA();
  Config.Families = ClassAConfig::FamilyNN;
  ClassAResult Result;
  {
    bench::ScopedTimer Timer("run_class_a_nn");
    Result = runClassA(Config);
  }
  std::printf("%s\n",
              bench::renderFamilyComparison(
                  "Table 5. Neural Networks based energy predictive models "
                  "(NN1-NN6).",
                  Result.Nn, paper::Table5Nn, /*WithCoeffs=*/false)
                  .c_str());
  double Best = 1e300;
  size_t BestIndex = 0;
  for (size_t I = 0; I < Result.Nn.size(); ++I)
    if (Result.Nn[I].Errors.Avg < Best) {
      Best = Result.Nn[I].Errors.Avg;
      BestIndex = I;
    }
  std::printf("Best model: NN%zu (avg %.2f%%); paper's best is NN4 "
              "(avg 24.06%%).\n", BestIndex + 1, Best);
  bench::writeBenchJson("table5_nn");
  return 0;
}
