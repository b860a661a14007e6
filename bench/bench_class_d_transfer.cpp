//===- bench/bench_class_d_transfer.cpp - Class D transfer study ---------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Runs the Class D cross-architecture transfer study over the platform
// zoo (Haswell, Skylake, AMD Zen2, ARM big.LITTLE): per-platform
// profiling campaigns with the canonical counter dictionary, model
// transfer across every ordered platform pair with and without
// additivity filtering, and the big.LITTLE pooled-vs-per-cluster
// comparison.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace slope;
using namespace slope::core;

int main(int Argc, char **Argv) {
  // Driver-specific knobs: --bases/--compounds size the per-platform app
  // suites, --epochs/--trees the NN/RF training budgets, --tolerance the
  // additivity threshold the filtered counter sets are built from.
  // Defaults are the full study; CI smoke passes a scaled-down
  // configuration.
  ClassDConfig Config;
  bench::parseArgs(
      Argc, Argv,
      {bench::countFlag("--bases", Config.NumBaseApps),
       bench::countFlag("--compounds", Config.NumCompounds),
       bench::countFlag("--epochs", Config.NnEpochs),
       bench::countFlag("--trees", Config.RfTrees),
       {"--tolerance", "a finite percentage above 0",
        [&](const std::string &V) {
          char *End = nullptr;
          double &Tolerance = Config.Additivity.TolerancePct;
          Tolerance = std::strtod(V.c_str(), &End);
          return !V.empty() && *End == '\0' && std::isfinite(Tolerance) &&
                 Tolerance > 0;
        }}});

  bench::banner("Class D: cross-architecture transfer over the platform zoo");

  ClassDResult Result;
  {
    bench::ScopedTimer Timer("transfer");
    Result = runClassD(Config);
  }
  // Top-level transfer_ms mirror of the timed section, so speedup gates
  // can key on it directly.
  bench::extraJsonNumbers().emplace_back("transfer_ms",
                                         bench::timedSections().back().second);

  std::printf("%s\n", renderClassDPlatforms(Result).c_str());
  std::printf("%s\n", renderClassDTransfer(Result).c_str());
  std::printf("%s\n", renderClassDBigLittle(Result).c_str());
  std::printf("train/test rows per platform: %zu/%zu\n",
              Result.TrainRowsPerPlatform, Result.TestRowsPerPlatform);

  // Headline finding: does restricting transfer to the additive
  // intersection reduce the cross-platform error? Reported per pair as
  // the average over model families.
  size_t FilteredWins = 0, FilteredPairs = 0;
  for (const TransferPairResult &Pair : Result.Pairs) {
    double SumU = 0, SumF = 0;
    size_t NumU = 0, NumF = 0;
    for (const TransferCell &Cell : Pair.Cells) {
      if (Cell.Filtered)
        SumF += Cell.Errors.Avg, ++NumF;
      else
        SumU += Cell.Errors.Avg, ++NumU;
    }
    std::string Key = Pair.TrainPlatform + "_to_" + Pair.TestPlatform;
    bench::extraJsonNumbers().emplace_back("err_" + Key + "_common",
                                           SumU / NumU);
    if (NumF == 0)
      continue;
    ++FilteredPairs;
    FilteredWins += SumF / NumF <= SumU / NumU;
    bench::extraJsonNumbers().emplace_back("err_" + Key + "_filtered",
                                           SumF / NumF);
  }
  std::printf("\nFinding: additivity filtering lowers the family-average "
              "transfer error on %zu of %zu platform pairs with a "
              "non-empty additive intersection.\n",
              FilteredWins, FilteredPairs);

  bench::writeBenchJson("class_d_transfer");
  return 0;
}
