//===- examples/class_a_study.cpp - Class A walkthrough -------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Walks through the paper's Class A experiment on a reduced scale
// (pass --full for the paper-scale 277/50 datasets): selects the six
// literature PMCs, measures their additivity, builds the nested
// LR/RF/NN families, and prints Tables 2-5. `--threads N` (or
// SLOPE_THREADS) sizes the experiment thread pool; results are
// bit-identical at any width.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "core/Report.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace slope;
using namespace slope::core;

int main(int Argc, char **Argv) {
  bool Full = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--full") == 0) {
      Full = true;
    } else if (std::strcmp(Argv[I], "--threads") == 0) {
      // Digits only, at most ThreadPool::MaxThreads: a sign, a suffix or
      // an oversized count exits 2 before anything runs.
      const char *Value = I + 1 < Argc ? Argv[++I] : "";
      const size_t Len = std::strlen(Value);
      if (Len == 0 || Len > 4 || std::strspn(Value, "0123456789") != Len ||
          std::strtoul(Value, nullptr, 10) > ThreadPool::MaxThreads) {
        std::fprintf(stderr,
                     "error: unknown --threads '%s' (accepted: a count up "
                     "to %u; 0 = automatic)\n",
                     Value, ThreadPool::MaxThreads);
        return 2;
      }
      ThreadPool::setGlobalThreadCount(
          static_cast<unsigned>(std::strtoul(Value, nullptr, 10)));
    }
  }

  ClassAConfig Config;
  if (!Full) {
    Config.NumBaseApps = 96;
    Config.NumCompounds = 30;
    Config.NnEpochs = 200;
    Config.RfTrees = 60;
  }
  std::printf("Class A study on the simulated dual-socket Haswell server\n"
              "(%zu base applications, %zu serial compounds%s)\n\n",
              Config.NumBaseApps, Config.NumCompounds,
              Full ? "" : "; pass --full for paper scale");

  ClassAResult Result = runClassA(Config);

  std::printf("%s\n", renderTable2(Result).c_str());
  std::printf("%s\n",
              renderModelFamilyTable(
                  "Table 3. Linear predictive models (LR1-LR6), zero "
                  "intercept, non-negative coefficients.",
                  Result.Lr, /*WithCoefficients=*/true)
                  .c_str());
  std::printf("%s\n", renderModelFamilyTable(
                          "Table 4. Random forest models (RF1-RF6).",
                          Result.Rf, false)
                          .c_str());
  std::printf("%s\n", renderModelFamilyTable(
                          "Table 5. Neural network models (NN1-NN6).",
                          Result.Nn, false)
                          .c_str());

  std::printf("Reading the trend: dropping the most non-additive PMC "
              "(X4, then X2/X3...) improves average accuracy for every "
              "family until too few predictors remain.\n");
  return 0;
}
