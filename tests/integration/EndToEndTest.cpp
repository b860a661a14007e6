//===- tests/integration/EndToEndTest.cpp - Cross-module integration ------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Mid-size end-to-end runs across sim -> power -> pmc -> core -> ml,
// asserting the paper's qualitative findings at a scale between the unit
// tests and the full bench reproduction.
//
//===----------------------------------------------------------------------===//

#include "core/DatasetBuilder.h"
#include "core/Experiments.h"
#include "core/PmcSelector.h"
#include "core/Report.h"
#include "ml/Metrics.h"
#include "pmc/PlatformEvents.h"
#include "sim/TestSuite.h"

#include <gtest/gtest.h>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

namespace {
ClassAConfig midClassA() {
  ClassAConfig Config;
  Config.NumBaseApps = 96;
  Config.NumCompounds = 24;
  Config.NnEpochs = 150;
  Config.RfTrees = 60;
  return Config;
}

ClassBCConfig midClassBC() {
  ClassBCConfig Config;
  Config.MaxDatasetPoints = 240;
  Config.TrainRows = 195;
  Config.NnEpochs = 150;
  Config.RfTrees = 60;
  return Config;
}
} // namespace

TEST(EndToEnd, ClassATable2OrderingMatchesPaper) {
  // The paper's Table 2 error ordering:
  //   X4 (80) > X2 (37) ~ X3 (36) > X5 (14) ~ X1 (13) > X6 (10).
  ClassAResult R = runClassA(midClassA());
  ASSERT_EQ(R.AdditivityTable.size(), 6u);
  double X1 = R.AdditivityTable[0].MaxErrorPct;
  double X2 = R.AdditivityTable[1].MaxErrorPct;
  double X3 = R.AdditivityTable[2].MaxErrorPct;
  double X4 = R.AdditivityTable[3].MaxErrorPct;
  double X5 = R.AdditivityTable[4].MaxErrorPct;
  double X6 = R.AdditivityTable[5].MaxErrorPct;
  EXPECT_GT(X4, X2);
  EXPECT_GT(X4, X3);
  EXPECT_GT(X2, X5);
  EXPECT_GT(X3, X5);
  EXPECT_GT(X2, X1);
  EXPECT_GT(X3, X1);
  EXPECT_GT(X1, X6 * 0.7); // X1 and X6 are close; X6 is smallest overall.
  EXPECT_LT(X6, X5 * 1.3);
  // Magnitudes in the paper's ballpark.
  EXPECT_GT(X4, 50);
  EXPECT_LT(X6, 25);
}

TEST(EndToEnd, ClassAModelTrendMatchesPaper) {
  // Dropping non-additive PMCs improves all three families; the very
  // last single-PMC model degrades again (LR6/RF6/NN6 pattern).
  ClassAResult R = runClassA(midClassA());
  auto Check = [](const std::vector<ModelEvalRow> &Rows,
                  const char *Family) {
    double First = Rows.front().Errors.Avg;
    double BestMiddle = 1e300;
    for (size_t I = 1; I + 1 < Rows.size(); ++I)
      BestMiddle = std::min(BestMiddle, Rows[I].Errors.Avg);
    double Last = Rows.back().Errors.Avg;
    EXPECT_LT(BestMiddle, First) << Family;
    EXPECT_GT(Last, BestMiddle) << Family;
  };
  Check(R.Lr, "LR");
  Check(R.Rf, "RF");
  Check(R.Nn, "NN");
}

TEST(EndToEnd, ClassARfMaxErrorsExceedLrMaxErrors) {
  // The paper notes RF/NN maximum errors are "particularly bad" on
  // compound test apps (extrapolation failure).
  ClassAResult R = runClassA(midClassA());
  double WorstRf = 0, WorstLr = 0;
  for (size_t I = 0; I < 6; ++I) {
    WorstRf = std::max(WorstRf, R.Rf[I].Errors.Max);
    WorstLr = std::max(WorstLr, R.Lr[I].Errors.Max);
  }
  EXPECT_GT(WorstRf, 0.6 * WorstLr);
}

TEST(EndToEnd, ClassBPaModelsWinAndPna4DoesNotRescue) {
  ClassBCResult R = runClassBC(midClassBC());
  // Table 7a: A beats NA for each family.
  for (size_t I = 0; I + 1 < R.ClassB.size(); I += 2)
    EXPECT_LT(R.ClassB[I].Errors.Avg, R.ClassB[I + 1].Errors.Avg)
        << R.ClassB[I].Label;
  // Table 7b: A4 beats NA4 for each family.
  for (size_t I = 0; I + 1 < R.ClassC.size(); I += 2)
    EXPECT_LT(R.ClassC[I].Errors.Avg, R.ClassC[I + 1].Errors.Avg)
        << R.ClassC[I].Label;
  // The paper's conclusion: correlation-based selection of non-additive
  // PMCs does not materially improve over the full PNA set.
  double LrNa = R.ClassB[1].Errors.Avg;
  double LrNa4 = R.ClassC[1].Errors.Avg;
  EXPECT_GT(LrNa4, 0.5 * LrNa);
}

TEST(EndToEnd, CorrelationSpreadMatchesTable6Shape) {
  ClassBCResult R = runClassBC(midClassBC());
  // Most PA events are strongly correlated with energy...
  size_t StrongPa = 0;
  for (const PmcCorrelationRow &Row : R.Pa)
    if (Row.Correlation > 0.9)
      ++StrongPa;
  EXPECT_GE(StrongPa, 5u);
  // ... while the L3-miss event is weak/negative (paper: -0.112).
  for (const PmcCorrelationRow &Row : R.Pa)
    if (Row.Name == "MEM_LOAD_RETIRED_L3_MISS") {
      EXPECT_LT(Row.Correlation, 0.3);
    }
  // And several PNA events are ALSO highly correlated — that is the
  // paper's point: correlation alone cannot identify reliable PMCs.
  size_t StrongPna = 0;
  for (const PmcCorrelationRow &Row : R.Pna)
    if (Row.Correlation > 0.9)
      ++StrongPna;
  EXPECT_GE(StrongPna, 3u);
}

TEST(EndToEnd, ReportsRenderForMidSizeResults) {
  ClassAResult A = runClassA(midClassA());
  EXPECT_FALSE(renderTable2(A).empty());
  EXPECT_FALSE(renderModelFamilyTable("T3", A.Lr, true).empty());
}

TEST(EndToEnd, FullPipelineByHand) {
  // Assemble the pipeline manually (as a library user would): machine,
  // meter, dataset, selector, model, evaluation.
  Machine M(Platform::intelSkylakeServer(), 42);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  DatasetBuilder Builder(M, Meter);

  std::vector<CompoundApplication> Apps;
  for (uint64_t N = 7000; N <= 19000; N += 1000)
    Apps.emplace_back(Application(KernelKind::MklDgemm, N));
  auto Data = Builder.buildByName(Apps, pmc::skylakePaNames());
  ASSERT_TRUE(bool(Data));

  auto [Train, Test] = Data->splitAt(10);
  ml::LinearRegression Model;
  ASSERT_TRUE(bool(Model.fit(Train)));
  stats::ErrorSummary S = ml::evaluateModel(Model, Test);
  EXPECT_LT(S.Avg, 15.0); // Application-specific additive-PMC LR is good.
}
