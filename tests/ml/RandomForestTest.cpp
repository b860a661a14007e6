//===- tests/ml/RandomForestTest.cpp - Forest regression tests -----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/RandomForest.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace slope;
using namespace slope::ml;

namespace {
Dataset makeSmoothData(size_t N, uint64_t Seed) {
  Rng R(Seed);
  Dataset D({"a", "b"});
  for (size_t I = 0; I < N; ++I) {
    double A = R.uniform(0, 10), B = R.uniform(0, 10);
    D.addRow({A, B}, 2 * A + 5 * B + R.gaussian(0, 0.1));
  }
  return D;
}
} // namespace

TEST(RandomForest, FitsSmoothFunctionInSample) {
  RandomForestOptions Options;
  Options.NumTrees = 50;
  RandomForest M(Options);
  Dataset D = makeSmoothData(300, 1);
  ASSERT_TRUE(bool(M.fit(D)));
  double WorstErr = 0;
  for (size_t I = 0; I < D.numRows(); ++I)
    WorstErr = std::max(
        WorstErr, std::fabs(M.predict(D.row(I)) - D.target(I)));
  EXPECT_LT(WorstErr, 10.0); // Interpolation, not exactness.
}

TEST(RandomForest, BuildsRequestedNumberOfTrees) {
  RandomForestOptions Options;
  Options.NumTrees = 7;
  RandomForest M(Options);
  ASSERT_TRUE(bool(M.fit(makeSmoothData(50, 2))));
  EXPECT_EQ(M.numTrees(), 7u);
}

TEST(RandomForest, DeterministicPerSeed) {
  RandomForestOptions Options;
  Options.NumTrees = 20;
  Options.Seed = 99;
  Dataset D = makeSmoothData(100, 3);
  RandomForest A(Options), B(Options);
  ASSERT_TRUE(bool(A.fit(D)));
  ASSERT_TRUE(bool(B.fit(D)));
  for (double X = 0; X < 10; X += 0.7)
    EXPECT_DOUBLE_EQ(A.predict({X, 10 - X}), B.predict({X, 10 - X}));
}

TEST(RandomForest, DifferentSeedsDifferentForests) {
  RandomForestOptions OA, OB;
  OA.NumTrees = OB.NumTrees = 20;
  OA.Seed = 1;
  OB.Seed = 2;
  Dataset D = makeSmoothData(100, 4);
  RandomForest A(OA), B(OB);
  ASSERT_TRUE(bool(A.fit(D)));
  ASSERT_TRUE(bool(B.fit(D)));
  bool AnyDifferent = false;
  for (double X = 0.5; X < 10; X += 0.9)
    if (A.predict({X, X}) != B.predict({X, X}))
      AnyDifferent = true;
  EXPECT_TRUE(AnyDifferent);
}

TEST(RandomForest, CannotExtrapolate) {
  // Central to the paper's Class A findings: compound applications push
  // counters past the training range and the forest saturates.
  Dataset D({"x"});
  for (int I = 1; I <= 100; ++I)
    D.addRow({static_cast<double>(I)}, static_cast<double>(3 * I));
  RandomForest M;
  ASSERT_TRUE(bool(M.fit(D)));
  double Saturated = M.predict({1e6});
  EXPECT_LE(Saturated, 300.0 + 1e-9);
  // Linear truth at 1e6 would be 3e6: relative error ~100%.
  EXPECT_GT(std::fabs(Saturated - 3e6) / 3e6, 0.9);
}

TEST(RandomForest, OobMseIsFiniteAndSmallOnCleanData) {
  RandomForestOptions Options;
  Options.NumTrees = 60;
  RandomForest M(Options);
  ASSERT_TRUE(bool(M.fit(makeSmoothData(400, 5))));
  EXPECT_TRUE(std::isfinite(M.oobMse()));
  EXPECT_LT(M.oobMse(), 25.0);
}

TEST(RandomForest, PredictAllMatchesPredict) {
  Dataset D = makeSmoothData(50, 6);
  RandomForest M;
  ASSERT_TRUE(bool(M.fit(D)));
  std::vector<double> All = M.predictBatch(D);
  for (size_t I = 0; I < D.numRows(); I += 7)
    EXPECT_DOUBLE_EQ(All[I], M.predict(D.row(I)));
}

TEST(RandomForest, RejectsEmptyDataset) {
  RandomForest M;
  Dataset D({"x"});
  EXPECT_FALSE(bool(M.fit(D)));
}

TEST(RandomForest, NameIsRF) {
  EXPECT_EQ(RandomForest().name(), "RF");
}

// Property: forest predictions always stay within the training target
// hull, for several seeds and tree counts.
class ForestHull : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ForestHull, PredictionsWithinTargetRange) {
  Rng R(GetParam());
  Dataset D({"a"});
  double Lo = 1e300, Hi = -1e300;
  for (int I = 0; I < 80; ++I) {
    double Y = R.uniform(-50, 50);
    Lo = std::min(Lo, Y);
    Hi = std::max(Hi, Y);
    D.addRow({R.uniform(-10, 10)}, Y);
  }
  RandomForestOptions Options;
  Options.NumTrees = 10 + GetParam() % 30;
  Options.Seed = GetParam();
  RandomForest M(Options);
  ASSERT_TRUE(bool(M.fit(D)));
  for (double X = -30; X <= 30; X += 3.7) {
    double P = M.predict({X});
    EXPECT_GE(P, Lo - 1e-9);
    EXPECT_LE(P, Hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestHull, ::testing::Range<uint64_t>(0, 8));
