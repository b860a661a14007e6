//===- tests/ml/PredictBatchTest.cpp - Batch inference equivalence -------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// predictBatch overrides must be bit-identical to the row-by-row predict
// path for every model family (the paper tables are rendered from batch
// predictions, so any divergence would change published numbers).
//
//===----------------------------------------------------------------------===//

#include "ml/KnnRegressor.h"
#include "ml/LinearRegression.h"
#include "ml/NeuralNetwork.h"
#include "ml/RandomForest.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace slope;
using namespace slope::ml;

namespace {

Dataset syntheticData(uint64_t Seed, size_t Rows, size_t Cols) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t J = 0; J < Cols; ++J)
    Names.push_back("f" + std::to_string(J));
  Dataset D(Names);
  for (size_t I = 0; I < Rows; ++I) {
    std::vector<double> X(Cols);
    double Y = 0;
    for (size_t J = 0; J < Cols; ++J) {
      X[J] = R.uniform(0, 10);
      Y += static_cast<double>(J + 1) * X[J];
    }
    D.addRow(X, Y + R.gaussian(0, 0.5));
  }
  return D;
}

/// Requires predictBatch to equal predict row by row, bit for bit.
void expectBatchMatchesRowByRow(const Model &M, const Dataset &Test) {
  std::vector<double> Batch = M.predictBatch(Test);
  ASSERT_EQ(Batch.size(), Test.numRows());
  for (size_t R = 0; R < Test.numRows(); ++R) {
    double Single = M.predict(Test.row(R));
    EXPECT_EQ(std::memcmp(&Batch[R], &Single, sizeof(double)), 0)
        << M.name() << " row " << R << ": " << Batch[R] << " vs " << Single;
  }
}

TEST(PredictBatch, LinearRegressionMatchesRowByRow) {
  Dataset Train = syntheticData(1, 120, 5);
  Dataset Test = syntheticData(2, 40, 5);
  LinearRegression M;
  ASSERT_TRUE(bool(M.fit(Train)));
  expectBatchMatchesRowByRow(M, Test);
}

TEST(PredictBatch, RandomForestMatchesRowByRow) {
  Dataset Train = syntheticData(5, 100, 5);
  Dataset Test = syntheticData(6, 40, 5);
  RandomForestOptions Options;
  Options.NumTrees = 20;
  RandomForest M(Options);
  ASSERT_TRUE(bool(M.fit(Train)));
  expectBatchMatchesRowByRow(M, Test);
}

TEST(PredictBatch, NeuralNetworkMatchesRowByRow) {
  Dataset Train = syntheticData(7, 100, 5);
  Dataset Test = syntheticData(8, 40, 5);
  NeuralNetworkOptions Options;
  Options.Epochs = 20;
  NeuralNetwork M(Options);
  ASSERT_TRUE(bool(M.fit(Train)));
  expectBatchMatchesRowByRow(M, Test);
}

TEST(PredictBatch, KnnRegressorMatchesRowByRow) {
  // The k-NN override standardizes queries straight from the columnar
  // storage and reuses one distance scratch across rows.
  Dataset Train = syntheticData(9, 80, 4);
  Dataset Test = syntheticData(10, 30, 4);
  KnnRegressor M;
  ASSERT_TRUE(bool(M.fit(Train)));
  expectBatchMatchesRowByRow(M, Test);
}

TEST(PredictBatch, KnnRegressorUnweightedMatchesRowByRow) {
  Dataset Train = syntheticData(12, 60, 3);
  Dataset Test = syntheticData(13, 20, 3);
  KnnOptions Options;
  Options.K = 3;
  Options.DistanceWeighted = false;
  KnnRegressor M(Options);
  ASSERT_TRUE(bool(M.fit(Train)));
  expectBatchMatchesRowByRow(M, Test);
}

/// A model with no predictBatch override: predicts the sum of the row's
/// features, so the base-class row-gather path is what's under test.
class RowSumModel : public Model {
public:
  Expected<bool> fit(const Dataset &) override { return true; }
  double predict(const std::vector<double> &Features) const override {
    double Sum = 0;
    for (double F : Features)
      Sum += F;
    return Sum;
  }
  std::string name() const override { return "RowSum"; }
};

TEST(PredictBatch, BaseClassFallbackMatchesRowByRow) {
  // Every shipped family overrides predictBatch now, so a local dummy
  // model exercises the Model default implementation (gather into a
  // reused row buffer).
  Dataset Test = syntheticData(10, 30, 4);
  RowSumModel M;
  expectBatchMatchesRowByRow(M, Test);
}

TEST(PredictBatch, EmptyTestSetYieldsEmptyPredictions) {
  Dataset Train = syntheticData(11, 50, 3);
  LinearRegression M;
  ASSERT_TRUE(bool(M.fit(Train)));
  Dataset Empty({"f0", "f1", "f2"});
  EXPECT_TRUE(M.predictBatch(Empty).empty());
}

} // namespace
