//===- tests/ml/RlsLinearRegressionTest.cpp - Online RLS tests -----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/RlsLinearRegression.h"

#include "ml/LinearRegression.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <numeric>

using namespace slope;
using namespace slope::ml;

namespace {

/// Noisy y = 3a + 2b + 0.5c (optionally plus an intercept).
Dataset makeStream(size_t N, uint64_t Seed, double Intercept = 0.0) {
  Rng R(Seed);
  Dataset D({"a", "b", "c"});
  for (size_t I = 0; I < N; ++I) {
    double A = R.uniform(0.5, 10), B = R.uniform(0.5, 10),
           C = R.uniform(0.5, 10);
    D.addRow({A, B, C},
             Intercept + 3 * A + 2 * B + 0.5 * C + R.gaussian(0, 0.05));
  }
  return D;
}

double relDiff(double A, double B) {
  return A != 0 ? std::fabs(B - A) / std::fabs(A) : std::fabs(B);
}

} // namespace

TEST(RlsLinearRegression, SeedFitMatchesUnconstrainedLinearRegression) {
  // fit() solves the exact ridge system LinearRegression solves with the
  // non-negativity constraint off, so the seed coefficients must agree
  // to solver precision.
  Dataset Train = makeStream(120, 1);
  RlsLinearRegression Rls;
  ASSERT_TRUE(bool(Rls.fit(Train)));

  LinearRegressionOptions Ref;
  Ref.ZeroIntercept = true;
  Ref.NonNegative = false;
  Ref.Lambda = 1e-6;
  LinearRegression Lr(Ref);
  ASSERT_TRUE(bool(Lr.fit(Train)));

  ASSERT_EQ(Rls.coefficients().size(), Lr.coefficients().size());
  for (size_t C = 0; C < Rls.coefficients().size(); ++C)
    EXPECT_LT(relDiff(Lr.coefficients()[C], Rls.coefficients()[C]), 1e-10);
  EXPECT_DOUBLE_EQ(Rls.intercept(), 0.0);
  EXPECT_EQ(Rls.observations(), 120u);
}

TEST(RlsLinearRegression, EveryStreamPrefixAgreesWithRefitWithin1e8) {
  // The property gate: after EVERY prefix of a shuffled stream, the
  // Sherman-Morrison state must agree with a from-scratch batch refit
  // over seed + prefix to < 1e-8 relative error in both coefficients and
  // predictions. This is the tolerance contract the serving engine's
  // rls-vs-refit CI gate is built on.
  Dataset Stream = makeStream(240, 2);
  std::vector<size_t> Order(Stream.numRows());
  std::iota(Order.begin(), Order.end(), size_t(0));
  Rng Shuffler(99);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Shuffler.below(I)]);

  const size_t SeedRows = 40;
  Dataset History(Stream.featureNames());
  for (size_t I = 0; I < SeedRows; ++I)
    History.addRow(Stream.row(Order[I]), Stream.target(Order[I]));

  RlsLinearRegression Streaming;
  ASSERT_TRUE(bool(Streaming.fit(History)));

  const std::vector<std::vector<double>> Probes = {
      {1, 1, 1}, {9.5, 0.6, 4.2}, {0.5, 8.8, 2.1}};
  for (size_t I = SeedRows; I < Order.size(); ++I) {
    Streaming.update(Stream.row(Order[I]), Stream.target(Order[I]));
    History.addRow(Stream.row(Order[I]), Stream.target(Order[I]));
    RlsLinearRegression Reference;
    ASSERT_TRUE(bool(Reference.fit(History)));
    for (size_t C = 0; C < Streaming.coefficients().size(); ++C)
      ASSERT_LT(relDiff(Reference.coefficients()[C],
                        Streaming.coefficients()[C]),
                1e-8)
          << "prefix " << I << " coefficient " << C;
    for (const std::vector<double> &P : Probes)
      ASSERT_LT(relDiff(Reference.predict(P), Streaming.predict(P)), 1e-8)
          << "prefix " << I;
  }
  EXPECT_EQ(Streaming.observations(), Stream.numRows());
}

TEST(RlsLinearRegression, UpdatesConvergeToTruthOnCleanData) {
  // Seed on a tiny batch, then stream many exact rows: the online state
  // must converge to the generating coefficients.
  Rng R(3);
  Dataset Seed({"a", "b"});
  for (int I = 0; I < 8; ++I) {
    double A = R.uniform(1, 5), B = R.uniform(1, 5);
    Seed.addRow({A, B}, 4 * A + 1.5 * B);
  }
  RlsLinearRegression M;
  ASSERT_TRUE(bool(M.fit(Seed)));
  for (int I = 0; I < 500; ++I) {
    double A = R.uniform(1, 5), B = R.uniform(1, 5);
    M.update({A, B}, 4 * A + 1.5 * B);
  }
  EXPECT_NEAR(M.coefficients()[0], 4.0, 1e-6);
  EXPECT_NEAR(M.coefficients()[1], 1.5, 1e-6);
  EXPECT_NEAR(M.predict({2, 2}), 11.0, 1e-5);
}

TEST(RlsLinearRegression, InterceptModeTracksRefit) {
  RlsOptions Options;
  Options.ZeroIntercept = false;
  Dataset Stream = makeStream(150, 4, /*Intercept=*/7.0);

  Dataset History(Stream.featureNames());
  for (size_t I = 0; I < 50; ++I)
    History.addRow(Stream.row(I), Stream.target(I));
  RlsLinearRegression Streaming(Options);
  ASSERT_TRUE(bool(Streaming.fit(History)));
  for (size_t I = 50; I < Stream.numRows(); ++I) {
    Streaming.update(Stream.row(I), Stream.target(I));
    History.addRow(Stream.row(I), Stream.target(I));
  }
  RlsLinearRegression Reference(Options);
  ASSERT_TRUE(bool(Reference.fit(History)));

  EXPECT_LT(relDiff(Reference.intercept(), Streaming.intercept()), 1e-8);
  for (size_t C = 0; C < Streaming.coefficients().size(); ++C)
    EXPECT_LT(
        relDiff(Reference.coefficients()[C], Streaming.coefficients()[C]),
        1e-8);
  EXPECT_NEAR(Streaming.intercept(), 7.0, 0.1);
}

TEST(RlsLinearRegression, PredictVariantsAgreeBitExactly) {
  Dataset Train = makeStream(80, 5);
  RlsLinearRegression M;
  ASSERT_TRUE(bool(M.fit(Train)));
  for (int I = 0; I < 30; ++I)
    M.update(Train.row(I), Train.target(I));

  std::vector<double> Batch = M.predictBatch(Train);
  ASSERT_EQ(Batch.size(), Train.numRows());
  for (size_t I = 0; I < Train.numRows(); ++I) {
    std::vector<double> Row = Train.row(I);
    ASSERT_EQ(Batch[I], M.predict(Row)) << "row " << I;
    ASSERT_EQ(Batch[I], M.predictRow(Row.data()));
  }
}

TEST(RlsLinearRegression, RejectsDegenerateFits) {
  RlsLinearRegression M;
  EXPECT_FALSE(bool(M.fit(Dataset({"a"}))));

  RlsOptions BadLambda;
  BadLambda.Lambda = 0;
  RlsLinearRegression Bad(BadLambda);
  EXPECT_FALSE(bool(Bad.fit(makeStream(10, 6))));
}

