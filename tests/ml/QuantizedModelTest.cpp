//===- tests/ml/QuantizedModelTest.cpp - Fixed-point error-bound suite ----------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property suite for ml::QuantizedModel: unlike the repo's bit-identical
// kernel pairs, quantized inference ships with an error *bound* — this
// suite proves |quantized - fp| relative error stays below the documented
// 1e-4 for both supported families (LR and the identity NN), on synthetic
// data and on real machine-profiled paper datasets, that the integer path
// itself is internally bit-identical (predict == predictBatch) and
// deterministic, and that every other family is refused.
//
//===----------------------------------------------------------------------===//

#include "ml/QuantizedModel.h"

#include "core/DatasetBuilder.h"
#include "core/ModelZoo.h"
#include "ml/KnnRegressor.h"
#include "ml/LinearRegression.h"
#include "ml/NeuralNetwork.h"
#include "ml/RandomForest.h"
#include "pmc/PlatformEvents.h"
#include "sim/Machine.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

using namespace slope;
using namespace slope::ml;

namespace {

/// The documented bound (QuantizedModel.h); the suite asserts against
/// exactly this value, the serving CI gate re-checks it end to end.
constexpr double ErrorBound = 1e-4;

Dataset syntheticData(uint64_t Seed, size_t Rows, size_t Cols,
                      double Scale = 10.0) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t J = 0; J < Cols; ++J)
    Names.push_back("f" + std::to_string(J));
  Dataset D(Names);
  for (size_t I = 0; I < Rows; ++I) {
    std::vector<double> X(Cols);
    double Y = 0;
    for (size_t J = 0; J < Cols; ++J) {
      X[J] = R.uniform(0, Scale);
      Y += static_cast<double>(J + 1) * X[J];
    }
    D.addRow(X, Y + R.gaussian(0, 0.5));
  }
  return D;
}

/// Builds the quantized twin of a fresh fit of \p Fp on \p Train and
/// checks its predictions on \p Test against the FP reference.
void expectQuantizedWithinBound(std::unique_ptr<Model> Fp,
                                const Dataset &Train, const Dataset &Test) {
  ASSERT_TRUE(bool(Fp->fit(Train)));
  const std::vector<double> Reference = Fp->predictBatch(Test);
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_TRUE(bool(Q)) << Q.error().message();
  const std::vector<double> Quantized = (*Q)->predictBatch(Test);
  EXPECT_LT(maxRelativeError(Reference, Quantized), ErrorBound)
      << (*Q)->name();
}

/// An unfitted identity-transfer NN, the quantizable network family.
std::unique_ptr<Model> identityNn() {
  NeuralNetworkOptions Options;
  Options.Transfer = Activation::Identity;
  Options.Epochs = 60;
  return std::make_unique<NeuralNetwork>(Options);
}

TEST(QuantizedModel, LinearWithinBound) {
  Dataset Train = syntheticData(1, 120, 5);
  Dataset Test = syntheticData(2, 60, 5);
  expectQuantizedWithinBound(std::make_unique<LinearRegression>(), Train,
                             Test);
}

TEST(QuantizedModel, PaperLinearWithinBound) {
  // The paper configuration: zero intercept, non-negative coefficients.
  Dataset Train = syntheticData(3, 120, 5);
  Dataset Test = syntheticData(4, 60, 5);
  expectQuantizedWithinBound(std::make_unique<LinearRegression>(
                                 LinearRegressionOptions::paperDefault()),
                             Train, Test);
}

TEST(QuantizedModel, IdentityNnWithinBound) {
  // An identity-transfer network is affine end to end; build() folds it
  // to effective linear weights by probing, so the twin must track it as
  // tightly as a plain LR.
  Dataset Train = syntheticData(9, 120, 5);
  Dataset Test = syntheticData(10, 60, 5);
  expectQuantizedWithinBound(identityNn(), Train, Test);
}

TEST(QuantizedModel, WideFeatureScaleSpreadWithinBound) {
  // Columns spanning ten orders of magnitude — per-feature scales must
  // keep each column's resolution independent of the others.
  Rng R(15);
  Dataset Train({"tiny", "small", "unit", "big", "huge"});
  Dataset Test({"tiny", "small", "unit", "big", "huge"});
  const double Scales[5] = {1e-6, 1e-2, 1.0, 1e3, 1e6};
  for (int I = 0; I < 140; ++I) {
    std::vector<double> X(5);
    double Y = 0;
    for (size_t J = 0; J < 5; ++J) {
      X[J] = R.uniform(0, Scales[J]);
      Y += X[J] / Scales[J];
    }
    (I % 2 ? Test : Train).addRow(X, Y + R.gaussian(0, 0.01));
  }
  expectQuantizedWithinBound(std::make_unique<LinearRegression>(), Train,
                             Test);
}

TEST(QuantizedModel, ExtrapolationInsideHeadroomWithinBound) {
  // quantizeRow saturates at 16x the calibration maximum; queries at 4x
  // (well inside the headroom) must still satisfy the bound even though
  // calibration never saw them.
  Dataset Train = syntheticData(16, 120, 4, 10.0);
  Dataset Test = syntheticData(17, 60, 4, 40.0);
  expectQuantizedWithinBound(std::make_unique<LinearRegression>(), Train,
                             Test);
}

TEST(QuantizedModel, AllPaperFamiliesOnMachineDataWithinBound) {
  // The real thing: paper-configured models of both quantizable families
  // trained on a machine-profiled (PMC..., energy) dataset, exactly what
  // the serving engine deploys.
  sim::Machine M(sim::Platform::intelSkylakeServer(), 42);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  core::DatasetBuilder Builder(M, Meter);
  std::vector<sim::CompoundApplication> Apps;
  for (uint64_t N = 7000; N <= 20000; N += 500)
    Apps.emplace_back(sim::Application(sim::KernelKind::MklDgemm, N));
  std::vector<std::string> Pa = pmc::skylakePaNames();
  auto Train = Builder.buildByName(Apps, {Pa[0], Pa[1], Pa[3], Pa[7]});
  ASSERT_TRUE(bool(Train));

  for (core::ModelFamily Family :
       {core::ModelFamily::LR, core::ModelFamily::NN}) {
    std::unique_ptr<Model> Fp =
        core::fitPaperModel(Family, /*Seed=*/1, *Train);
    const std::vector<double> Reference = Fp->predictBatch(*Train);
    auto Q = QuantizedModel::build(std::move(Fp), *Train);
    ASSERT_TRUE(bool(Q)) << core::modelFamilyName(Family) << ": "
                         << Q.error().message();
    const std::vector<double> Quantized = (*Q)->predictBatch(*Train);
    EXPECT_LT(maxRelativeError(Reference, Quantized), ErrorBound)
        << core::modelFamilyName(Family);
  }
}

TEST(QuantizedModel, PredictMatchesPredictBatchBitIdentical) {
  // The integer kernels are deterministic, so the single-row and batch
  // paths must agree bit for bit (the house predictBatch contract).
  Dataset Train = syntheticData(18, 120, 4);
  Dataset Test = syntheticData(19, 40, 4);
  std::vector<std::unique_ptr<Model>> Models;
  Models.push_back(std::make_unique<LinearRegression>());
  Models.push_back(identityNn());
  for (auto &Fp : Models) {
    ASSERT_TRUE(bool(Fp->fit(Train)));
    auto Q = QuantizedModel::build(std::move(Fp), Train);
    ASSERT_TRUE(bool(Q)) << Q.error().message();
    const std::vector<double> Batch = (*Q)->predictBatch(Test);
    for (size_t R = 0; R < Test.numRows(); ++R) {
      const double Single = (*Q)->predict(Test.row(R));
      EXPECT_EQ(std::memcmp(&Batch[R], &Single, sizeof(double)), 0)
          << (*Q)->name() << " row " << R;
    }
  }
}

/// Rows of \p Width features mixing in-range values with the values a
/// glitching counter can produce: signed zeros, NaN, +/-Inf and huge
/// magnitudes (quantization saturates them).
Dataset hostileData(uint64_t Seed, size_t Rows, size_t Width) {
  const double Specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1e300,
                             -1e300};
  Dataset D = syntheticData(Seed, 0, Width);
  Rng R(Seed);
  for (size_t I = 0; I < Rows; ++I) {
    std::vector<double> X(Width);
    for (double &V : X)
      V = R.below(3) == 0 ? Specials[R.below(std::size(Specials))]
                          : R.uniform(-2, 12);
    D.addRow(X, 0.0);
  }
  return D;
}

TEST(QuantizedModel, PredictQuantizedManyMatchesPerRowAtEveryTail) {
  // predictQuantizedMany open-codes the dot product in a contiguous and
  // an indexed loop; at batch lengths 1..17 and 256 both must equal
  // per-row predictQuantized exactly, for LR and the identity NN.
  Dataset Train = syntheticData(30, 200, 4);
  std::vector<std::unique_ptr<Model>> Models;
  Models.push_back(std::make_unique<LinearRegression>());
  Models.push_back(identityNn());
  std::vector<size_t> Sizes;
  for (size_t N = 1; N <= 17; ++N)
    Sizes.push_back(N);
  Sizes.push_back(256);
  for (auto &Fp : Models) {
    ASSERT_TRUE(bool(Fp->fit(Train)));
    auto Q = QuantizedModel::build(std::move(Fp), Train);
    ASSERT_TRUE(bool(Q)) << Q.error().message();
    const size_t W = (*Q)->featureWidth();
    for (size_t N : Sizes) {
      Dataset Rows = hostileData(31 + N, N, W);
      std::vector<int32_t> QRows(N * W);
      for (size_t R = 0; R < N; ++R)
        (*Q)->quantizeRow(Rows.row(R).data(), QRows.data() + R * W);
      std::vector<size_t> Reversed(N);
      for (size_t I = 0; I < N; ++I)
        Reversed[I] = N - 1 - I;
      std::vector<int64_t> Many(N), Indexed(N);
      (*Q)->predictQuantizedMany(QRows.data(), nullptr, N, Many.data());
      (*Q)->predictQuantizedMany(QRows.data(), Reversed.data(), N,
                                 Indexed.data());
      for (size_t R = 0; R < N; ++R) {
        const int64_t Single = (*Q)->predictQuantized(QRows.data() + R * W);
        EXPECT_EQ(Many[R], Single) << (*Q)->name() << " batch " << N
                                   << " row " << R;
        EXPECT_EQ(Indexed[N - 1 - R], Single)
            << (*Q)->name() << " indexed batch " << N << " row " << R;
      }
    }
  }
}

TEST(QuantizedModel, PredictMatchesPredictBatchOnHostileValues) {
  // predict() quantizes through stats::quantizeScaleClamp, predictBatch()
  // through quantizeValue: on NaN, +/-Inf and huge features both must
  // saturate alike at every column position. Widths 3 and 9 put columns
  // in the SIMD kernel's vector body and in its scalar tail.
  for (size_t Width : {3u, 9u}) {
    Dataset Train = syntheticData(40 + Width, 120, Width);
    auto Fp = std::make_unique<LinearRegression>();
    ASSERT_TRUE(bool(Fp->fit(Train)));
    auto Q = QuantizedModel::build(std::move(Fp), Train);
    ASSERT_TRUE(bool(Q)) << Q.error().message();
    Dataset Test = hostileData(50 + Width, 64, Width);
    const std::vector<double> Batch = (*Q)->predictBatch(Test);
    for (size_t R = 0; R < Test.numRows(); ++R) {
      const double Single = (*Q)->predict(Test.row(R));
      EXPECT_EQ(std::memcmp(&Batch[R], &Single, sizeof(double)), 0)
          << "width " << Width << " row " << R << ": " << Batch[R]
          << " vs " << Single;
    }
  }
}

TEST(QuantizedModel, NamePrefixesReference) {
  Dataset Train = syntheticData(20, 80, 3);
  auto Fp = std::make_unique<LinearRegression>();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_TRUE(bool(Q));
  EXPECT_EQ((*Q)->name(), "QLR");
  EXPECT_EQ((*Q)->reference().name(), "LR");
}

TEST(QuantizedModel, OutputBaseIsAPowerOfTwo) {
  // Power-of-two scales make every rescale exact in FP — the foundation
  // of the error-bound argument.
  Dataset Train = syntheticData(21, 100, 4);
  auto Fp = std::make_unique<LinearRegression>();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_TRUE(bool(Q));
  const double Log2 = std::log2((*Q)->outputBase());
  EXPECT_EQ(Log2, std::floor(Log2));
  EXPECT_GT((*Q)->outputBase(), 0.0);
}

TEST(QuantizedModel, RefusesNonIdentityNn) {
  Dataset Train = syntheticData(22, 80, 3);
  NeuralNetworkOptions Options;
  Options.Transfer = Activation::ReLU;
  Options.Epochs = 10;
  auto Fp = std::make_unique<NeuralNetwork>(Options);
  ASSERT_TRUE(bool(Fp->fit(Train)));
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_FALSE(bool(Q));
  EXPECT_NE(Q.error().message().find("identity"), std::string::npos);
}

/// Fits \p Fp on a small dataset and expects build() to refuse it as a
/// family without an integer kernel.
void expectNoQuantizedKernel(std::unique_ptr<Model> Fp) {
  Dataset Train = syntheticData(28, 120, 4);
  ASSERT_TRUE(bool(Fp->fit(Train)));
  const std::string Name = Fp->name();
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_FALSE(bool(Q)) << Name;
  EXPECT_EQ(Q.error().message(),
            "model family '" + Name + "' has no quantized inference kernel");
}

TEST(QuantizedModel, RefusesRandomForest) {
  RandomForestOptions Options;
  Options.NumTrees = 10;
  expectNoQuantizedKernel(std::make_unique<RandomForest>(Options));
}

TEST(QuantizedModel, RefusesKnn) {
  expectNoQuantizedKernel(std::make_unique<KnnRegressor>());
}

TEST(QuantizedModel, RefusesDirectFit) {
  Dataset Train = syntheticData(23, 80, 3);
  auto Fp = std::make_unique<LinearRegression>();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_TRUE(bool(Q));
  EXPECT_FALSE(bool((*Q)->fit(Train)));
}

TEST(QuantizedModel, RefusesEmptyCalibration) {
  Dataset Train = syntheticData(24, 80, 3);
  auto Fp = std::make_unique<LinearRegression>();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  Dataset Empty({"f0", "f1", "f2"});
  auto Q = QuantizedModel::build(std::move(Fp), Empty);
  ASSERT_FALSE(bool(Q));
}

TEST(QuantizedModel, RefusesWidthMismatch) {
  Dataset Train = syntheticData(25, 80, 3);
  auto Fp = std::make_unique<LinearRegression>();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  Dataset Wider = syntheticData(26, 20, 5);
  auto Q = QuantizedModel::build(std::move(Fp), Wider);
  ASSERT_FALSE(bool(Q));
}

TEST(QuantizedModel, RefusesNullModel) {
  Dataset Train = syntheticData(27, 20, 3);
  auto Q = QuantizedModel::build(nullptr, Train);
  ASSERT_FALSE(bool(Q));
}

TEST(MaxRelativeError, BasicProperties) {
  EXPECT_EQ(maxRelativeError({}, {}), 0.0);
  EXPECT_EQ(maxRelativeError({1.0, -2.0, 3.0}, {1.0, -2.0, 3.0}), 0.0);
  // |1.1 - 1.0| / 1.0 = 0.1 dominates.
  EXPECT_NEAR(maxRelativeError({1.0, 2.0}, {1.1, 2.0}), 0.1, 1e-12);
  // Near-zero reference entries are floored at 1e-9 x max|ref| instead of
  // dividing by ~0.
  EXPECT_LT(maxRelativeError({1.0, 1e-300}, {1.0, 2e-300}), 1e-200);
}

TEST(InferenceAlgorithm, DefaultIsOverridable) {
  const InferenceAlgorithm Saved = defaultInferenceAlgorithm();
  setDefaultInferenceAlgorithm(InferenceAlgorithm::Quantized);
  EXPECT_EQ(defaultInferenceAlgorithm(), InferenceAlgorithm::Quantized);
  setDefaultInferenceAlgorithm(InferenceAlgorithm::Fp);
  EXPECT_EQ(defaultInferenceAlgorithm(), InferenceAlgorithm::Fp);
  setDefaultInferenceAlgorithm(Saved);
}

} // namespace
