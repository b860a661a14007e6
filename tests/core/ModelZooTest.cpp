//===- tests/core/ModelZooTest.cpp - Paper model factory tests ------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ModelZoo.h"

#include "ml/QuantizedModel.h"
#include "support/Rng.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace slope;
using namespace slope::core;

namespace {

constexpr ModelFamily AllFamilies[] = {ModelFamily::LR, ModelFamily::RF,
                                       ModelFamily::NN, ModelFamily::Knn};

/// A well-conditioned mini regression problem: positive linear targets
/// (the paper LR solves non-negative least squares) with mild noise.
ml::Dataset miniDataset(size_t Width, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t F = 0; F < Width; ++F)
    Names.push_back("pmc" + std::to_string(F));
  ml::Dataset Data(Names);
  for (int I = 0; I < 80; ++I) {
    std::vector<double> X(Width);
    double Y = 0;
    for (size_t F = 0; F < Width; ++F) {
      X[F] = R.uniform(0.5, 8.0);
      Y += static_cast<double>(F + 1) * X[F];
    }
    Data.addRow(X, Y + R.gaussian(0, 0.05));
  }
  return Data;
}

} // namespace

TEST(ModelZoo, FamilyNames) {
  EXPECT_STREQ(modelFamilyName(ModelFamily::LR), "LR");
  EXPECT_STREQ(modelFamilyName(ModelFamily::RF), "RF");
  EXPECT_STREQ(modelFamilyName(ModelFamily::NN), "NN");
  EXPECT_STREQ(modelFamilyName(ModelFamily::Knn), "kNN");
}

// Every family must construct, train, and predict in FP, and each family
// with an integer kernel (LR, the identity NN) must also serve through its
// fixed-point twin. (The "never a silent FP fallback" check of a trained
// quantized deployment is OnlineEstimatorTest's.)
TEST(ModelZoo, RoundTripEveryFamilyAndAlgorithm) {
  ml::Dataset Train = miniDataset(4, 0x200);
  for (ModelFamily Family : AllFamilies) {
    SCOPED_TRACE(modelFamilyName(Family));
    std::unique_ptr<ml::Model> M = fitPaperModel(Family, 1, Train);
    ASSERT_NE(M, nullptr);
    EXPECT_TRUE(std::isfinite(M->predict(Train.row(0))));
    if (Family != ModelFamily::LR && Family != ModelFamily::NN)
      continue;
    auto Q = ml::QuantizedModel::build(std::move(M), Train);
    ASSERT_TRUE(bool(Q)) << Q.error().message();
    EXPECT_EQ((*Q)->name(), std::string("Q") + modelFamilyName(Family));
    EXPECT_TRUE(std::isfinite((*Q)->predict(Train.row(0))));
  }
}

// The budget arguments size the RF and NN fits; the defaults are the
// paper's 100 trees and 300 epochs.
TEST(ModelZoo, BudgetArgumentsSizeTheFits) {
  ml::Dataset Train = miniDataset(3, 0xB0);
  std::unique_ptr<ml::Model> Paper = makePaperModel(ModelFamily::RF, 1);
  std::unique_ptr<ml::Model> Small =
      makePaperModel(ModelFamily::RF, 1, /*NnEpochs=*/300, /*RfTrees=*/7);
  ASSERT_TRUE(bool(Paper->fit(Train)));
  ASSERT_TRUE(bool(Small->fit(Train)));
  EXPECT_EQ(static_cast<ml::RandomForest &>(*Paper).numTrees(), 100u);
  EXPECT_EQ(static_cast<ml::RandomForest &>(*Small).numTrees(), 7u);

  // A 3-epoch paper NN trains exactly as the paper network built by hand
  // with Epochs = 3.
  ml::NeuralNetworkOptions Options;
  Options.HiddenLayers = {16};
  Options.Transfer = ml::Activation::Identity;
  Options.Epochs = 3;
  Options.Seed = 1;
  ml::NeuralNetwork ByHand(Options);
  std::unique_ptr<ml::Model> Short =
      makePaperModel(ModelFamily::NN, 1, /*NnEpochs=*/3, /*RfTrees=*/100);
  ASSERT_TRUE(bool(ByHand.fit(Train)));
  ASSERT_TRUE(bool(Short->fit(Train)));
  EXPECT_EQ(static_cast<ml::NeuralNetwork &>(*Short).finalTrainingLoss(),
            ByHand.finalTrainingLoss());
}
