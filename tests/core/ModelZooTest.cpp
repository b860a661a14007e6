//===- tests/core/ModelZooTest.cpp - Paper model factory tests ------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ModelZoo.h"

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

/// Restores the process-wide default algorithm when a test returns.
struct InferenceAlgorithmGuard {
  ml::InferenceAlgorithm Saved = ml::defaultInferenceAlgorithm();
  ~InferenceAlgorithmGuard() { ml::setDefaultInferenceAlgorithm(Saved); }
};

} // namespace

TEST(ModelZoo, FamilyNames) {
  EXPECT_STREQ(modelFamilyName(ModelFamily::LR), "LR");
  EXPECT_STREQ(modelFamilyName(ModelFamily::RF), "RF");
  EXPECT_STREQ(modelFamilyName(ModelFamily::NN), "NN");
  EXPECT_STREQ(modelFamilyName(ModelFamily::Knn), "kNN");
}

// Every family must construct, train, and predict in FP, and each family
// with an integer kernel (LR, the identity NN) also quantized — where the
// quantized variant must actually be the fixed-point twin, never a silent
// fall-back to the floating-point model.
TEST(ModelZoo, RoundTripEveryFamilyAndAlgorithm) {
  ml::Dataset Train = miniDataset(4, 0x200);
  for (ModelFamily Family : AllFamilies) {
    for (ml::InferenceAlgorithm Algo :
         {ml::InferenceAlgorithm::Fp, ml::InferenceAlgorithm::Quantized}) {
      const bool Quantized = Algo == ml::InferenceAlgorithm::Quantized;
      if (Quantized && Family != ModelFamily::LR && Family != ModelFamily::NN)
        continue;
      SCOPED_TRACE(std::string(modelFamilyName(Family)) + "/" +
                   (Quantized ? "quantized" : "fp"));
      std::unique_ptr<ml::Model> M = fitPaperModel(Family, 1, Train, Algo);
      ASSERT_NE(M, nullptr);
      auto *Quant = dynamic_cast<ml::QuantizedModel *>(M.get());
      if (Quantized) {
        ASSERT_NE(Quant, nullptr) << "silent FP fallback";
        EXPECT_EQ(M->name(),
                  std::string("Q") + Quant->reference().name());
      } else {
        EXPECT_EQ(Quant, nullptr);
      }
      const double P = M->predict(Train.row(0));
      EXPECT_TRUE(std::isfinite(P));
    }
  }
}

// With no explicit algorithm argument, fitPaperModel follows the
// process-wide default (the --infer-algo / SLOPE_INFER_ALGO knob).
TEST(ModelZoo, DefaultAlgorithmFollowsGlobal) {
  InferenceAlgorithmGuard Guard;
  ml::Dataset Train = miniDataset(3, 0xD0);

  ml::setDefaultInferenceAlgorithm(ml::InferenceAlgorithm::Quantized);
  std::unique_ptr<ml::Model> Q = fitPaperModel(ModelFamily::LR, 1, Train);
  EXPECT_NE(dynamic_cast<ml::QuantizedModel *>(Q.get()), nullptr);

  ml::setDefaultInferenceAlgorithm(ml::InferenceAlgorithm::Fp);
  std::unique_ptr<ml::Model> F = fitPaperModel(ModelFamily::LR, 1, Train);
  EXPECT_EQ(dynamic_cast<ml::QuantizedModel *>(F.get()), nullptr);
}
