//===- tests/core/OnlineEstimatorTest.cpp - Online estimator tests --------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/OnlineEstimator.h"

#include "ml/QuantizedModel.h"
#include "pmc/PlatformEvents.h"
#include "stats/Descriptive.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

namespace {
struct Rig {
  Machine M;
  power::HclWattsUp Meter;

  explicit Rig(uint64_t Seed)
      : M(Platform::intelSkylakeServer(), Seed),
        Meter(M, std::make_unique<power::WattsUpProMeter>()) {}
};

std::vector<CompoundApplication> dgemmSweep() {
  std::vector<CompoundApplication> Apps;
  for (uint64_t N = 7000; N <= 20000; N += 500)
    Apps.emplace_back(Application(KernelKind::MklDgemm, N));
  return Apps;
}

std::vector<std::string> pa4() {
  std::vector<std::string> Pa = pmc::skylakePaNames();
  return {Pa[0], Pa[1], Pa[3], Pa[7]}; // The paper's PA4 picks.
}
} // namespace

TEST(OnlineEstimator, TrainsOnSingleRunSubset) {
  Rig R(1);
  auto Estimator =
      OnlineEstimator::train(R.M, R.Meter, pa4(), dgemmSweep());
  ASSERT_TRUE(bool(Estimator));
  EXPECT_EQ(Estimator->pmcNames().size(), 4u);
}

TEST(OnlineEstimator, RejectsSubsetsNeedingMultipleRuns) {
  Rig R(2);
  // All nine PA events need ceil(9/4) = 3 runs.
  auto Estimator = OnlineEstimator::train(R.M, R.Meter,
                                          pmc::skylakePaNames(),
                                          dgemmSweep());
  ASSERT_FALSE(bool(Estimator));
  EXPECT_NE(Estimator.error().message().find("requires 1"),
            std::string::npos);
}

TEST(OnlineEstimator, RejectsUnknownEvents) {
  Rig R(3);
  auto Estimator = OnlineEstimator::train(
      R.M, R.Meter, {"NOT_A_COUNTER"}, dgemmSweep());
  ASSERT_FALSE(bool(Estimator));
}

TEST(OnlineEstimator, RejectsEmptySubset) {
  Rig R(4);
  auto Estimator = OnlineEstimator::train(R.M, R.Meter, {}, dgemmSweep());
  ASSERT_FALSE(bool(Estimator));
}

TEST(OnlineEstimator, EstimatesTrackMeteredTruth) {
  Rig R(5);
  auto Estimator =
      OnlineEstimator::train(R.M, R.Meter, pa4(), dgemmSweep());
  ASSERT_TRUE(bool(Estimator));
  // Held-out sizes between the training grid points.
  std::vector<double> Errors;
  for (uint64_t N : {7250ull, 12250ull, 18250ull}) {
    Execution Exec = R.M.run(Application(KernelKind::MklDgemm, N));
    double Estimate = Estimator->estimateExecution(Exec);
    double Truth = Exec.TrueDynamicEnergyJ;
    Errors.push_back(std::fabs(Estimate - Truth) / Truth * 100);
  }
  EXPECT_LT(stats::mean(Errors), 10.0);
}

TEST(OnlineEstimator, EstimateRunPerformsAFreshExecution) {
  Rig R(6);
  auto Estimator =
      OnlineEstimator::train(R.M, R.Meter, pa4(), dgemmSweep());
  ASSERT_TRUE(bool(Estimator));
  CompoundApplication App(Application(KernelKind::MklDgemm, 10000));
  double A = Estimator->estimateRun(App);
  double B = Estimator->estimateRun(App);
  EXPECT_GT(A, 0.0);
  EXPECT_NE(A, B); // Fresh runs differ by run-to-run variation.
  EXPECT_NEAR(A / B, 1.0, 0.2);
}

TEST(OnlineEstimator, SupportsAllThreeFamilies) {
  for (ModelFamily Family :
       {ModelFamily::LR, ModelFamily::RF, ModelFamily::NN}) {
    Rig R(7 + static_cast<uint64_t>(Family));
    auto Estimator = OnlineEstimator::train(R.M, R.Meter, pa4(),
                                            dgemmSweep(), Family, 1);
    ASSERT_TRUE(bool(Estimator)) << modelFamilyName(Family);
    EXPECT_GT(Estimator->estimateRun(CompoundApplication(
                  Application(KernelKind::MklDgemm, 9500))),
              0.0);
  }
}

TEST(OnlineEstimator, QuantizedTrainRefusesForestAndKnn) {
  // Under --infer-algo quantized, a family without an integer kernel is
  // a build error the caller sees, never a silently served FP model.
  struct Restore {
    ml::InferenceAlgorithm Saved = ml::defaultInferenceAlgorithm();
    ~Restore() { ml::setDefaultInferenceAlgorithm(Saved); }
  } Guard;
  ml::setDefaultInferenceAlgorithm(ml::InferenceAlgorithm::Quantized);
  for (ModelFamily Family : {ModelFamily::RF, ModelFamily::Knn}) {
    Rig R(30 + static_cast<uint64_t>(Family));
    auto Estimator = OnlineEstimator::train(R.M, R.Meter, pa4(),
                                            dgemmSweep(), Family, 1);
    ASSERT_FALSE(bool(Estimator)) << modelFamilyName(Family);
    EXPECT_EQ(Estimator.error().message(),
              "model family '" + std::string(modelFamilyName(Family)) +
                  "' has no quantized inference kernel");
  }
}

TEST(OnlineEstimator, QuantizedTrainServesTheFixedPointTwin) {
  // Under --infer-algo quantized, the families with an integer kernel
  // (LR, the identity NN) serve a QuantizedModel: never a silent FP
  // fallback under a quantized label, which would let the quantized
  // serving gate pass vacuously.
  struct Restore {
    ml::InferenceAlgorithm Saved = ml::defaultInferenceAlgorithm();
    ~Restore() { ml::setDefaultInferenceAlgorithm(Saved); }
  } Guard;
  ml::setDefaultInferenceAlgorithm(ml::InferenceAlgorithm::Quantized);
  for (ModelFamily Family : {ModelFamily::LR, ModelFamily::NN}) {
    Rig R(40 + static_cast<uint64_t>(Family));
    auto Estimator = OnlineEstimator::train(R.M, R.Meter, pa4(),
                                            dgemmSweep(), Family, 1);
    ASSERT_TRUE(bool(Estimator)) << modelFamilyName(Family);
    const auto *Quant =
        dynamic_cast<const ml::QuantizedModel *>(&Estimator->model());
    ASSERT_NE(Quant, nullptr) << "silent FP fallback for "
                              << modelFamilyName(Family);
    EXPECT_EQ(Quant->name(), std::string("Q") + modelFamilyName(Family));
  }
}

TEST(OnlineEstimator, EstimateRunIsDeterministicForEqualSeeds) {
  // Two identically seeded rigs replay the same training campaign and
  // the same fresh run, so the estimate must match bit for bit.
  CompoundApplication App(Application(KernelKind::MklDgemm, 11000));
  double Estimates[2];
  for (double &Estimate : Estimates) {
    Rig R(11);
    auto Estimator =
        OnlineEstimator::train(R.M, R.Meter, pa4(), dgemmSweep());
    ASSERT_TRUE(bool(Estimator));
    Estimate = Estimator->estimateRun(App);
  }
  EXPECT_EQ(Estimates[0], Estimates[1]);
}

TEST(OnlineEstimator, BatchEstimatesMatchPerElementForAllFamilies) {
  // estimateExecutions routes through Model::predictBatch; its contract
  // is bit-identity with the per-element path for every family override
  // (LR/NN columnar kernels, RF per-tree batch walk, kNN flat rows).
  for (ModelFamily Family : {ModelFamily::LR, ModelFamily::RF,
                             ModelFamily::NN, ModelFamily::Knn}) {
    Rig R(20 + static_cast<uint64_t>(Family));
    auto Estimator = OnlineEstimator::train(R.M, R.Meter, pa4(),
                                            dgemmSweep(), Family, 1);
    ASSERT_TRUE(bool(Estimator)) << modelFamilyName(Family);
    std::vector<Execution> Execs;
    for (uint64_t N : {7500ull, 9000ull, 13000ull, 16500ull, 19000ull})
      Execs.push_back(R.M.run(Application(KernelKind::MklDgemm, N)));
    std::vector<double> Batch = Estimator->estimateExecutions(Execs);
    ASSERT_EQ(Batch.size(), Execs.size());
    for (size_t I = 0; I < Execs.size(); ++I)
      EXPECT_EQ(Batch[I], Estimator->estimateExecution(Execs[I]))
          << modelFamilyName(Family) << " execution " << I;
  }
}
