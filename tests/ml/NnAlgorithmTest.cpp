//===- tests/ml/NnAlgorithmTest.cpp - Batched vs seed NN training --------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property tests that the batched GEMM trainer reproduces the per-sample
// seed trainer (tests/reference) bit for bit — identical final losses and
// predictions across topologies, activations, batch sizes, seeds and
// thread counts — and that its epoch loop performs zero heap allocations
// after the per-fit arena setup.
//
//===----------------------------------------------------------------------===//

#include "AllocCounting.h"

#include "reference/ReferenceNn.h"

#include "ml/NeuralNetwork.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

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

/// Trains the production network and the seed trainer of tests/reference
/// on \p Train with \p Options and requires bit-identical final training
/// losses and predictions on \p Test.
void expectKernelsAgree(const NeuralNetworkOptions &Options,
                        const Dataset &Train, const Dataset &Test) {
  NeuralNetwork Fast(Options);
  ASSERT_TRUE(bool(Fast.fit(Train)));
  reference::NeuralNetwork Reference(Train, Options);

  double FastLoss = Fast.finalTrainingLoss();
  double RefLoss = Reference.finalTrainingLoss();
  EXPECT_EQ(std::memcmp(&FastLoss, &RefLoss, sizeof(double)), 0)
      << "final loss " << FastLoss << " vs " << RefLoss;

  std::vector<double> FastPred = Fast.predictBatch(Test);
  std::vector<double> RefPred = Reference.predict(Test);
  ASSERT_EQ(FastPred.size(), RefPred.size());
  for (size_t R = 0; R < FastPred.size(); ++R)
    EXPECT_EQ(std::memcmp(&FastPred[R], &RefPred[R], sizeof(double)), 0)
        << "row " << R << ": " << FastPred[R] << " vs " << RefPred[R];
}

TEST(NnAlgorithm, BatchedMatchesNaiveAcrossTopologiesAndActivations) {
  // Depth 0 (a single linear layer) through depth 2, under every
  // transfer function, over a couple of init/shuffle seeds.
  const std::vector<std::vector<size_t>> Topologies = {
      {}, {8}, {16}, {8, 4}};
  const Activation Transfers[] = {Activation::Identity, Activation::ReLU,
                                  Activation::Tanh};
  uint64_t DataSeed = 40;
  for (const auto &Hidden : Topologies)
    for (Activation Transfer : Transfers) {
      Dataset Train = syntheticData(++DataSeed, 70, 5);
      Dataset Test = syntheticData(++DataSeed, 25, 5);
      NeuralNetworkOptions Options;
      Options.HiddenLayers = Hidden;
      Options.Transfer = Transfer;
      Options.Epochs = 15;
      Options.Seed = 0x90 + DataSeed;
      expectKernelsAgree(Options, Train, Test);
    }
}

TEST(NnAlgorithm, BatchedMatchesNaiveAcrossBatchSizes) {
  // Batch 1 (pure SGD), a size that does not divide N (partial final
  // minibatch), the default, and one larger than N (full-batch clamp).
  Dataset Train = syntheticData(60, 70, 4);
  Dataset Test = syntheticData(61, 25, 4);
  for (size_t BatchSize : {size_t{1}, size_t{7}, size_t{32}, size_t{500}}) {
    NeuralNetworkOptions Options;
    Options.HiddenLayers = {8};
    Options.Transfer = Activation::Tanh;
    Options.Epochs = 12;
    Options.BatchSize = BatchSize;
    expectKernelsAgree(Options, Train, Test);
  }
}

TEST(NnAlgorithm, BatchedMatchesNaiveAcrossThreadCounts) {
  // Training itself is sequential, but fit()'s standardization runs on
  // the global pool; the kernels must agree (and match the 1-thread
  // result) at any thread count.
  Dataset Train = syntheticData(70, 80, 5);
  Dataset Test = syntheticData(71, 25, 5);
  NeuralNetworkOptions Options;
  Options.HiddenLayers = {16};
  Options.Transfer = Activation::ReLU;
  Options.Epochs = 12;

  ThreadPool::setGlobalThreadCount(1);
  NeuralNetwork Serial(Options);
  ASSERT_TRUE(bool(Serial.fit(Train)));
  std::vector<double> SerialPred = Serial.predictBatch(Test);

  for (unsigned Threads : {2u, 8u}) {
    ThreadPool::setGlobalThreadCount(Threads);
    expectKernelsAgree(Options, Train, Test);
    NeuralNetwork Threaded(Options);
    ASSERT_TRUE(bool(Threaded.fit(Train)));
    std::vector<double> ThreadedPred = Threaded.predictBatch(Test);
    ASSERT_EQ(ThreadedPred.size(), SerialPred.size());
    for (size_t R = 0; R < ThreadedPred.size(); ++R)
      EXPECT_EQ(
          std::memcmp(&ThreadedPred[R], &SerialPred[R], sizeof(double)), 0)
          << Threads << " threads, row " << R;
  }
  ThreadPool::setGlobalThreadCount(0); // restore hardware default
}

TEST(NnAlgorithm, BatchedEpochLoopDoesNotAllocate) {
  Dataset Train = syntheticData(90, 120, 6);
  NeuralNetworkOptions Options;
  Options.HiddenLayers = {16, 8};
  Options.Transfer = Activation::Tanh;
  Options.Epochs = 10;
  Options.BatchSize = 32; // does not divide 120: partial batch included

  detail::NnFitPhaseProbe = [](bool Entering) {
    if (Entering)
      test::allocCountingArm();
    else
      test::allocCountingDisarm();
  };
  NeuralNetwork M(Options);
  ASSERT_TRUE(bool(M.fit(Train)));
  detail::NnFitPhaseProbe = nullptr;

  EXPECT_EQ(test::armedAllocationCount(), 0u)
      << "batched epoch loop allocated after arena setup";
}

} // namespace
