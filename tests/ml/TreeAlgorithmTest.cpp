//===- tests/ml/TreeAlgorithmTest.cpp - Presorted vs seed growth ---------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property tests that the presorted grower reproduces the trees and forests
// of the naive seed grower (tests/reference) bit for bit, and that its
// growth loop performs zero heap allocations after the per-tree setup.
//
//===----------------------------------------------------------------------===//

#include "AllocCounting.h"

#include "reference/ReferenceTree.h"

#include "ml/DecisionTree.h"
#include "ml/RandomForest.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

using namespace slope;
using namespace slope::ml;

namespace {

Dataset randomDataset(uint64_t Seed, size_t Rows, size_t Cols,
                      bool Quantize) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t J = 0; J < Cols; ++J)
    Names.push_back("f" + std::to_string(J));
  Dataset D(Names);
  for (size_t I = 0; I < Rows; ++I) {
    std::vector<double> X(Cols);
    double Y = 0;
    for (size_t J = 0; J < Cols; ++J) {
      double V = R.uniform(0, 10);
      // Quantizing forces duplicate feature values, exercising the
      // can't-split-between-equal-values paths and sort tie-breaking.
      X[J] = Quantize ? std::floor(V) : V;
      Y += static_cast<double>(J + 1) * X[J];
    }
    D.addRow(X, Y + R.gaussian(0, 1));
  }
  return D;
}

/// Grows \p Rows of \p D (all rows when empty) with the presorted grower
/// and requires the flat tree the seed grower of tests/reference grows
/// from the same options and stream, bit for bit.
void expectTreeMatchesSeed(const Dataset &D, std::vector<size_t> Rows,
                           const DecisionTreeOptions &Options, Rng TreeRng) {
  if (Rows.empty()) {
    Rows.resize(D.numRows());
    std::iota(Rows.begin(), Rows.end(), size_t{0});
  }
  FlatForest Got, Want;
  Got.Trees.push_back(growTree(D, Rows, DatasetPresort(D), Options, TreeRng));
  Want.Trees.push_back(reference::growTree(D, Rows, Options, TreeRng));
  std::string Where;
  EXPECT_TRUE(reference::sameForest(Got, Want, Where)) << Where;
}

/// A bootstrap sample of \p D's rows, with duplicates.
std::vector<size_t> bootstrapRows(const Dataset &D, uint64_t Seed) {
  Rng BootRng(Seed);
  std::vector<size_t> Rows(D.numRows());
  for (size_t &R : Rows)
    R = BootRng.below(D.numRows());
  return Rows;
}

TEST(TreeAlgorithm, PresortedMatchesNaiveOnRandomDatasets) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Dataset D = randomDataset(Seed, 60, 4, /*Quantize=*/Seed % 2 == 0);
    expectTreeMatchesSeed(D, {}, DecisionTreeOptions(), Rng(0x7EE5));
  }
}

TEST(TreeAlgorithm, PresortedMatchesNaiveWithMtryAndBootstrap) {
  for (uint64_t Seed = 11; Seed <= 16; ++Seed) {
    Dataset D = randomDataset(Seed, 80, 6, /*Quantize=*/true);
    DecisionTreeOptions Options;
    Options.MaxFeatures = 2; // mtry: exercises the per-node shuffle RNG.
    Options.MinSamplesLeaf = 1;
    Options.MinSamplesSplit = 2;
    Options.MaxDepth = 12;
    expectTreeMatchesSeed(D, bootstrapRows(D, Seed ^ 0xB007), Options,
                          Rng(Seed));
  }
}

TEST(TreeAlgorithm, SharedPresortMatchesPerTreeSortAndNaive) {
  // The DatasetPresort orders ties on (value, target) by row, and a
  // bootstrap duplicate's copies by sample id, while the seed grower
  // sorts bare (value, target) pairs. Tied samples carry equal targets,
  // so both must grow the same trees bit for bit on duplicate-heavy
  // bootstrap samples.
  for (uint64_t Seed = 21; Seed <= 26; ++Seed) {
    Dataset D = randomDataset(Seed, 90, 5, /*Quantize=*/true);
    std::vector<size_t> Rows = bootstrapRows(D, Seed ^ 0x5EED);
    DecisionTreeOptions Options;
    Options.MaxFeatures = 2;
    Options.MinSamplesLeaf = 1;
    Options.MinSamplesSplit = 2;
    expectTreeMatchesSeed(D, Rows, Options, Rng(Seed));
  }
}

TEST(TreeAlgorithm, PresortedMatchesNaiveOnDegenerateData) {
  // Constant targets and heavily tied features.
  Dataset D({"a", "b"});
  for (int I = 0; I < 30; ++I)
    D.addRow({static_cast<double>(I % 2), static_cast<double>(I % 3)},
             I % 5 == 0 ? 1.0 : 1.0);
  expectTreeMatchesSeed(D, {}, DecisionTreeOptions(), Rng(0x7EE5));
}

TEST(TreeAlgorithm, PresortedGrowthLoopDoesNotAllocate) {
  Dataset D = randomDataset(99, 200, 6, /*Quantize=*/true);
  DecisionTreeOptions Options;
  Options.MaxFeatures = 2;
  Options.MinSamplesLeaf = 1;
  Options.MinSamplesSplit = 2;

  std::vector<size_t> Rows(D.numRows());
  std::iota(Rows.begin(), Rows.end(), size_t{0});
  const DatasetPresort Presort(D);

  detail::TreeGrowPhaseProbe = [](bool Entering) {
    if (Entering)
      test::allocCountingArm();
    else
      test::allocCountingDisarm();
  };
  FlatTree T = growTree(D, Rows, Presort, Options, Rng(0x7EE5));
  detail::TreeGrowPhaseProbe = nullptr;

  EXPECT_GT(T.Nodes.size(), 1u);
  EXPECT_EQ(test::armedAllocationCount(), 0u)
      << "presorted growth loop allocated after scratch setup";
}

/// Target distributions of the forest oracle grid.
enum class Targets {
  Linear,    ///< Weighted sum of the features plus noise.
  Constant,  ///< Every target equal: no split scores above another.
  Huge,      ///< Near +-1e300: squared prefix sums overflow to +Inf.
  Tiny,      ///< Near 1e-300: squared sums underflow.
  Subnormal, ///< Below DBL_MIN.
  /// Near 1e-161: squared prefix sums, and so the split scores, are
  /// subnormal, with few significant bits (many near-ties).
  SubnormalScores,
  Infinite,  ///< Finite targets with some +Inf and -Inf among them.
};

/// A dataset with \p Cols features whose values repeat heavily when
/// \p Dups (a handful of levels per feature), with targets of kind \p T.
Dataset oracleDataset(uint64_t Seed, size_t Rows, size_t Cols, bool Dups,
                      Targets T) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t J = 0; J < Cols; ++J)
    Names.push_back("f" + std::to_string(J));
  Dataset D(Names);
  const double Inf = std::numeric_limits<double>::infinity();
  for (size_t I = 0; I < Rows; ++I) {
    std::vector<double> X(Cols);
    double Lin = 0;
    for (size_t J = 0; J < Cols; ++J) {
      X[J] = Dups ? std::floor(R.uniform(0, 4)) : R.uniform(0, 10);
      Lin += static_cast<double>(J + 1) * X[J];
    }
    double Y = Lin + R.gaussian(0, 1);
    switch (T) {
    case Targets::Linear:
      break;
    case Targets::Constant:
      Y = 3.25;
      break;
    case Targets::Huge:
      Y = (R.uniform() < 0.5 ? -1e300 : 1e300) * R.uniform(0.5, 1.7);
      break;
    case Targets::Tiny:
      Y = 1e-300 * (1 + Lin);
      break;
    case Targets::Subnormal:
      Y = 0x1p-1060 * (1 + std::floor(Lin));
      break;
    case Targets::SubnormalScores:
      Y = 1e-161 * (1 + Lin);
      break;
    case Targets::Infinite:
      if (R.uniform() < 0.05)
        Y = R.uniform() < 0.5 ? Inf : -Inf;
      break;
    }
    D.addRow(X, Y);
  }
  return D;
}

/// Fits the forest with \p Options on \p D and requires the oracle
/// forest of tests/reference: every flat node and depth, the out-of-bag
/// error and the predictions on \p D, bit for bit.
void checkForest(const Dataset &D, const RandomForestOptions &Options,
                 const std::string &What) {
  SCOPED_TRACE(What);
  RandomForest Fast(Options);
  ASSERT_TRUE(bool(Fast.fit(D)));
  reference::Forest Reference = reference::growForest(D, Options);
  std::string Where;
  ASSERT_TRUE(reference::sameForest(Fast.flat(), Reference.Flat, Where))
      << Where;
  EXPECT_TRUE(reference::sameValue(Fast.oobMse(), Reference.OobMse))
      << Fast.oobMse() << " vs " << Reference.OobMse;
  std::vector<double> PA = Fast.predictBatch(D),
                      PB = reference::predictForest(Reference.Flat, D);
  ASSERT_EQ(PA.size(), PB.size());
  for (size_t R = 0; R < PA.size(); ++R)
    ASSERT_TRUE(reference::sameValue(PA[R], PB[R]))
        << "row " << R << ": " << PA[R] << " vs " << PB[R];
}

/// Restores automatic pool sizing however the test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { ThreadPool::setGlobalThreadCount(0); }
};

TEST(TreeAlgorithm, ForestMatchesNaiveOverTheOptionGrid) {
  // Every feature count and mtry, crossed with every leaf-size, split-size
  // and depth setting; row counts, duplicate-heavy features and target
  // kinds cycle through the combinations.
  const size_t FeatureCounts[] = {1, 2, 4, 9, 12};
  const size_t MinLeafs[] = {0, 1, 2, 5};
  const size_t MinSplits[] = {2, 4, 9};
  const unsigned Depths[] = {1, 3, 16};
  const size_t RowCounts[] = {1, 2, 3, 7, 64};
  const Targets Kinds[] = {Targets::Linear,    Targets::Constant,
                           Targets::Huge,      Targets::Tiny,
                           Targets::Subnormal, Targets::SubnormalScores,
                           Targets::Infinite};
  size_t Case = 0;
  for (size_t F : FeatureCounts)
    for (size_t Mtry = 1; Mtry <= F; ++Mtry)
      for (size_t MinLeaf : MinLeafs)
        for (size_t MinSplit : MinSplits)
          for (unsigned Depth : Depths) {
            ++Case;
            const size_t Rows = RowCounts[Case % 5];
            const Targets Kind = Kinds[Case % 7];
            Dataset D = oracleDataset(Case, Rows, F, Case % 2 == 0, Kind);
            RandomForestOptions Options;
            Options.NumTrees = 3;
            Options.Seed = Case;
            Options.Tree.MaxFeatures = Mtry;
            Options.Tree.MinSamplesLeaf = MinLeaf;
            Options.Tree.MinSamplesSplit = MinSplit;
            Options.Tree.MaxDepth = Depth;
            checkForest(D, Options,
                        "case " + std::to_string(Case) + ": F " +
                            std::to_string(F) + " mtry " +
                            std::to_string(Mtry) + " rows " +
                            std::to_string(Rows) + " kind " +
                            std::to_string(static_cast<int>(Kind)));
          }
}

TEST(TreeAlgorithm, ForestMatchesNaiveAtEveryScaleAndThreadCount) {
  ThreadCountGuard Guard;
  const size_t RowCounts[] = {1, 2, 3, 7, 64, 651, 2000};
  const Targets Kinds[] = {Targets::Linear,    Targets::Constant,
                           Targets::Huge,      Targets::Tiny,
                           Targets::Subnormal, Targets::SubnormalScores,
                           Targets::Infinite};
  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool::setGlobalThreadCount(Threads);
    for (size_t Rows : RowCounts)
      for (size_t K = 0; K < 7; ++K)
        for (bool Dups : {false, true}) {
          // The study's shapes: 9 features at mtry 3 and 4 at mtry 2.
          const size_t F = K % 2 == 0 ? 9 : 4;
          Dataset D = oracleDataset(Rows * 31 + K, Rows, F, Dups, Kinds[K]);
          RandomForestOptions Options;
          Options.NumTrees = Rows > 64 ? 4 : 8;
          Options.Seed = Rows + K;
          checkForest(D, Options,
                      std::to_string(Threads) + " threads, rows " +
                          std::to_string(Rows) + " kind " +
                          std::to_string(K) + (Dups ? " dups" : ""));
        }
  }
}

TEST(TreeAlgorithm, ForestOobErrorMatchesAnIndependentRecount) {
  // The forest's out-of-bag pass walks each tree's flat form in blocks;
  // the oracle's recount redraws each tree's bootstrap from its forked
  // stream and walks each out-of-bag row down the production trees one
  // branch at a time, summing the errors in the forest's order.
  for (Targets Kind : {Targets::Linear, Targets::Infinite}) {
    Dataset D = oracleDataset(77, 300, 5, /*Dups=*/true, Kind);
    RandomForestOptions Options;
    Options.NumTrees = 12;
    Options.Seed = 0x00B;
    RandomForest Forest(Options);
    ASSERT_TRUE(bool(Forest.fit(D)));
    const double Recount = reference::oobMse(Forest.flat(), D, Options.Seed);
    // Finite targets give a finite error only if some row was out of bag.
    if (Kind == Targets::Linear) {
      ASSERT_FALSE(std::isnan(Recount));
    }
    EXPECT_TRUE(reference::sameValue(Forest.oobMse(), Recount))
        << Forest.oobMse() << " vs " << Recount;
  }
}

} // namespace
