//===- tests/ml/TreeAlgorithmTest.cpp - Presorted vs naive growth --------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property tests that the presorted growth algorithm reproduces the naive
// seed algorithm's trees and forests bit for bit, and that its growth loop
// performs zero heap allocations after the per-tree setup.
//
//===----------------------------------------------------------------------===//

#include "AllocCounting.h"

#include "ml/DecisionTree.h"
#include "ml/RandomForest.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

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

/// Requires bit-for-bit identical fitted trees (structure, thresholds,
/// leaf means, depths).
void expectIdenticalTrees(const DecisionTree &A, const DecisionTree &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.fittedDepth(), B.fittedDepth());
  for (size_t I = 0; I < A.numNodes(); ++I) {
    DecisionTree::NodeView NA = A.node(I), NB = B.node(I);
    EXPECT_EQ(NA.Feature, NB.Feature) << "node " << I;
    EXPECT_EQ(NA.Left, NB.Left) << "node " << I;
    EXPECT_EQ(NA.Right, NB.Right) << "node " << I;
    EXPECT_EQ(NA.Depth, NB.Depth) << "node " << I;
    EXPECT_EQ(std::memcmp(&NA.Threshold, &NB.Threshold, sizeof(double)), 0)
        << "node " << I << " threshold " << NA.Threshold << " vs "
        << NB.Threshold;
    EXPECT_EQ(std::memcmp(&NA.LeafValue, &NB.LeafValue, sizeof(double)), 0)
        << "node " << I << " leaf value " << NA.LeafValue << " vs "
        << NB.LeafValue;
  }
}

TEST(TreeAlgorithm, PresortedMatchesNaiveOnRandomDatasets) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Dataset D = randomDataset(Seed, 60, 4, /*Quantize=*/Seed % 2 == 0);
    DecisionTreeOptions Options;
    Options.Algorithm = TreeAlgorithm::Presorted;
    DecisionTree Fast(Options);
    ASSERT_TRUE(bool(Fast.fit(D)));
    Options.Algorithm = TreeAlgorithm::Naive;
    DecisionTree Reference(Options);
    ASSERT_TRUE(bool(Reference.fit(D)));
    expectIdenticalTrees(Fast, Reference);
  }
}

TEST(TreeAlgorithm, PresortedMatchesNaiveWithMtryAndBootstrap) {
  for (uint64_t Seed = 11; Seed <= 16; ++Seed) {
    Dataset D = randomDataset(Seed, 80, 6, /*Quantize=*/true);
    // Bootstrap sample with duplicates, as RandomForest draws it.
    Rng BootRng(Seed ^ 0xB007);
    std::vector<size_t> Rows(D.numRows());
    for (size_t &R : Rows)
      R = BootRng.below(D.numRows());

    DecisionTreeOptions Options;
    Options.MaxFeatures = 2; // mtry: exercises the per-node shuffle RNG.
    Options.MinSamplesLeaf = 1;
    Options.MinSamplesSplit = 2;
    Options.MaxDepth = 12;
    Options.Algorithm = TreeAlgorithm::Presorted;
    DecisionTree Fast(Options, Rng(Seed));
    ASSERT_TRUE(bool(Fast.fitRows(D, Rows)));
    Options.Algorithm = TreeAlgorithm::Naive;
    DecisionTree Reference(Options, Rng(Seed));
    ASSERT_TRUE(bool(Reference.fitRows(D, Rows)));
    expectIdenticalTrees(Fast, Reference);
  }
}

TEST(TreeAlgorithm, SharedPresortMatchesPerTreeSortAndNaive) {
  // The DatasetPresort path (used by RandomForest) orders ties on
  // (value, target) by row instead of by sample id; both orderings must
  // still grow bit-identical trees.
  for (uint64_t Seed = 21; Seed <= 26; ++Seed) {
    Dataset D = randomDataset(Seed, 90, 5, /*Quantize=*/true);
    DatasetPresort Master(D);
    Rng BootRng(Seed ^ 0x5EED);
    std::vector<size_t> Rows(D.numRows());
    for (size_t &R : Rows)
      R = BootRng.below(D.numRows());

    DecisionTreeOptions Options;
    Options.MaxFeatures = 2;
    Options.MinSamplesLeaf = 1;
    Options.MinSamplesSplit = 2;
    Options.Algorithm = TreeAlgorithm::Presorted;
    DecisionTree Shared(Options, Rng(Seed));
    ASSERT_TRUE(bool(Shared.fitRows(D, Rows, &Master)));
    DecisionTree PerTree(Options, Rng(Seed));
    ASSERT_TRUE(bool(PerTree.fitRows(D, Rows)));
    Options.Algorithm = TreeAlgorithm::Naive;
    DecisionTree Reference(Options, Rng(Seed));
    ASSERT_TRUE(bool(Reference.fitRows(D, Rows)));
    expectIdenticalTrees(Shared, PerTree);
    expectIdenticalTrees(Shared, Reference);
  }
}

TEST(TreeAlgorithm, PresortedMatchesNaiveOnDegenerateData) {
  // Constant targets and heavily tied features.
  Dataset D({"a", "b"});
  for (int I = 0; I < 30; ++I)
    D.addRow({static_cast<double>(I % 2), static_cast<double>(I % 3)},
             I % 5 == 0 ? 1.0 : 1.0);
  DecisionTreeOptions Options;
  Options.Algorithm = TreeAlgorithm::Presorted;
  DecisionTree Fast(Options);
  ASSERT_TRUE(bool(Fast.fit(D)));
  Options.Algorithm = TreeAlgorithm::Naive;
  DecisionTree Reference(Options);
  ASSERT_TRUE(bool(Reference.fit(D)));
  expectIdenticalTrees(Fast, Reference);
}

TEST(TreeAlgorithm, DefaultAlgorithmIsOverridable) {
  TreeAlgorithm Saved = defaultTreeAlgorithm();
  setDefaultTreeAlgorithm(TreeAlgorithm::Naive);
  EXPECT_EQ(defaultTreeAlgorithm(), TreeAlgorithm::Naive);
  setDefaultTreeAlgorithm(Saved);
  EXPECT_EQ(defaultTreeAlgorithm(), Saved);
}

TEST(TreeAlgorithm, PresortedGrowthLoopDoesNotAllocate) {
  Dataset D = randomDataset(99, 200, 6, /*Quantize=*/true);
  DecisionTreeOptions Options;
  Options.Algorithm = TreeAlgorithm::Presorted;
  Options.MaxFeatures = 2;
  Options.MinSamplesLeaf = 1;
  Options.MinSamplesSplit = 2;

  detail::TreeGrowPhaseProbe = [](bool Entering) {
    if (Entering)
      test::allocCountingArm();
    else
      test::allocCountingDisarm();
  };
  DecisionTree T(Options);
  ASSERT_TRUE(bool(T.fit(D)));
  detail::TreeGrowPhaseProbe = nullptr;

  EXPECT_GT(T.numNodes(), 1u);
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

/// Bit equality, with any NaN equal to any NaN.
bool sameValue(double A, double B) {
  return (std::isnan(A) && std::isnan(B)) ||
         std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Requires bit-for-bit identical forests: every flat node and depth, the
/// out-of-bag error and the predictions on \p D.
void expectIdenticalForests(const RandomForest &A, const RandomForest &B,
                            const Dataset &D, const std::string &What) {
  SCOPED_TRACE(What);
  const FlatForest &FA = A.flat(), &FB = B.flat();
  ASSERT_EQ(FA.numTrees(), FB.numTrees());
  for (size_t T = 0; T < FA.numTrees(); ++T) {
    const FlatTree &TA = FA.Trees[T], &TB = FB.Trees[T];
    ASSERT_EQ(TA.Depth, TB.Depth) << "tree " << T;
    ASSERT_EQ(TA.Nodes.size(), TB.Nodes.size()) << "tree " << T;
    for (size_t I = 0; I < TA.Nodes.size(); ++I) {
      const FlatNode &NA = TA.Nodes[I], &NB = TB.Nodes[I];
      ASSERT_TRUE(sameValue(NA.Value, NB.Value) &&
                  NA.Feature == NB.Feature && NA.Child[0] == NB.Child[0] &&
                  NA.Child[1] == NB.Child[1])
          << "tree " << T << " node " << I << ": value " << NA.Value
          << " vs " << NB.Value << ", feature " << NA.Feature << " vs "
          << NB.Feature;
    }
  }
  EXPECT_TRUE(sameValue(A.oobMse(), B.oobMse()))
      << A.oobMse() << " vs " << B.oobMse();
  std::vector<double> PA = A.predictBatch(D), PB = B.predictBatch(D);
  for (size_t R = 0; R < PA.size(); ++R)
    ASSERT_TRUE(sameValue(PA[R], PB[R]))
        << "row " << R << ": " << PA[R] << " vs " << PB[R];
}

/// Fits the default (presorted) and the naive forest with \p Options on
/// \p D and requires them identical.
void checkForest(const Dataset &D, RandomForestOptions Options,
                 const std::string &What) {
  Options.Tree.Algorithm = TreeAlgorithm::Presorted;
  RandomForest Fast(Options);
  ASSERT_TRUE(bool(Fast.fit(D))) << What;
  Options.Tree.Algorithm = TreeAlgorithm::Naive;
  RandomForest Reference(Options);
  ASSERT_TRUE(bool(Reference.fit(D))) << What;
  expectIdenticalForests(Fast, Reference, D, What);
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
  // Both growth kernels share the forest's out-of-bag pass, so recount it
  // here anew: each tree's bootstrap redrawn from its forked
  // stream, each out-of-bag row walked down the flat tree one branch at a
  // time, the errors summed in the forest's order.
  for (Targets Kind : {Targets::Linear, Targets::Infinite}) {
    Dataset D = oracleDataset(77, 300, 5, /*Dups=*/true, Kind);
    RandomForestOptions Options;
    Options.NumTrees = 12;
    Options.Seed = 0x00B;
    RandomForest Forest(Options);
    ASSERT_TRUE(bool(Forest.fit(D)));

    const size_t N = D.numRows();
    std::vector<double> Sum(N, 0.0);
    std::vector<unsigned> Count(N, 0);
    Rng ForestRng(Options.Seed);
    for (size_t T = 0; T < Options.NumTrees; ++T) {
      Rng TreeRng = ForestRng.fork(T);
      std::vector<bool> InBag(N, false);
      for (size_t I = 0; I < N; ++I)
        InBag[TreeRng.below(N)] = true;
      const std::vector<FlatNode> &Nodes = Forest.flat().Trees[T].Nodes;
      for (size_t R = 0; R < N; ++R) {
        if (InBag[R])
          continue;
        const FlatNode *Node = &Nodes[0];
        while (!Node->isLeaf())
          Node = &Nodes[D.column(Node->Feature)[R] <= Node->Value
                            ? Node->Child[0]
                            : Node->Child[1]];
        Sum[R] += Node->Value;
        ++Count[R];
      }
    }
    double SumSq = 0;
    size_t Counted = 0;
    for (size_t R = 0; R < N; ++R) {
      if (Count[R] == 0)
        continue;
      double Err = Sum[R] / Count[R] - D.target(R);
      SumSq += Err * Err;
      ++Counted;
    }
    ASSERT_GT(Counted, 0u);
    EXPECT_TRUE(sameValue(Forest.oobMse(), SumSq / static_cast<double>(Counted)))
        << Forest.oobMse() << " vs " << SumSq / static_cast<double>(Counted);
  }
}

} // namespace
