//===- tests/ml/FlatForestTest.cpp - Shared forest walk properties -------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property tests for the flat tree-major forest walk (ml/FlatForest.h)
// that RandomForest::predict/predictBatch run. The oracle is an
// independent, branchy per-tree walk over the stored nodes: follow
// `x <= t ? left : right` until a node loops to itself, sum the trees in
// ensemble order, divide by the tree count. The fast paths must equal it
// bit for bit at every batch size that leaves a different tail of the
// four-row group and of the 256-row block, on trees of every depth up to
// 16 and of mixed depth (single leaves and stumps included), on rows
// exactly at split thresholds, and on signed zeros, NaN and infinities.
//
//===----------------------------------------------------------------------===//

#include "ml/RandomForest.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

using namespace slope;
using namespace slope::ml;

namespace {

/// The oracle: a row-by-row, branchy walk of every stored tree.
double oraclePredict(const RandomForest &Forest, const double *Row) {
  double Sum = 0;
  for (const FlatTree &Flat : Forest.flat().Trees) {
    const FlatNode *Tree = Flat.Nodes.data();
    uint32_t I = 0;
    while (Tree[I].Child[0] != I || Tree[I].Child[1] != I)
      I = Row[Tree[I].Feature] <= Tree[I].Value ? Tree[I].Child[0]
                                                : Tree[I].Child[1];
    Sum += Tree[I].Value;
  }
  return Sum / static_cast<double>(Forest.numTrees());
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Rows that stress the walk: each cell is a random value across (and
/// past) the training range, a value exactly on one of the stored split
/// thresholds, or a special value.
Dataset hostileRows(const RandomForest &Forest, size_t Width, size_t N,
                    uint64_t Seed) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Specials[] = {0.0, -0.0, NaN, Inf, -Inf, 1e300, -1e300};
  std::vector<double> Thresholds;
  for (const FlatTree &Tree : Forest.flat().Trees)
    for (const FlatNode &Node : Tree.Nodes)
      if (!Node.isLeaf())
        Thresholds.push_back(Node.Value);

  std::vector<std::string> Names;
  for (size_t F = 0; F < Width; ++F)
    Names.push_back("f" + std::to_string(F));
  Dataset D(Names);
  Rng R(Seed);
  for (size_t I = 0; I < N; ++I) {
    std::vector<double> X(Width);
    for (size_t F = 0; F < Width; ++F) {
      switch (R.below(4)) {
      case 0:
        X[F] = Specials[R.below(std::size(Specials))];
        break;
      case 1:
        X[F] = Thresholds.empty() ? 0.0
                                  : Thresholds[R.below(Thresholds.size())];
        break;
      default:
        X[F] = R.uniform(-15, 15);
      }
    }
    D.addRow(X, 0.0);
  }
  return D;
}

/// predictBatch and predict equal the oracle bit for bit on every batch
/// size 1..17 (every tail of the four-row group), on one full 256-row
/// block, and on 255, 257 and 515 rows, which end short of a block or
/// just past one.
void expectMatchesOracle(const RandomForest &Forest, size_t Width,
                         uint64_t Seed) {
  std::vector<size_t> Sizes;
  for (size_t N = 1; N <= 17; ++N)
    Sizes.push_back(N);
  for (size_t N : {255, 256, 257, 515})
    Sizes.push_back(N);
  for (size_t N : Sizes) {
    Dataset Rows = hostileRows(Forest, Width, N, Seed + N);
    const std::vector<double> Batch = Forest.predictBatch(Rows);
    ASSERT_EQ(Batch.size(), N);
    for (size_t R = 0; R < N; ++R) {
      const std::vector<double> Row = Rows.row(R);
      const double Expected = oraclePredict(Forest, Row.data());
      EXPECT_TRUE(sameBits(Batch[R], Expected))
          << "batch " << N << " row " << R << ": " << Batch[R] << " vs "
          << Expected;
      EXPECT_TRUE(sameBits(Forest.predict(Row), Expected))
          << "predict, batch " << N << " row " << R;
    }
  }
}

Dataset smoothData(size_t N, size_t Width, uint64_t Seed) {
  std::vector<std::string> Names;
  for (size_t F = 0; F < Width; ++F)
    Names.push_back("f" + std::to_string(F));
  Dataset D(Names);
  Rng R(Seed);
  for (size_t I = 0; I < N; ++I) {
    std::vector<double> X(Width);
    double Y = 0;
    for (size_t F = 0; F < Width; ++F) {
      // Integer-valued columns put many rows exactly on split midpoints'
      // neighbours and force tied values.
      X[F] = F % 2 ? std::floor(R.uniform(0, 10)) : R.uniform(0, 10);
      Y += static_cast<double>(F + 1) * X[F];
    }
    D.addRow(X, Y + R.gaussian(0, 1));
  }
  return D;
}

} // namespace

TEST(FlatForest, DeepForestMatchesOracle) {
  // Every depth cap up to the default, so the fitted depths cross every
  // boundary between the walk's stretches, and rows reach their leaves
  // inside the first stretch, inside a later one and at its last level.
  const Dataset Train = smoothData(300, 4, 1);
  for (unsigned MaxDepth = 1; MaxDepth <= 16; ++MaxDepth) {
    SCOPED_TRACE("MaxDepth " + std::to_string(MaxDepth));
    RandomForestOptions Options;
    Options.NumTrees = 23;
    Options.Tree.MinSamplesLeaf = 1;
    Options.Tree.MinSamplesSplit = 2;
    Options.Tree.MaxDepth = MaxDepth;
    RandomForest Forest(Options);
    ASSERT_TRUE(bool(Forest.fit(Train)));
    uint32_t Deepest = 0;
    for (const FlatTree &Tree : Forest.flat().Trees)
      Deepest = std::max(Deepest, Tree.Depth);
    EXPECT_EQ(Deepest, MaxDepth);
    expectMatchesOracle(Forest, 4, 100 + MaxDepth);
  }
}

TEST(FlatForest, MixedDepthsWithLeavesAndStumpsMatchOracle) {
  // Six tied rows and two distinct ones: a bootstrap that misses both
  // distinct rows cannot split (a single-leaf tree), one that catches
  // one of them is a stump, and one that catches both goes deeper.
  Dataset D({"x"});
  const double Xs[] = {0, 0, 0, 0, 0, 0, 1, 2};
  for (size_t I = 0; I < std::size(Xs); ++I)
    D.addRow({Xs[I]}, static_cast<double>(I * I));
  RandomForestOptions Options;
  Options.NumTrees = 64;
  Options.Tree.MinSamplesLeaf = 1;
  Options.Tree.MinSamplesSplit = 2;
  RandomForest Forest(Options);
  ASSERT_TRUE(bool(Forest.fit(D)));
  std::vector<uint32_t> Depths;
  for (const FlatTree &Tree : Forest.flat().Trees)
    Depths.push_back(Tree.Depth);
  EXPECT_NE(std::count(Depths.begin(), Depths.end(), 0u), 0);
  EXPECT_NE(std::count(Depths.begin(), Depths.end(), 1u), 0);
  EXPECT_NE(std::count(Depths.begin(), Depths.end(), 2u), 0);
  expectMatchesOracle(Forest, 1, 200);
}

TEST(FlatForest, ConstantTargetSingleLeafForestMatchesOracle) {
  // Every feature value tied: no tree can split, so each is one leaf and
  // the walk has zero steps.
  Dataset D({"a", "b"});
  for (int I = 0; I < 12; ++I)
    D.addRow({3.0, -1.0}, 7.25);
  RandomForestOptions Options;
  Options.NumTrees = 9;
  RandomForest Forest(Options);
  ASSERT_TRUE(bool(Forest.fit(D)));
  ASSERT_EQ(Forest.numTrees(), 9u);
  for (const FlatTree &Tree : Forest.flat().Trees) {
    EXPECT_EQ(Tree.Depth, 0u);
    EXPECT_EQ(Tree.Nodes.size(), 1u);
  }
  expectMatchesOracle(Forest, 2, 300);
}

TEST(FlatForest, StumpForestMatchesOracle) {
  RandomForestOptions Options;
  Options.NumTrees = 17;
  Options.Tree.MaxDepth = 1;
  RandomForest Forest(Options);
  ASSERT_TRUE(bool(Forest.fit(smoothData(120, 3, 2))));
  for (const FlatTree &Tree : Forest.flat().Trees)
    EXPECT_EQ(Tree.Depth, 1u);
  expectMatchesOracle(Forest, 3, 400);
}

TEST(FlatForest, TreesArePreOrderWithSelfLoopingLeaves) {
  RandomForestOptions Options;
  Options.NumTrees = 11;
  RandomForest Forest(Options);
  ASSERT_TRUE(bool(Forest.fit(smoothData(150, 3, 3))));
  ASSERT_EQ(Forest.flat().numTrees(), 11u);
  for (const FlatTree &Tree : Forest.flat().Trees) {
    const uint32_t Size = static_cast<uint32_t>(Tree.Nodes.size());
    ASSERT_GT(Size, 0u);
    for (uint32_t I = 0; I < Size; ++I) {
      const FlatNode &Node = Tree.Nodes[I];
      if (Node.isLeaf()) {
        EXPECT_EQ(Node.Child[0], I);
        EXPECT_EQ(Node.Feature, 0u);
      } else {
        // Children are tree-local and follow their parent (pre-order).
        EXPECT_GT(Node.Child[0], I);
        EXPECT_GT(Node.Child[1], Node.Child[0]);
        EXPECT_LT(Node.Child[1], Size);
        EXPECT_LT(Node.Feature, 3u);
      }
    }
  }
}
