//===- tests/ml/FlatForestTest.cpp - Shared forest walk properties -------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property tests for the two inference forms RandomForest::predict and
// predictBatch serve through: the flat tree-major node walk
// (ml/FlatForest.h) and, for a forest whose shape suits them once it has
// served LeafMasks::BuildAfterRows rows, the leaf masks (ml/LeafMasks.h).
// The oracle is an independent, branchy per-tree walk over the stored
// nodes: follow `x <= t ? left : right` until a node loops to itself, sum
// the trees in ensemble order, divide by the tree count. The fast paths
// must equal it bit for bit at every batch size that leaves a different
// tail of the four-row group and of the 256-row block, on trees of every
// depth up to 16 and of mixed depth (single leaves and stumps included),
// in forests of every tree count modulo 4 at each width the masks take
// (they serve four trees per pass over the rows, then the tail),
// on trees of exactly 64, 65, 128 and 129 leaves, on rows exactly at split
// thresholds and one ulp either side of them, and on signed zeros, NaN and
// infinities. Every fitted forest is checked through the node walk, which
// its out-of-bag pass uses, and through predict and predictBatch both
// before and after it has served the rows that build its masks.
//
//===----------------------------------------------------------------------===//

#include "ml/RandomForest.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <thread>

using namespace slope;
using namespace slope::ml;

namespace {

/// The oracle: a row-by-row, branchy walk of every stored tree.
double oraclePredict(const FlatForest &F, const double *Row) {
  double Sum = 0;
  for (const FlatTree &Flat : F.Trees) {
    const FlatNode *Tree = Flat.Nodes.data();
    uint32_t I = 0;
    while (Tree[I].Child[0] != I || Tree[I].Child[1] != I)
      I = Row[Tree[I].Feature] <= Tree[I].Value ? Tree[I].Child[0]
                                                : Tree[I].Child[1];
    Sum += Tree[I].Value;
  }
  return Sum / static_cast<double>(F.numTrees());
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Rows that stress the walk: each cell is a random value across (and
/// past) the training range, a value exactly on one of the stored split
/// thresholds or one ulp either side of one, or a special value.
Dataset hostileRows(const FlatForest &F, size_t Width, size_t N,
                    uint64_t Seed) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Specials[] = {0.0, -0.0, NaN, Inf, -Inf, 1e300, -1e300};
  std::vector<double> Thresholds;
  for (const FlatTree &Tree : F.Trees)
    for (const FlatNode &Node : Tree.Nodes)
      if (!Node.isLeaf())
        Thresholds.push_back(Node.Value);

  std::vector<std::string> Names;
  for (size_t Fe = 0; Fe < Width; ++Fe)
    Names.push_back("f" + std::to_string(Fe));
  Dataset D(Names);
  Rng R(Seed);
  for (size_t I = 0; I < N; ++I) {
    std::vector<double> X(Width);
    for (size_t Fe = 0; Fe < Width; ++Fe) {
      const double Th =
          Thresholds.empty() ? 0.0 : Thresholds[R.below(Thresholds.size())];
      switch (R.below(6)) {
      case 0:
        X[Fe] = Specials[R.below(std::size(Specials))];
        break;
      case 1:
        X[Fe] = Th;
        break;
      case 2:
        X[Fe] = std::nextafter(Th, R.below(2) ? Inf : -Inf);
        break;
      default:
        X[Fe] = R.uniform(-15, 15);
      }
    }
    D.addRow(X, 0.0);
  }
  return D;
}

/// Serve(Rows) must equal the oracle over \p F bit for bit on every row,
/// on every batch size 1..17 (every tail of the four-row group), on one
/// full 256-row block, and on 255, 257 and 515 rows, which end short of a
/// block or just past one.
void expectMatchesOracle(
    const FlatForest &F, size_t Width, uint64_t Seed,
    const std::function<std::vector<double>(const Dataset &)> &Serve) {
  std::vector<size_t> Sizes;
  for (size_t N = 1; N <= 17; ++N)
    Sizes.push_back(N);
  for (size_t N : {255, 256, 257, 515})
    Sizes.push_back(N);
  for (size_t N : Sizes) {
    Dataset Rows = hostileRows(F, Width, N, Seed + N);
    const std::vector<double> Got = Serve(Rows);
    ASSERT_EQ(Got.size(), N);
    for (size_t R = 0; R < N; ++R) {
      const double Expected = oraclePredict(F, Rows.row(R).data());
      EXPECT_TRUE(sameBits(Got[R], Expected))
          << "batch " << N << " row " << R << ": " << Got[R] << " vs "
          << Expected;
    }
  }
}

/// Mean leaf values of \p F over \p Rows through \p Masks, or through the
/// node walk when \p Masks is null.
std::vector<double> serve(const FlatForest &F, const LeafMasks *Masks,
                          const Dataset &Rows) {
  const size_t N = Rows.numRows(), Width = Rows.numFeatures();
  std::vector<double> Out(N);
  if (Masks) {
    std::vector<const double *> Cols;
    for (size_t Fe = 0; Fe < Width; ++Fe)
      Cols.push_back(Rows.column(Fe));
    Masks->sumLeaves(N, Cols.data(), Out.data());
  } else {
    std::vector<std::vector<double>> RowData;
    for (size_t R = 0; R < N; ++R)
      RowData.push_back(Rows.row(R));
    sumForestLeaves(
        F, N, [&](size_t R) { return RowData[R].data(); }, Out.data());
  }
  for (double &P : Out)
    P /= static_cast<double>(F.numTrees());
  return Out;
}

/// The node walk over the forest's trees, which serves its out-of-bag
/// pass, matches the oracle. So does predictBatch from a fresh fit, whose
/// batches walk until they cross LeafMasks::BuildAfterRows rows, and so
/// do predictBatch and predict once BuildAfterRows more rows have been
/// served, through the masks if the forest's shape suits them.
void expectMatchesOracle(const RandomForest &Forest, size_t Width,
                         uint64_t Seed) {
  auto Batch = [&](const Dataset &Rows) { return Forest.predictBatch(Rows); };
  auto RowByRow = [&](const Dataset &Rows) {
    std::vector<double> Out;
    for (size_t R = 0; R < Rows.numRows(); ++R)
      Out.push_back(Forest.predict(Rows.row(R)));
    return Out;
  };
  expectMatchesOracle(Forest.flat(), Width, Seed, [&](const Dataset &Rows) {
    return serve(Forest.flat(), nullptr, Rows);
  });
  expectMatchesOracle(Forest.flat(), Width, Seed, Batch);
  Forest.predictBatch(hostileRows(Forest.flat(), Width,
                                  LeafMasks::BuildAfterRows, Seed));
  EXPECT_EQ(Forest.leafMasks() != nullptr,
            LeafMasks::suits(Forest.flat(), Width));
  expectMatchesOracle(Forest.flat(), Width, Seed, Batch);
  expectMatchesOracle(Forest.flat(), Width, Seed, RowByRow);
}

/// A tree of exactly \p Leaves leaves over \p Width features: grown, with
/// no floor on leaf size, on \p Leaves rows of distinct random values and
/// targets, so that every row ends in a leaf of its own.
FlatTree treeOfLeaves(size_t Leaves, size_t Width, uint64_t Seed) {
  std::vector<std::string> Names;
  for (size_t Fe = 0; Fe < Width; ++Fe)
    Names.push_back("f" + std::to_string(Fe));
  Dataset D(Names);
  Rng R(Seed);
  for (size_t I = 0; I < Leaves; ++I) {
    std::vector<double> X(Width);
    for (double &V : X)
      V = R.uniform(-10, 10);
    D.addRow(X, R.uniform(-100, 100));
  }
  DecisionTreeOptions Options;
  Options.MaxDepth = 200;
  Options.MinSamplesLeaf = 1;
  Options.MinSamplesSplit = 2;
  std::vector<size_t> Rows(Leaves);
  std::iota(Rows.begin(), Rows.end(), size_t{0});
  FlatTree Tree = growTree(D, Rows, DatasetPresort(D), Options, R.fork(1));
  EXPECT_EQ((Tree.Nodes.size() + 1) / 2, Leaves);
  return Tree;
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
    Options.NumTrees = 25;
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
  Options.NumTrees = 19;
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

TEST(FlatForest, NarrowForestsServeThroughLeafMasks) {
  // One to four features, trees of at most 128 leaves: predictions go
  // through the leaf masks once the forest has served BuildAfterRows rows.
  // At each width, 40 trees, and the fewest the form takes (six per
  // feature) to three more, so that the masks' groups of four trees end
  // on every tail: none, one, two and three trees.
  for (size_t Width = 1; Width <= 4; ++Width) {
    const size_t Fewest = LeafMasks::MinTreesPerFeature * Width;
    for (size_t Trees :
         {size_t{40}, Fewest, Fewest + 1, Fewest + 2, Fewest + 3}) {
      SCOPED_TRACE("width " + std::to_string(Width) + ", " +
                   std::to_string(Trees) + " trees");
      RandomForestOptions Options;
      Options.NumTrees = Trees;
      RandomForest Forest(Options);
      ASSERT_TRUE(bool(Forest.fit(smoothData(150, Width, 10 + Width))));
      ASSERT_TRUE(LeafMasks::suits(Forest.flat(), Width));
      EXPECT_EQ(Forest.leafMasks(), nullptr);
      expectMatchesOracle(Forest, Width,
                          Trees == 40 ? 500 + Width : 520 + 10 * Width + Trees);
      EXPECT_NE(Forest.leafMasks(), nullptr);
    }
  }
}

TEST(FlatForest, MasksAreBuiltByThePredictionThatCrossesTheRowMark) {
  RandomForestOptions Options;
  Options.NumTrees = 30;
  RandomForest Forest(Options);
  const Dataset Train = smoothData(150, 4, 30);
  ASSERT_TRUE(bool(Forest.fit(Train)));
  Forest.predictBatch(
      hostileRows(Forest.flat(), 4, LeafMasks::BuildAfterRows - 1, 31));
  EXPECT_EQ(Forest.leafMasks(), nullptr);
  const Dataset One = hostileRows(Forest.flat(), 4, 1, 32);
  const double Got = Forest.predict(One.row(0));
  ASSERT_NE(Forest.leafMasks(), nullptr);
  EXPECT_TRUE(sameBits(Got, oraclePredict(Forest.flat(), One.row(0).data())));
  // A new fit starts walking again.
  ASSERT_TRUE(bool(Forest.fit(Train)));
  EXPECT_EQ(Forest.leafMasks(), nullptr);

  // Threads predicting at once: one builds while the others walk, and
  // every prediction matches the oracle.
  std::vector<Dataset> Batches;
  for (size_t T = 0; T < 4; ++T)
    Batches.push_back(hostileRows(Forest.flat(), 4, 64 * 12, 40 + T));
  std::vector<std::vector<double>> Got4(4);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      for (size_t B = 0; B < 12; ++B) {
        Dataset Part(Batches[T].featureNames());
        for (size_t R = 64 * B; R < 64 * (B + 1); ++R)
          Part.addRow(Batches[T].row(R), 0.0);
        for (double P : Forest.predictBatch(Part))
          Got4[T].push_back(P);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_NE(Forest.leafMasks(), nullptr);
  for (size_t T = 0; T < 4; ++T)
    for (size_t R = 0; R < Got4[T].size(); ++R)
      EXPECT_TRUE(sameBits(
          Got4[T][R], oraclePredict(Forest.flat(), Batches[T].row(R).data())))
          << "thread " << T << " row " << R;
}

TEST(FlatForest, ForestsTheMasksDoNotSuitKeepTheNodeWalk) {
  RandomForestOptions Options;
  Options.NumTrees = 30;
  RandomForest Wide(Options);
  ASSERT_TRUE(bool(Wide.fit(smoothData(150, 5, 20))));
  expectMatchesOracle(Wide, 5, 600);
  EXPECT_EQ(Wide.leafMasks(), nullptr);

  // Four features, but fewer than six trees per feature, or more trees
  // than the tables are bounded for.
  for (size_t Trees :
       {4 * LeafMasks::MinTreesPerFeature - 1, LeafMasks::MaxTrees + 1}) {
    SCOPED_TRACE(std::to_string(Trees) + " trees");
    Options.NumTrees = Trees;
    RandomForest Forest(Options);
    ASSERT_TRUE(bool(Forest.fit(smoothData(150, 4, 22))));
    expectMatchesOracle(Forest, 4, 650);
    EXPECT_EQ(Forest.leafMasks(), nullptr);
  }

  // Four features, but trees grown to single rows on 600 rows have far
  // more than 128 leaves.
  Options.NumTrees = 30;
  Options.Tree.MinSamplesLeaf = 1;
  Options.Tree.MinSamplesSplit = 2;
  RandomForest Large(Options);
  ASSERT_TRUE(bool(Large.fit(smoothData(600, 4, 21))));
  size_t MostLeaves = 0;
  for (const FlatTree &Tree : Large.flat().Trees)
    MostLeaves = std::max(MostLeaves, (Tree.Nodes.size() + 1) / 2);
  EXPECT_GT(MostLeaves, LeafMasks::MaxLeaves);
  expectMatchesOracle(Large, 4, 700);
  EXPECT_EQ(Large.leafMasks(), nullptr);
}

TEST(LeafMasks, TreesAtTheMaskWordEdgesMatchOracle) {
  // The mask words' edges: one leaf, a full low word, the first leaf of
  // the high word, and a full high word, at every width the form takes,
  // with as few trees as the width allows.
  for (size_t Width = 1; Width <= LeafMasks::MaxFeatures; ++Width) {
    SCOPED_TRACE("width " + std::to_string(Width));
    FlatForest F;
    const size_t EdgeLeaves[] = {1, 64, 65, 128};
    for (size_t T = 0; T < LeafMasks::MinTreesPerFeature * Width; ++T)
      F.Trees.push_back(
          treeOfLeaves(EdgeLeaves[T % 4], Width, 30 * Width + T));
    ASSERT_TRUE(LeafMasks::suits(F, Width));
    const LeafMasks Masks = LeafMasks::build(F, Width);
    expectMatchesOracle(F, Width, 800 + Width, [&](const Dataset &Rows) {
      return serve(F, &Masks, Rows);
    });
  }
}

TEST(LeafMasks, SuitsForestsInsideTheShapeRule) {
  // Three features: 18 trees of 128 leaves suit the form; 17, or 18 and
  // one of 129 leaves, do not.
  FlatForest F;
  for (size_t T = 0; T < 3 * LeafMasks::MinTreesPerFeature; ++T)
    F.Trees.push_back(treeOfLeaves(128, 3, 40 + T));
  EXPECT_TRUE(LeafMasks::suits(F, 3));
  FlatForest Fewer = F;
  Fewer.Trees.pop_back();
  EXPECT_FALSE(LeafMasks::suits(Fewer, 3));
  F.Trees.push_back(treeOfLeaves(129, 3, 70));
  EXPECT_FALSE(LeafMasks::suits(F, 3));
  expectMatchesOracle(F, 3, 900, [&](const Dataset &Rows) {
    return serve(F, nullptr, Rows);
  });
  // Five features never suit it, whatever the trees.
  FlatForest Wide;
  for (size_t T = 0; T < 40; ++T)
    Wide.Trees.push_back(treeOfLeaves(8, 5, 80 + T));
  EXPECT_FALSE(LeafMasks::suits(Wide, 5));
  // One feature: 128 stumps suit it, 129 do not.
  FlatForest Many;
  for (size_t T = 0; T < LeafMasks::MaxTrees; ++T)
    Many.Trees.push_back(treeOfLeaves(2, 1, 200 + T));
  EXPECT_TRUE(LeafMasks::suits(Many, 1));
  Many.Trees.push_back(treeOfLeaves(2, 1, 400));
  EXPECT_FALSE(LeafMasks::suits(Many, 1));
}
