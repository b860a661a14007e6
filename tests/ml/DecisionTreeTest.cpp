//===- tests/ml/DecisionTreeTest.cpp - Regression tree tests -------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/DecisionTree.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace slope;
using namespace slope::ml;

namespace {
Dataset makeStepData() {
  // y = 0 for x < 5, y = 10 for x >= 5: one split suffices.
  Dataset D({"x"});
  for (int I = 0; I < 10; ++I)
    D.addRow({static_cast<double>(I)}, I < 5 ? 0.0 : 10.0);
  return D;
}

/// Grows a tree over \p Rows of \p D (all rows when empty).
FlatTree fitTree(const Dataset &D,
                 DecisionTreeOptions Options = DecisionTreeOptions(),
                 std::vector<size_t> Rows = {}) {
  if (Rows.empty()) {
    Rows.resize(D.numRows());
    std::iota(Rows.begin(), Rows.end(), size_t{0});
  }
  return growTree(D, Rows, DatasetPresort(D), Options, Rng(0x7EE5));
}

/// The leaf value \p X reaches, through the forest walk.
double predict(const FlatTree &Tree, const std::vector<double> &X) {
  FlatForest One;
  One.Trees.push_back(Tree);
  double Sum;
  sumForestLeaves(One, 1, [&](size_t) { return X.data(); }, &Sum);
  return Sum;
}
} // namespace

TEST(DecisionTree, LearnsStepFunction) {
  FlatTree T = fitTree(makeStepData());
  EXPECT_DOUBLE_EQ(predict(T, {2}), 0.0);
  EXPECT_DOUBLE_EQ(predict(T, {7}), 10.0);
}

TEST(DecisionTree, SingleRowIsLeaf) {
  Dataset D({"x"});
  D.addRow({1}, 42);
  FlatTree T = fitTree(D);
  EXPECT_EQ(T.Nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(predict(T, {99}), 42);
}

TEST(DecisionTree, ConstantTargetsStayOneLeaf) {
  Dataset D({"x"});
  for (int I = 0; I < 20; ++I)
    D.addRow({static_cast<double>(I)}, 5.0);
  FlatTree T = fitTree(D);
  // No variance to reduce: splitting gains nothing, but implementations
  // may still split on ties; prediction must remain exact either way.
  EXPECT_DOUBLE_EQ(predict(T, {3}), 5.0);
  EXPECT_DOUBLE_EQ(predict(T, {-100}), 5.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  DecisionTreeOptions Options;
  Options.MaxDepth = 2;
  Options.MinSamplesLeaf = 1;
  Options.MinSamplesSplit = 2;
  Dataset D({"x"});
  for (int I = 0; I < 64; ++I)
    D.addRow({static_cast<double>(I)}, static_cast<double>(I));
  EXPECT_LE(fitTree(D, Options).Depth, 2u);
}

TEST(DecisionTree, DeepTreeInterpolatesTraining) {
  DecisionTreeOptions Options;
  Options.MaxDepth = 30;
  Options.MinSamplesLeaf = 1;
  Options.MinSamplesSplit = 2;
  Dataset D({"x"});
  for (int I = 0; I < 32; ++I)
    D.addRow({static_cast<double>(I)}, static_cast<double>(I * I % 7));
  FlatTree T = fitTree(D, Options);
  for (int I = 0; I < 32; ++I)
    EXPECT_DOUBLE_EQ(predict(T, {static_cast<double>(I)}),
                     static_cast<double>(I * I % 7));
}

TEST(DecisionTree, CannotExtrapolateBeyondTrainingRange) {
  // The key property behind the paper's RF max-error blow-ups: a tree
  // predicts within [min(y), max(y)] of its training targets.
  Dataset D({"x"});
  for (int I = 0; I < 50; ++I)
    D.addRow({static_cast<double>(I)}, 2.0 * I);
  double FarOut = predict(fitTree(D), {1000.0});
  EXPECT_LE(FarOut, 98.0 + 1e-12);
  EXPECT_GE(FarOut, 0.0);
}

TEST(DecisionTree, MultiFeatureSplitsOnInformativeFeature) {
  // Feature 0 is noise, feature 1 carries the signal.
  Dataset D({"noise", "signal"});
  for (int I = 0; I < 40; ++I)
    D.addRow({static_cast<double>(I % 3), static_cast<double>(I)},
             I < 20 ? 1.0 : 9.0);
  FlatTree T = fitTree(D);
  EXPECT_DOUBLE_EQ(predict(T, {0, 5}), 1.0);
  EXPECT_DOUBLE_EQ(predict(T, {0, 35}), 9.0);
}

TEST(DecisionTree, FitRowsUsesOnlySelectedRows) {
  Dataset D({"x"});
  for (int I = 0; I < 10; ++I)
    D.addRow({static_cast<double>(I)}, I < 5 ? 0.0 : 100.0);
  // Train only on the low-target half.
  FlatTree T = fitTree(D, DecisionTreeOptions(), {0, 1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(predict(T, {9}), 0.0);
}

TEST(DecisionTree, MinSamplesLeafPreventsTinyLeaves) {
  DecisionTreeOptions Options;
  Options.MinSamplesLeaf = 5;
  Options.MinSamplesSplit = 10;
  Dataset D({"x"});
  for (int I = 0; I < 9; ++I)
    D.addRow({static_cast<double>(I)}, static_cast<double>(I));
  FlatTree T = fitTree(D, Options);
  // 9 rows < MinSamplesSplit: the tree must be a single leaf at mean 4.
  EXPECT_EQ(T.Nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(predict(T, {0}), 4.0);
}
