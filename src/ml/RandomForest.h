//===- ml/RandomForest.h - Bagged regression forest -------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random forest regression (Breiman 2001): bootstrap-sampled CART trees
/// with per-split feature subsampling, averaged predictions. The paper's
/// RF family (Table 4). Note the forest predicts within the convex hull of
/// training targets — it cannot extrapolate, which is exactly why compound
/// test applications (whose counters exceed the training range) produce
/// the large maximum errors the paper reports.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_RANDOMFOREST_H
#define SLOPE_ML_RANDOMFOREST_H

#include "ml/DecisionTree.h"
#include "ml/Model.h"

namespace slope {
namespace ml {

/// Hyper-parameters of a random forest.
struct RandomForestOptions {
  size_t NumTrees = 100;
  DecisionTreeOptions Tree;
  /// mtry as a fraction of the feature count (ceil); 1/3 is the classic
  /// regression default. Ignored if Tree.MaxFeatures != 0.
  double FeatureFraction = 1.0 / 3.0;
  uint64_t Seed = 0xF0535;
};

/// Bagged CART ensemble. Each tree is grown straight into its flat form
/// (ml::growTree, ml/FlatForest.h), which the out-of-bag pass and every
/// prediction walk.
class RandomForest : public Model {
public:
  explicit RandomForest(RandomForestOptions Options = RandomForestOptions())
      : Options(Options) {}

  Expected<bool> fit(const Dataset &Training) override;
  double predict(const std::vector<double> &Features) const override;
  std::vector<double> predictBatch(const Dataset &Data) const override;
  std::string name() const override { return "RF"; }

  size_t numTrees() const { return Flat.numTrees(); }

  /// The fitted trees in flat form, in ensemble order.
  const FlatForest &flat() const {
    assert(Fitted && "model not fitted");
    return Flat;
  }

  /// Out-of-bag mean-squared error estimated during fit; NaN if no row was
  /// ever out of bag (tiny datasets).
  double oobMse() const {
    assert(Fitted && "model not fitted");
    return OobMse;
  }

private:
  RandomForestOptions Options;
  FlatForest Flat;
  size_t Width = 0; ///< Feature count of the training data.
  double OobMse = 0;
  bool Fitted = false;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_RANDOMFOREST_H
