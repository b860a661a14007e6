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
#include "ml/LeafMasks.h"
#include "ml/Model.h"

#include <atomic>
#include <memory>
#include <optional>

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
/// (ml::growTree, ml/FlatForest.h), which the out-of-bag pass and
/// predictions walk. A forest whose shape suits the leaf-mask form
/// (ml/LeafMasks.h: at most four features, six trees per feature, at most
/// 128 trees of at most 128 leaves) builds it once its predictions have
/// walked LeafMasks::BuildAfterRows rows, and serves through it from then
/// on. Both forms give the same bits.
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

  /// The leaf-mask form predictions serve through; null while they walk
  /// the nodes: the forest's shape does not suit the form, or its
  /// predictions have not yet walked LeafMasks::BuildAfterRows rows.
  const LeafMasks *leafMasks() const {
    assert(Fitted && "model not fitted");
    return Lazy && Lazy->Built ? &*Lazy->Masks : nullptr;
  }

  /// Out-of-bag mean-squared error estimated during fit; NaN if no row was
  /// ever out of bag (tiny datasets).
  double oobMse() const {
    assert(Fitted && "model not fitted");
    return OobMse;
  }

private:
  /// The leaf-mask form of a forest whose shape suits it, built by the
  /// one prediction that takes the rows walked past BuildAfterRows. Other
  /// predictions keep walking while it builds; Masks is read only once
  /// Built is set.
  struct LazyMasks {
    std::atomic<size_t> WalkedRows{0};
    std::atomic<bool> Built{false};
    std::optional<LeafMasks> Masks;
  };

  /// \returns the form to serve \p N rows through, building it if these
  /// rows take the walk to BuildAfterRows; null to walk the nodes.
  const LeafMasks *masksFor(size_t N) const;

  RandomForestOptions Options;
  FlatForest Flat;
  /// Null when the forest's shape does not suit the leaf-mask form.
  std::unique_ptr<LazyMasks> Lazy;
  size_t Width = 0; ///< Feature count of the training data.
  double OobMse = 0;
  bool Fitted = false;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_RANDOMFOREST_H
