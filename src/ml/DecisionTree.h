//===- ml/DecisionTree.h - CART regression tree -----------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CART-style regression tree: greedy variance-reduction splits on one
/// feature at a time, mean prediction at the leaves. Used standalone and
/// as the base learner of ml::RandomForest.
///
/// Growth presorts: each feature's sample indices are sorted once per tree
/// by (value, target) — or derived in linear time from a forest-wide
/// DatasetPresort — and nodes are grown from an explicit work stack by
/// stable partitioning of the presorted index arrays into a second set
/// (the two alternate by depth), so the per-node cost is linear and the
/// growth loop performs zero heap allocations after the per-tree setup.
/// Per node, one pass runs the candidates' target prefix sums and the
/// node's mean sum as interleaved add chains, a division-free pass bounds
/// every split score, and only positions whose bound can reach the best
/// score are scored exactly (DecisionTree.cpp proves the bound).
///
/// The seed grower re-sorted the (value, target) pairs at every node. The
/// partition keeps every floating-point accumulation in that grower's
/// order, so trees and predictions are bit-identical to its. It lives on
/// in tests/reference as the oracle the property tests and the CI speedup
/// gate compare against.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_DECISIONTREE_H
#define SLOPE_ML_DECISIONTREE_H

#include "ml/FlatForest.h"
#include "ml/Model.h"
#include "support/Rng.h"

#include <cstdint>

namespace slope {
namespace ml {

/// Feature orderings of a whole dataset, computed once and shared by every
/// tree grown on (bootstrap) subsets of its rows. Each feature's rows are
/// sorted by (value, target, row); a tree derives the sorted order of its
/// own sample multiset from this with a linear bucket gather instead of
/// per-tree comparison sorts. Rows tied on (value, target) carry equal
/// targets, so any relative order of them yields bit-identical prefix
/// sums — which is why the shared ordering is exact, not approximate.
class DatasetPresort {
public:
  explicit DatasetPresort(const Dataset &Training);

  /// \returns row indices of the presorted dataset in ascending
  /// (value, target, row) order of feature \p Feat (numRows entries).
  const uint32_t *order(size_t Feat) const {
    assert(Feat < NumFeatures && "feature index out of range");
    return Orders.data() + Feat * NumRows;
  }

  size_t numRows() const { return NumRows; }
  size_t numFeatures() const { return NumFeatures; }

private:
  size_t NumRows;
  size_t NumFeatures;
  std::vector<uint32_t> Orders; // numFeatures() * numRows()
};

/// Hyper-parameters of a regression tree.
struct DecisionTreeOptions {
  unsigned MaxDepth = 16;        ///< Hard depth cap.
  size_t MinSamplesLeaf = 2;     ///< Minimum rows on each side of a split.
  size_t MinSamplesSplit = 4;    ///< Minimum rows to attempt a split.
  /// Number of candidate features per split; 0 means "all features"
  /// (plain CART). Random forests set this to mtry.
  size_t MaxFeatures = 0;
};

/// CART regression tree.
class DecisionTree : public Model {
public:
  explicit DecisionTree(DecisionTreeOptions Options = DecisionTreeOptions(),
                        Rng TreeRng = Rng(0x7EE5))
      : Options(Options), TreeRng(TreeRng) {}

  Expected<bool> fit(const Dataset &Training) override;

  /// Fits on the given subset of \p Training rows (bootstrap support).
  /// \p Master, when non-null, must be a DatasetPresort of \p Training;
  /// growth then derives each feature's sample ordering from it in linear
  /// time instead of sorting per tree. Ensembles build
  /// one DatasetPresort and share it across all their trees.
  Expected<bool> fitRows(const Dataset &Training,
                         const std::vector<size_t> &RowIndices,
                         const DatasetPresort *Master = nullptr);

  double predict(const std::vector<double> &Features) const override;
  std::vector<double> predictBatch(const Dataset &Data) const override;
  std::string name() const override { return "Tree"; }

  /// \returns the number of nodes in the fitted tree.
  size_t numNodes() const { return Nodes.size(); }

  /// \returns the fitted tree in the flat inference form of
  /// ml/FlatForest.h. The one producer of that form: RandomForest stores
  /// its trees through it.
  FlatTree flatten() const;

  /// \returns the maximum depth actually reached (root = 0), tracked
  /// during growth.
  unsigned fittedDepth() const {
    assert(Fitted && "depth of an unfitted tree");
    return MaxFittedDepth;
  }

private:
  struct Node {
    /// Split feature; SIZE_MAX marks a leaf.
    size_t Feature = SIZE_MAX;
    double Threshold = 0;   ///< Go left if x[Feature] <= Threshold.
    double LeafValue = 0;   ///< Mean target (leaves only).
    int32_t Left = -1;
    int32_t Right = -1;

    bool isLeaf() const { return Feature == SIZE_MAX; }
  };

  /// Presorted growth (see file comment).
  void fitPresorted(const Dataset &Training,
                    const std::vector<size_t> &RowIndices,
                    const DatasetPresort *Master);

  DecisionTreeOptions Options;
  Rng TreeRng;
  std::vector<Node> Nodes;
  unsigned MaxFittedDepth = 0;
  bool Fitted = false;
};

namespace detail {
/// Test hook bracketing the presorted growth loop: called with true right
/// after the per-tree scratch setup completes and with false when growth
/// finishes. The allocation-count test uses it to assert the loop itself
/// performs zero heap allocations. Null (disabled) by default.
extern void (*TreeGrowPhaseProbe)(bool Entering);
} // namespace detail

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_DECISIONTREE_H
