//===- ml/DecisionTree.h - CART regression tree -----------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CART-style regression tree: greedy variance-reduction splits on one
/// feature at a time, mean prediction at the leaves. The base learner of
/// ml::RandomForest, grown straight into the flat form every forest walk
/// reads (ml/FlatForest.h).
///
/// Growth presorts: each feature's sample indices are derived in linear
/// time from a forest-wide DatasetPresort, and nodes are grown from an
/// explicit work stack by stable partitioning of the presorted index
/// arrays into a second set (the two alternate by depth), so the per-node
/// cost is linear and the growth loop performs zero heap allocations
/// after the per-tree setup. Per node, one pass runs the candidates'
/// target prefix sums and the node's mean sum as interleaved add chains,
/// a division-free pass bounds every split score, and only positions
/// whose bound can reach the best score are scored exactly
/// (DecisionTree.cpp proves the bound).
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

#include "ml/Dataset.h"
#include "ml/FlatForest.h"
#include "support/Rng.h"

#include <cassert>
#include <cstdint>
#include <vector>

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

/// Grows one CART tree over \p RowIndices of \p Training (duplicates
/// allowed, as in a bootstrap sample; at least one row, and \p Training
/// has at least one feature), drawing the per-node mtry shuffles from
/// \p TreeRng. \p Presort must be a DatasetPresort of \p Training: each
/// feature's sample ordering is derived from it in linear time. \returns
/// the tree in the flat form of ml/FlatForest.h, nodes in pre-order.
FlatTree growTree(const Dataset &Training,
                  const std::vector<size_t> &RowIndices,
                  const DatasetPresort &Presort,
                  const DecisionTreeOptions &Options, Rng TreeRng);

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
