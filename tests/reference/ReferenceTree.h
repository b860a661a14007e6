//===- tests/reference/ReferenceTree.h - Seed CART oracle -------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed tree grower, kept as the oracle the presorted production
/// grower (ml::growTree) must reproduce bit for bit: it re-sorts the
/// (value, target) pairs of every node. Trees come out in the flat form
/// ml::growTree returns, so the two compare node by node. The forest
/// helper replays RandomForest::fit's random streams around it.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_TESTS_REFERENCE_REFERENCETREE_H
#define SLOPE_TESTS_REFERENCE_REFERENCETREE_H

#include "ml/RandomForest.h"

#include <string>
#include <vector>

namespace slope {
namespace reference {

/// Grows one CART tree over \p Rows of \p Training (duplicates allowed, as
/// in a bootstrap sample) the seed way, drawing the per-node mtry shuffles
/// from \p TreeRng. \returns it pre-order with self-looping leaves and the
/// fitted depth, the form of ml::growTree.
ml::FlatTree growTree(const ml::Dataset &Training,
                      const std::vector<size_t> &Rows,
                      const ml::DecisionTreeOptions &Options, Rng TreeRng);

/// A forest grown by the oracle.
struct Forest {
  ml::FlatForest Flat;
  double OobMse = 0; ///< NaN when no row was ever out of bag.
};

/// Grows the forest RandomForest(Options).fit(Training) grows, with the
/// same streams: tree T draws N below(N) bootstrap rows from
/// Rng(Options.Seed).fork(T) and grows from that stream's fork("splits")
/// at the resolved mtry. Requires a non-empty training set with features.
Forest growForest(const ml::Dataset &Training,
                  const ml::RandomForestOptions &Options);

/// Recounts the out-of-bag error of \p Flat, a forest fitted on
/// \p Training with \p Seed: each tree's bootstrap redrawn from its forked
/// stream, each out-of-bag row walked down the tree one branch at a time,
/// the errors summed in the forest's order. NaN when no row was ever out
/// of bag.
double oobMse(const ml::FlatForest &Flat, const ml::Dataset &Training,
              uint64_t Seed);

/// \returns each row's mean leaf value over the trees of \p Flat, walked
/// one row and one branch at a time.
std::vector<double> predictForest(const ml::FlatForest &Flat,
                                  const ml::Dataset &Data);

/// \returns whether \p A and \p B are the same trees bit for bit: depths,
/// node counts, features, children and values (any NaN equal to any NaN).
/// On a difference, \p Where names the first differing tree and node.
bool sameForest(const ml::FlatForest &A, const ml::FlatForest &B,
                std::string &Where);

/// Bit equality of two doubles, with any NaN equal to any NaN.
bool sameValue(double A, double B);

} // namespace reference
} // namespace slope

#endif // SLOPE_TESTS_REFERENCE_REFERENCETREE_H
