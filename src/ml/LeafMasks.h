//===- ml/LeafMasks.h - Leaf-mask inference for small forests ---*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second inference form of a tree ensemble (ml::RandomForest), for
/// forests whose trees are small and whose rows are narrow: a row finds
/// its leaf in each tree by ANDing one bit mask per feature instead of
/// walking nodes.
///
/// The form has three parts:
/// - per feature, the forest's sorted distinct split thresholds. A row's
///   rank on a feature is the count of them it is not `<=` to (NaN
///   compares with nothing, so it ranks past all of them);
/// - per tree and feature, a byte table from that rank to one of the
///   tree's own intervals: the tree's thresholds on the feature cut the
///   line into at most 128 of them;
/// - per tree, feature and interval, a 128-bit mask of the leaves whose
///   box (the intervals every path from the root to the leaf admits)
///   contains that interval. A table entry holds its interval's index
///   among all of the tree's masks.
///
/// A row's leaf in a tree is the one bit left after ANDing its masks over
/// the features: the growth rule sends `x <= t` left and everything else,
/// NaN included, right, and a rank is `<=` a threshold exactly when the
/// value is, so the leaves' boxes partition rank space the way the tree
/// partitions the rows.
///
/// Rows are served a 256-row block at a time. Each feature's ranks come
/// from binary searches whose steps depend on the threshold count alone,
/// so the block's searches step together and each row's probes overlap
/// with the others'; a step is arithmetic on the compare's flag, with no
/// select that GCC could turn into a branch (stepPast in LeafMasks.cpp).
/// Trees then pass over the block four at a time: a row's ranks and
/// running sum stay in registers across the four, and each tree costs the
/// row one table byte and one 16-byte mask per feature, ANDed as GCC
/// vectors, and one leaf value. Rows add their leaves in ensemble order,
/// the same additions in the same order as sumForestLeaves
/// (ml/FlatForest.h), so every sum is bit-identical to the node walk's.
///
/// Selection is by shape: a forest can take this form when it has at
/// most MaxFeatures features, at least MinTreesPerFeature trees per
/// feature, at most MaxTrees trees and no tree of more than MaxLeaves
/// leaves (suits()). The ranks cost one binary search per feature and
/// row, shared by all trees, and each tree then costs a row one table
/// byte and one mask per feature and one leaf, so the form gains with the
/// tree count and loses with the width. Node walk time over mask time,
/// one thread of a shared 4-core Xeon, 4,096 uniform random rows through
/// forests fitted on 200 such rows, median of 15 rounds: 1 feature 1.64x
/// at 1 tree, 2.76x at 2, 4.77x at 6; 2 features 1.05x at 1, 1.65x at 2,
/// 3.15x at 6, 4.11x at 12; 3 features 0.88x at 1, 1.38x at 2, 1.77x at
/// 3, 3.89x at 18; 4 features 0.76x at 1, 1.17x at 2, 1.60x at 4, 2.88x
/// at 12, 3.56x at 24 and 4.66x at 100. The masks break even at about
/// half a tree per feature. The rule still asks for 6 trees per feature,
/// just past where the kernel before this one broke even (a rank step
/// that compiled to a branch, one tree per pass: 0.13x at 1 tree of 4
/// features, 0.89x at 20, 1.03x at 24 and 2.17x at 100, in runs
/// alternating with these), since every forest the program's drivers
/// serve through the masks has 100 trees.
/// Wider forests need far more trees (with that earlier kernel, a wider
/// variant of the form read 0.80x for 6 features and 0.57x for 9 at 30
/// trees, 1.58x and 1.07x at 100), and four features is also the paper's
/// single-run PMC budget (its PA4 online model).
///
/// The build is paid once, by the prediction that takes the rows a
/// forest has walked to BuildAfterRows (ml::RandomForest). On the same
/// host a one-thread build costs what the walk spends on 320 to 1,470
/// rows, about 900 at most shapes (0.03 ms for 3 trees of 1 feature, 1.2
/// to 2.1 ms for 100 trees of 4), so building after 1,024 walked rows
/// costs a forest at worst about twice what the cheaper form would have.
/// A fit that predicts only a test set never builds: bench_table3_lr and
/// bench_table4_rf each fit four 100-tree forests over 4 features and
/// predict 50 rows with each, and a build at every fit cost them 10 and
/// 17 ms more CPU per run (7% and 23%; one thread, medians of 20
/// alternating pairs).
///
/// Memory: the tables take, per tree, one byte per distinct forest
/// threshold plus one per feature, so they grow as trees x distinct
/// thresholds: at most trees x (127 x trees + 4) bytes, quadratic in the
/// tree count, since each tree's bootstrap brings thresholds of its own.
/// MaxTrees bounds them at 2.1 MB, about the L2 of the Xeon measured
/// here. Past it the gain shrinks as the tables spill: with the earlier
/// kernel, 4-feature forests fitted on 20,000 uniform random rows read
/// 1.78x at 128 trees (1.1 MB of tables), 1.24x at 200 (2.5 MB) and 1.02x
/// at 300 (5.4 MB, five times the nodes).
/// fleet-rf's forest (100 trees of about 76 leaves, 4 features) takes
/// 0.45 MB: 265 KB of tables, 123 KB of masks and 59 KB of leaves,
/// against 0.36 MB of nodes.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_LEAFMASKS_H
#define SLOPE_ML_LEAFMASKS_H

#include "ml/FlatForest.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slope {
namespace ml {

/// The leaf-mask form of one forest. See the file comment.
class LeafMasks {
public:
  /// The widest forest, the fewest trees per feature, the most trees and
  /// the largest tree the form takes.
  static constexpr size_t MaxFeatures = 4;
  static constexpr size_t MinTreesPerFeature = 6;
  static constexpr size_t MaxTrees = 128;
  static constexpr size_t MaxLeaves = 128;
  /// Rows a forest serves through its node walk before it builds the form.
  static constexpr size_t BuildAfterRows = 1024;

  /// \returns whether \p F, a forest over \p Width features, takes the
  /// form: at most MaxFeatures features, at least MinTreesPerFeature
  /// trees per feature, at most MaxTrees trees, no tree of more than
  /// MaxLeaves leaves, and no NaN threshold (which no rank can stand for).
  static bool suits(const FlatForest &F, size_t Width);

  /// \returns the form of \p F, a forest over \p Width features that
  /// suits() it.
  static LeafMasks build(const FlatForest &F, size_t Width);

  /// Out[i] = the sum, over the trees in ensemble order, of the leaf value
  /// row i reaches; Cols[f][i] is feature f of row i, for the form's
  /// Width features. Bit-identical to sumForestLeaves over the forest the
  /// form was built from.
  void sumLeaves(size_t N, const double *const *Cols, double *Out) const;

private:
  /// Leaves 0..63 in element 0 and 64..127 in element 1: one 16-byte GCC
  /// vector, so that a row's masks AND in one instruction.
  using Mask = uint64_t __attribute__((vector_size(16)));

  /// Rows ranked at a time, whose ranks every tree then reads.
  static constexpr size_t Block = 256;

  template <unsigned W>
  void sumLeavesOf(size_t N, const double *const *Cols, double *Out) const;
  /// Out[r] += the leaves trees T0 to T0 + G - 1 give row r, in that
  /// order, for the BN rows of a block; Rank[f][r] indexes row r's entry
  /// in feature f's table of any tree.
  template <unsigned W, unsigned G>
  void addTrees(size_t T0, size_t BN, const uint32_t (&Rank)[W][Block],
                double *Out) const;

  uint32_t Width = 0;
  uint32_t NumTrees = 0;
  /// Sorted distinct thresholds, feature-major: feature f's are
  /// [ThresholdBegin[f], ThresholdBegin[f + 1]).
  std::vector<double> Thresholds;
  uint32_t ThresholdBegin[MaxFeatures + 1] = {};
  /// Per tree, TableStride bytes: feature f's table, indexed by rank, at
  /// ThresholdBegin[f] + f (one entry per rank). An entry is the index,
  /// among the tree's masks, of the mask of the rank's interval: the
  /// interval plus the count of the tree's intervals on the features
  /// before f, at most 127 splits + 4 = 131 masks in all.
  std::vector<uint8_t> Tables;
  uint32_t TableStride = 0;
  /// Per tree, the first of its masks: per feature in feature order, one
  /// per interval.
  std::vector<uint32_t> MaskBegin;
  std::vector<Mask> Masks;
  /// Per tree, the first of its leaf values; leaves in node order.
  std::vector<uint32_t> LeafBegin;
  std::vector<double> Leaves;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_LEAFMASKS_H
