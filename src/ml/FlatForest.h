//===- ml/FlatForest.h - Flat tree-major forest inference -------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The node form of a tree ensemble (ml::RandomForest): each tree is one
/// compact node array, grown straight into this form, and one walk serves
/// the out-of-bag pass in fit and every prediction a forest makes before
/// it builds its leaf-mask form (ml/LeafMasks.h). The forests of more than
/// four features, of fewer than six trees per feature, of more than 128
/// trees or with a tree of more than 128 leaves, such as the study's,
/// never build one.
///
/// A node holds one value — the split threshold, or on a leaf the leaf
/// value — the split feature and two tree-local child indices. Leaves point
/// both children at themselves, so one walk step has no data-dependent
/// branch: node = Child[!(x[Feature] <= Value)], the growth rule's
/// `x <= t ? left : right` with NaN going right, and a row that has reached
/// its leaf stays on it.
///
/// sumForestLeaves walks the forest tree by tree over blocks of rows, four
/// rows in flight. The four walks are independent load chains, so their
/// latencies overlap, and each tree's nodes stay cache-hot across the whole
/// block. Rows leave the walk at their leaf: every row of the block first
/// walks a fixed stretch of levels, then the rows not yet on a leaf are
/// compacted into an active list, and only those walk on, stretch by
/// stretch, until none is left. A row stops on the same leaf a walk of the
/// tree's full depth ends on, and every row adds its leaves in ensemble
/// order, the same additions in the same order as a row-by-row walk, so
/// the sums are bit-identical to one.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_FLATFOREST_H
#define SLOPE_ML_FLATFOREST_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace slope {
namespace ml {

/// One flat tree node, 24 bytes. Padding it to 32, so that no node
/// straddles a cache line, made the study's walks slower, not faster: on
/// study-shaped forests (100 trees of about 250 leaves, 4 and 9 features,
/// 651 rows) at one thread of a shared 4-core Xeon, 32-byte nodes took
/// 1.16-1.19x the walk time and 1.08x the fit time (growth and out-of-bag
/// walk) of 24-byte ones, at the medians of 10 alternating pairs, and
/// whole Class B/C study calls 1.01x (7 of 10 pairs). The padding also
/// cost about 0.9 MB of study peak_rss_mb.
struct FlatNode {
  double Value;      ///< Split threshold; the leaf value on a leaf.
  uint32_t Feature;  ///< Split feature; 0 on a leaf.
  uint32_t Child[2]; ///< Tree-local: [0] if x <= Value, else [1].

  /// Internal nodes have two distinct children; a leaf loops to itself.
  bool isLeaf() const { return Child[0] == Child[1]; }
};

/// One tree in flat form: its nodes, root first, and its fitted depth.
struct FlatTree {
  std::vector<FlatNode> Nodes;
  /// Longest root-to-leaf path: the most levels any row walks.
  uint32_t Depth = 0;
};

/// A tree ensemble in flat form, trees in ensemble order.
struct FlatForest {
  std::vector<FlatTree> Trees;

  size_t numTrees() const { return Trees.size(); }
};

/// Out[i] = the sum, over the trees of \p F in ensemble order, of the leaf
/// value row i reaches. \p RowOf(i) returns a pointer to row i's features.
template <typename RowFn>
void sumForestLeaves(const FlatForest &F, size_t N, RowFn RowOf,
                     double *Out) {
  // Rows go through a block of pointers, filled once per block, so every
  // walk step reads x[Feature] straight off a row pointer. With RowOf(i)
  // called inside the tree loop instead, GCC 12 folds base + i * width
  // into each step's feature index: one more add on the step's dependent
  // load chain. fleet-rf serving without the block was slower in 17 of 20
  // alternating pairs on a 4-core Xeon, request_p50_ms 14.26 vs 13.84 ms
  // and items_per_s 564k vs 581k at the medians.
  constexpr size_t Block = 256;
  // Levels every row walks before the first compaction, and levels per
  // later stretch. fleet-rf's 100 trees are 13.9 levels deep on average,
  // and its rows reach their leaf after 7.8. Walking its 65,536-row trace
  // on one thread of a 4-core Xeon, the median of 60 interleaved rounds
  // was 2.25 us per row, against 3.01 us for a walk of the full depth.
  // First stretches of 4 to 8 levels with later ones of 2 to 4 read 2.1 to
  // 2.3 us. Starting from each tree's shallowest leaf (2.6 levels on
  // average) read 2.8 to 3.4 us: there the compactions cost more than the
  // steps they save.
  constexpr uint32_t FirstStretch = 6, Stretch = 3;
  const double *Rows[Block];
  uint32_t At[Block];     // The node each row of the block stands on.
  uint32_t Active[Block]; // Block rows not yet on a leaf, ascending.
  for (size_t B0 = 0; B0 < N; B0 += Block) {
    const size_t BN = std::min(Block, N - B0);
    for (size_t R = 0; R < BN; ++R)
      Rows[R] = RowOf(B0 + R);
    double *BOut = Out + B0;
    std::fill(BOut, BOut + BN, 0.0);
    for (const FlatTree &Tree : F.Trees) {
      const FlatNode *Nodes = Tree.Nodes.data();
      const uint32_t Depth = Tree.Depth;
      auto Step = [Nodes](uint32_t I, const double *Row) {
        const FlatNode &Node = Nodes[I];
        return Node.Child[!(Row[Node.Feature] <= Node.Value)];
      };
      for (size_t R = 0; R < BN; ++R) {
        Active[R] = static_cast<uint32_t>(R);
        At[R] = 0;
      }
      size_t NumActive = BN;
      uint32_t Walked = 0, Len = std::min(FirstStretch, Depth);
      while (NumActive > 0 && Walked < Depth) {
        size_t J = 0;
        for (; J + 4 <= NumActive; J += 4) {
          const uint32_t A0 = Active[J], A1 = Active[J + 1];
          const uint32_t A2 = Active[J + 2], A3 = Active[J + 3];
          const double *R0 = Rows[A0], *R1 = Rows[A1];
          const double *R2 = Rows[A2], *R3 = Rows[A3];
          uint32_t I0 = At[A0], I1 = At[A1], I2 = At[A2], I3 = At[A3];
          for (uint32_t D = 0; D < Len; ++D) {
            I0 = Step(I0, R0);
            I1 = Step(I1, R1);
            I2 = Step(I2, R2);
            I3 = Step(I3, R3);
          }
          At[A0] = I0;
          At[A1] = I1;
          At[A2] = I2;
          At[A3] = I3;
        }
        for (; J < NumActive; ++J) {
          const uint32_t A = Active[J];
          uint32_t I = At[A];
          for (uint32_t D = 0; D < Len; ++D)
            I = Step(I, Rows[A]);
          At[A] = I;
        }
        Walked += Len;
        Len = std::min(Stretch, Depth - Walked);
        // Keep the rows still short of a leaf, branch-free.
        size_t Kept = 0;
        for (J = 0; J < NumActive; ++J) {
          const uint32_t A = Active[J];
          Active[Kept] = A;
          Kept += !Nodes[At[A]].isLeaf();
        }
        NumActive = Kept;
      }
      for (size_t R = 0; R < BN; ++R)
        BOut[R] += Nodes[At[R]].Value;
    }
  }
}

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_FLATFOREST_H
