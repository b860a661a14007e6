//===- ml/FlatForest.h - Flat tree-major forest inference -------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inference form of a tree ensemble (ml::RandomForest): each tree is
/// one compact node array, and one walk serves every batch.
///
/// A node holds one value — the split threshold, or on a leaf the leaf
/// value — the split feature and two tree-local child indices. Leaves point
/// both children at themselves, so a walk of exactly the tree's fitted
/// depth ends on the row's leaf with no data-dependent branch:
/// node = Child[!(x[Feature] <= Value)], the growth rule's
/// `x <= t ? left : right` with NaN going right.
///
/// sumForestLeaves walks the forest tree by tree with four rows in flight.
/// The four walks are independent load chains, so their latencies overlap,
/// and each tree's nodes stay cache-hot across the whole batch. Every row
/// adds its leaves in ensemble order, the same additions in the same order
/// as a row-by-row walk, so the sums are bit-identical to one.
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

/// One flat tree node, aligned to 32 bytes so no node straddles a cache
/// line. With the natural 24-byte node, fleet-rf serving measured slower
/// on a 4-core Xeon: median request_p50_ms 14.1 vs 12.9 ms, slower in 10
/// of 10 alternating pairs.
/// The padding costs memory where many forests are alive at once: study
/// peak_rss_mb 9.9 vs 8.8 MB.
struct alignas(32) FlatNode {
  double Value;      ///< Split threshold; the leaf value on a leaf.
  uint32_t Feature;  ///< Split feature; 0 on a leaf.
  uint32_t Child[2]; ///< Tree-local: [0] if x <= Value, else [1].

  /// Internal nodes have two distinct children; a leaf loops to itself.
  bool isLeaf() const { return Child[0] == Child[1]; }
};

/// One tree in flat form: its nodes, root first, and its fitted depth.
struct FlatTree {
  std::vector<FlatNode> Nodes;
  uint32_t Depth = 0; ///< Longest root-to-leaf path: the walk length.
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
  const double *Rows[Block];
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
      size_t R = 0;
      for (; R + 4 <= BN; R += 4) {
        const double *R0 = Rows[R], *R1 = Rows[R + 1];
        const double *R2 = Rows[R + 2], *R3 = Rows[R + 3];
        uint32_t I0 = 0, I1 = 0, I2 = 0, I3 = 0;
        for (uint32_t D = 0; D < Depth; ++D) {
          I0 = Step(I0, R0);
          I1 = Step(I1, R1);
          I2 = Step(I2, R2);
          I3 = Step(I3, R3);
        }
        BOut[R] += Nodes[I0].Value;
        BOut[R + 1] += Nodes[I1].Value;
        BOut[R + 2] += Nodes[I2].Value;
        BOut[R + 3] += Nodes[I3].Value;
      }
      for (; R < BN; ++R) {
        uint32_t I = 0;
        for (uint32_t D = 0; D < Depth; ++D)
          I = Step(I, Rows[R]);
        BOut[R] += Nodes[I].Value;
      }
    }
  }
}

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_FLATFOREST_H
