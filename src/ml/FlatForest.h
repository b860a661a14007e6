//===- ml/FlatForest.h - Flat tree-major forest inference -------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inference form of a tree ensemble, shared by the FP forest
/// (ml::RandomForest) and its fixed-point twin (ml::QuantizedModel). Each
/// tree is one compact node array, and one templated walk serves both.
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
/// as a row-by-row walk, so FP sums are bit-identical to one.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_FLATFOREST_H
#define SLOPE_ML_FLATFOREST_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace slope {
namespace ml {

/// One flat tree node with thresholds of type \p T: double on the FP
/// forest, int32 feature quanta on the quantized twin. Aligned to a power
/// of two (16 or 32 bytes), so no node straddles a cache line. With the
/// natural 24-byte FP node, fleet-rf serving measured slower on a 4-core
/// Xeon: median request_p50_ms 14.1 vs 12.9 ms, slower in 10 of 10
/// alternating pairs.
/// The padding costs memory where many forests are alive at once: study
/// peak_rss_mb 9.9 vs 8.8 MB.
template <typename T> struct alignas(sizeof(T) == 4 ? 16 : 32) FlatNode {
  T Value;           ///< Split threshold; the leaf value on a leaf.
  uint32_t Feature;  ///< Split feature; 0 on a leaf.
  uint32_t Child[2]; ///< Tree-local: [0] if x <= Value, else [1].

  /// Internal nodes have two distinct children; a leaf loops to itself.
  bool isLeaf() const { return Child[0] == Child[1]; }
};

/// One tree in flat form: its nodes, root first, and its fitted depth.
template <typename T> struct FlatTree {
  std::vector<FlatNode<T>> Nodes;
  uint32_t Depth = 0; ///< Longest root-to-leaf path: the walk length.
};

/// A tree ensemble in flat form, trees in ensemble order. \p T is the
/// threshold (and row) type, \p Acc the type leaf values accumulate in.
/// When T cannot hold a leaf value (int32 thresholds, int64 leaf quanta),
/// a leaf's Value indexes LeafValues instead.
template <typename T, typename Acc = T> struct FlatForest {
  std::vector<FlatTree<T>> Trees;
  std::vector<Acc> LeafValues; ///< Used only when T differs from Acc.

  size_t numTrees() const { return Trees.size(); }

  Acc leafValue(const FlatNode<T> &Leaf) const {
    if constexpr (std::is_same_v<T, Acc>)
      return Leaf.Value;
    else
      return LeafValues[static_cast<size_t>(Leaf.Value)];
  }
};

/// Out[i] = the sum, over the trees of \p F in ensemble order, of the leaf
/// value row i reaches. \p RowOf(i) returns a pointer to row i's features.
template <typename T, typename Acc, typename RowFn>
void sumForestLeaves(const FlatForest<T, Acc> &F, size_t N, RowFn RowOf,
                     Acc *Out) {
  // Rows go through a block of pointers, filled once per block. The FP
  // forest serves the same without it (fleet-rf, 5 of 10 pairs), but the
  // quantized twin then falls behind the hand-unrolled walk it replaced:
  // fleet-rf-q items_per_s 7% lower, in 10 of 10 alternating pairs on
  // the same 4-core Xeon.
  constexpr size_t Block = 256;
  const T *Rows[Block];
  for (size_t B0 = 0; B0 < N; B0 += Block) {
    const size_t BN = std::min(Block, N - B0);
    for (size_t R = 0; R < BN; ++R)
      Rows[R] = RowOf(B0 + R);
    Acc *BOut = Out + B0;
    std::fill(BOut, BOut + BN, Acc(0));
    for (const FlatTree<T> &Tree : F.Trees) {
      const FlatNode<T> *Nodes = Tree.Nodes.data();
      const uint32_t Depth = Tree.Depth;
      auto Step = [Nodes](uint32_t I, const T *Row) {
        const FlatNode<T> &Node = Nodes[I];
        return Node.Child[!(Row[Node.Feature] <= Node.Value)];
      };
      size_t R = 0;
      for (; R + 4 <= BN; R += 4) {
        const T *R0 = Rows[R], *R1 = Rows[R + 1];
        const T *R2 = Rows[R + 2], *R3 = Rows[R + 3];
        uint32_t I0 = 0, I1 = 0, I2 = 0, I3 = 0;
        for (uint32_t D = 0; D < Depth; ++D) {
          I0 = Step(I0, R0);
          I1 = Step(I1, R1);
          I2 = Step(I2, R2);
          I3 = Step(I3, R3);
        }
        BOut[R] += F.leafValue(Nodes[I0]);
        BOut[R + 1] += F.leafValue(Nodes[I1]);
        BOut[R + 2] += F.leafValue(Nodes[I2]);
        BOut[R + 3] += F.leafValue(Nodes[I3]);
      }
      for (; R < BN; ++R) {
        uint32_t I = 0;
        for (uint32_t D = 0; D < Depth; ++D)
          I = Step(I, Rows[R]);
        BOut[R] += F.leafValue(Nodes[I]);
      }
    }
  }
}

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_FLATFOREST_H
