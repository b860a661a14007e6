//===- ml/LeafMasks.cpp - Leaf-mask inference for small forests ------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/LeafMasks.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

using namespace slope;
using namespace slope::ml;

namespace {

/// \returns \p Step if \p X is not `<=` to \p Probe, else 0: the one step
/// of every binary search here. The compare's flag is widened to a mask
/// of all ones or all zeros (0 - 1 or 0 - 0) and ANDed with the step, so
/// the step is arithmetic on the flag, with no select left for GCC to turn
/// into a branch; it compiles to a compare, sbb, and, add. Written as a
/// conditional add, `!(X <= Probe) ? Step : 0`, whether a step branched
/// was up to GCC's if-conversion in each context: GCC 12 at -O2 made the
/// rank search's step and the cuts' search's a compare and a jump, taken
/// at random, and the thresholds' search's a cmov.
template <typename T> uint32_t stepPast(T X, T Probe, uint32_t Step) {
  return Step & (0u - static_cast<uint32_t>(!(X <= Probe)));
}

/// \returns the count of the \p N ascending values \p Sorted holds that
/// \p X is not `<=` to, by a binary search whose steps depend on N alone
/// and never branch (stepPast). For an \p X among them, that is the index
/// of its first copy.
template <typename T>
uint32_t countNotAbove(const T *Sorted, uint32_t N, T X) {
  if (N == 0)
    return 0;
  uint32_t Pos = 0;
  for (uint32_t Len = N; Len > 1;) {
    const uint32_t Half = Len / 2;
    Pos += stepPast(X, Sorted[Pos + Half - 1], Half);
    Len -= Half;
  }
  return Pos + stepPast(X, Sorted[Pos], 1);
}

/// Out[i] = Base + countNotAbove(Th, N, X[i]) for \p BN values, the
/// search stepping every value together: each value's probes are
/// independent loads that overlap across values.
void rankBlock(const double *Th, uint32_t N, const double *X, size_t BN,
               uint32_t Base, uint32_t *Out) {
  std::fill(Out, Out + BN, 0u);
  for (uint32_t Len = N; Len > 1;) {
    const uint32_t Half = Len / 2;
    const double *Probe = Th + Half - 1;
    for (size_t I = 0; I < BN; ++I)
      Out[I] += stepPast(X[I], Probe[Out[I]], Half);
    Len -= Half;
  }
  if (N == 0)
    std::fill(Out, Out + BN, Base);
  else
    for (size_t I = 0; I < BN; ++I)
      Out[I] += Base + stepPast(X[I], Th[Out[I]], 1);
}

} // namespace

bool LeafMasks::suits(const FlatForest &F, size_t Width) {
  if (Width == 0 || Width > MaxFeatures ||
      F.numTrees() < MinTreesPerFeature * Width || F.numTrees() > MaxTrees)
    return false;
  // Every internal node has two children, so a tree of n nodes has
  // (n + 1) / 2 leaves.
  for (const FlatTree &Tree : F.Trees) {
    if ((Tree.Nodes.size() + 1) / 2 > MaxLeaves)
      return false;
    for (const FlatNode &Node : Tree.Nodes)
      if (!Node.isLeaf() && std::isnan(Node.Value))
        return false;
  }
  return true;
}

LeafMasks LeafMasks::build(const FlatForest &F, size_t Width) {
  assert(Width >= 1 && Width <= MaxFeatures && "too wide for leaf masks");
  const size_t NumTrees = F.numTrees();
  LeafMasks M;
  M.Width = static_cast<uint32_t>(Width);
  M.NumTrees = static_cast<uint32_t>(NumTrees);
  // Size every array first: per feature the split count (a bound on its
  // distinct thresholds), per tree its leaves, and per tree and feature
  // one interval more than its splits there.
  uint32_t Splits[MaxFeatures] = {};
  M.MaskBegin.resize(NumTrees + 1);
  M.LeafBegin.resize(NumTrees + 1);
  for (size_t T = 0; T < NumTrees; ++T) {
    assert((F.Trees[T].Nodes.size() + 1) / 2 <= MaxLeaves &&
           "a tree too large for leaf masks");
    uint32_t TreeSplits[MaxFeatures] = {};
    for (const FlatNode &Node : F.Trees[T].Nodes) {
      if (Node.isLeaf())
        continue;
      assert(!std::isnan(Node.Value) && "a NaN threshold has no rank");
      assert(Node.Feature < Width && "split feature outside the forest");
      ++TreeSplits[Node.Feature];
    }
    uint32_t Intervals = 0;
    for (size_t Fe = 0; Fe < Width; ++Fe) {
      Splits[Fe] += TreeSplits[Fe];
      Intervals += TreeSplits[Fe] + 1;
    }
    M.MaskBegin[T + 1] = M.MaskBegin[T] + Intervals;
    M.LeafBegin[T + 1] =
        M.LeafBegin[T] +
        static_cast<uint32_t>((F.Trees[T].Nodes.size() + 1) / 2);
  }

  // Per feature, the forest's thresholds, sorted once and deduplicated in
  // place (== merges -0 and +0, which every `<=` treats alike).
  for (size_t Fe = 0; Fe < Width; ++Fe)
    M.ThresholdBegin[Fe + 1] = M.ThresholdBegin[Fe] + Splits[Fe];
  M.Thresholds.resize(M.ThresholdBegin[Width]);
  uint32_t Fill[MaxFeatures];
  std::copy_n(M.ThresholdBegin, MaxFeatures, Fill);
  for (const FlatTree &Tree : F.Trees)
    for (const FlatNode &Node : Tree.Nodes)
      if (!Node.isLeaf())
        M.Thresholds[Fill[Node.Feature]++] = Node.Value;
  for (size_t Fe = 0; Fe < Width; ++Fe)
    std::sort(M.Thresholds.begin() + M.ThresholdBegin[Fe],
              M.Thresholds.begin() + M.ThresholdBegin[Fe + 1]);
  uint32_t Kept = 0;
  for (size_t Fe = 0; Fe < Width; ++Fe) {
    const auto First = M.Thresholds.begin() + M.ThresholdBegin[Fe];
    const auto Last =
        std::unique(First, M.Thresholds.begin() + M.ThresholdBegin[Fe + 1]);
    M.ThresholdBegin[Fe] = Kept;
    Kept = static_cast<uint32_t>(
        std::copy(First, Last, M.Thresholds.begin() + Kept) -
        M.Thresholds.begin());
  }
  M.ThresholdBegin[Width] = Kept;
  M.Thresholds.resize(Kept);
  M.TableStride = Kept + M.Width;

  M.Tables.resize(NumTrees * M.TableStride);
  M.Masks.resize(M.MaskBegin.back());
  M.Leaves.resize(M.LeafBegin.back());
  // Each tree fills only its own table, masks and leaves. The build runs
  // on one thread: it runs inside a prediction (see BuildAfterRows).
  for (size_t T = 0; T < NumTrees; ++T) {
    const std::vector<FlatNode> &Nodes = F.Trees[T].Nodes;
    const size_t NumNodes = Nodes.size();
    // Each split's threshold as a rank: its index among the forest's
    // distinct thresholds on its feature.
    uint32_t Rank[2 * MaxLeaves - 1];
    // Per feature, the ranks of the tree's splits there, ascending.
    uint32_t Cuts[MaxFeatures][MaxLeaves - 1];
    uint32_t NumCuts[MaxFeatures] = {};
    for (size_t I = 0; I < NumNodes; ++I) {
      if (Nodes[I].isLeaf())
        continue;
      const uint32_t Fe = Nodes[I].Feature;
      Rank[I] = countNotAbove(M.Thresholds.data() + M.ThresholdBegin[Fe],
                              M.ThresholdBegin[Fe + 1] - M.ThresholdBegin[Fe],
                              Nodes[I].Value);
      Cuts[Fe][NumCuts[Fe]++] = Rank[I];
    }
    // Per feature, the index of its first interval's mask in the tree.
    uint32_t FirstMask[MaxFeatures] = {};
    for (size_t Fe = 1; Fe < Width; ++Fe)
      FirstMask[Fe] = FirstMask[Fe - 1] + NumCuts[Fe - 1] + 1;
    uint8_t *Table = M.Tables.data() + T * M.TableStride;
    for (size_t Fe = 0; Fe < Width; ++Fe) {
      std::sort(Cuts[Fe], Cuts[Fe] + NumCuts[Fe]);
      // The interval of rank R is the count of the tree's cuts below R:
      // fill each interval's run of ranks at once with its mask's index.
      uint8_t *FeTable = Table + M.ThresholdBegin[Fe] + Fe;
      uint32_t R = 0;
      for (uint32_t C = 0; C < NumCuts[Fe]; ++C)
        if (Cuts[Fe][C] + 1 > R) {
          std::fill(FeTable + R, FeTable + Cuts[Fe][C] + 1,
                    static_cast<uint8_t>(FirstMask[Fe] + C));
          R = Cuts[Fe][C] + 1;
        }
      const uint32_t NumRanks =
          M.ThresholdBegin[Fe + 1] - M.ThresholdBegin[Fe] + 1;
      std::fill(FeTable + R, FeTable + NumRanks,
                static_cast<uint8_t>(FirstMask[Fe] + NumCuts[Fe]));
    }

    // Each node's box, in intervals per feature: [Lo, Hi]. A split at cut
    // index J sends intervals up to J left and the rest right. Nodes are
    // in pre-order, so a parent's box is set before its children read it.
    uint8_t Lo[2 * MaxLeaves - 1][MaxFeatures];
    uint8_t Hi[2 * MaxLeaves - 1][MaxFeatures];
    Mask *TreeMasks[MaxFeatures];
    // Per feature, the leaves whose box ends just below each interval.
    Mask Ends[MaxFeatures][MaxLeaves];
    for (size_t Fe = 0; Fe < MaxFeatures; ++Fe) {
      Lo[0][Fe] = 0;
      Hi[0][Fe] = static_cast<uint8_t>(NumCuts[Fe]);
    }
    for (size_t Fe = 0; Fe < Width; ++Fe) {
      TreeMasks[Fe] = M.Masks.data() + M.MaskBegin[T] + FirstMask[Fe];
      std::fill_n(Ends[Fe], NumCuts[Fe] + 1, Mask{});
    }
    double *TreeLeaves = M.Leaves.data() + M.LeafBegin[T];
    uint32_t Leaf = 0;
    for (size_t I = 0; I < NumNodes; ++I) {
      const FlatNode &Node = Nodes[I];
      if (Node.isLeaf()) {
        // Mark where the leaf's box starts and where it ends; the sweep
        // below fills the intervals between. An empty box (a path that
        // cuts a feature at the same threshold both ways) marks nothing.
        bool Empty = false;
        for (size_t Fe = 0; Fe < Width; ++Fe)
          Empty |= Lo[I][Fe] > Hi[I][Fe];
        Mask Bit = {};
        Bit[Leaf / 64] = uint64_t{1} << (Leaf % 64);
        for (size_t Fe = 0; Fe < Width && !Empty; ++Fe) {
          TreeMasks[Fe][Lo[I][Fe]] |= Bit;
          if (Hi[I][Fe] < NumCuts[Fe])
            Ends[Fe][Hi[I][Fe] + 1] |= Bit;
        }
        TreeLeaves[Leaf++] = Node.Value;
        continue;
      }
      const uint32_t Fe = Node.Feature;
      const uint8_t J =
          static_cast<uint8_t>(countNotAbove(Cuts[Fe], NumCuts[Fe], Rank[I]));
      for (const uint32_t Child : Node.Child) {
        std::copy_n(Lo[I], MaxFeatures, Lo[Child]);
        std::copy_n(Hi[I], MaxFeatures, Hi[Child]);
      }
      Hi[Node.Child[0]][Fe] = std::min(Hi[I][Fe], J);
      Lo[Node.Child[1]][Fe] = std::max<uint8_t>(Lo[I][Fe], J + 1);
    }
    // An interval's mask: the leaves whose box has started and not ended.
    for (size_t Fe = 0; Fe < Width; ++Fe) {
      Mask Open = {};
      for (uint32_t V = 0; V <= NumCuts[Fe]; ++V)
        TreeMasks[Fe][V] = Open = (Open & ~Ends[Fe][V]) | TreeMasks[Fe][V];
    }
  }
  return M;
}

template <unsigned W, unsigned G>
void LeafMasks::addTrees(size_t T0, size_t BN,
                         const uint32_t (&Rank)[W][Block], double *Out) const {
  const uint8_t *Table[G];
  const Mask *TreeMasks[G];
  const double *TreeLeaves[G];
  for (unsigned J = 0; J < G; ++J) {
    Table[J] = Tables.data() + (T0 + J) * TableStride;
    TreeMasks[J] = Masks.data() + MaskBegin[T0 + J];
    TreeLeaves[J] = Leaves.data() + LeafBegin[T0 + J];
  }
  for (size_t R = 0; R < BN; ++R) {
    uint32_t RowRank[W];
    for (unsigned Fe = 0; Fe < W; ++Fe)
      RowRank[Fe] = Rank[Fe][R];
    double Sum = Out[R];
#pragma GCC unroll 4
    for (unsigned J = 0; J < G; ++J) {
      Mask Hit = TreeMasks[J][Table[J][RowRank[0]]];
#pragma GCC unroll 4
      for (unsigned Fe = 1; Fe < W; ++Fe)
        Hit &= TreeMasks[J][Table[J][RowRank[Fe]]];
      // One bit is left: the leaf whose box holds the row. Its word is
      // picked without a branch, which trees of more than 64 leaves
      // would mispredict.
      const int Leaf =
          std::countr_zero(Hit[0] | Hit[1]) + (Hit[0] == 0 ? 64 : 0);
      Sum += TreeLeaves[J][Leaf];
    }
    Out[R] = Sum;
  }
}

template <unsigned W>
void LeafMasks::sumLeavesOf(size_t N, const double *const *Cols,
                            double *Out) const {
  // Ranks are computed a block at a time and shared by every tree; trees
  // then pass over the block four at a time (addTrees), the last one to
  // three one at a time, so each row loads its ranks and running sum once
  // per four trees, and the four trees' tables, masks and leaves stay
  // cache-hot across the block. Over
  // fleet-rf's trace on one thread, one tree per pass took 357-384 ns a
  // row, four 282-299 ns.
  uint32_t Rank[W][Block]; // Per feature, each row's index into a table.
  for (size_t B0 = 0; B0 < N; B0 += Block) {
    const size_t BN = std::min(Block, N - B0);
    for (unsigned Fe = 0; Fe < W; ++Fe)
      rankBlock(Thresholds.data() + ThresholdBegin[Fe],
                ThresholdBegin[Fe + 1] - ThresholdBegin[Fe], Cols[Fe] + B0,
                BN, ThresholdBegin[Fe] + Fe, Rank[Fe]);
    double *BOut = Out + B0;
    std::fill(BOut, BOut + BN, 0.0);
    size_t T = 0;
    for (; T + 4 <= NumTrees; T += 4)
      addTrees<W, 4>(T, BN, Rank, BOut);
    for (; T < NumTrees; ++T)
      addTrees<W, 1>(T, BN, Rank, BOut);
  }
}

void LeafMasks::sumLeaves(size_t N, const double *const *Cols,
                          double *Out) const {
  switch (Width) {
  case 1:
    return sumLeavesOf<1>(N, Cols, Out);
  case 2:
    return sumLeavesOf<2>(N, Cols, Out);
  case 3:
    return sumLeavesOf<3>(N, Cols, Out);
  default:
    assert(Width == 4 && "a leaf-mask forest has 1 to 4 features");
    return sumLeavesOf<4>(N, Cols, Out);
  }
}
