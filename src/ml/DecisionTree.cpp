//===- ml/DecisionTree.cpp - CART regression tree ---------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/DecisionTree.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

using namespace slope;
using namespace slope::ml;

void (*ml::detail::TreeGrowPhaseProbe)(bool) = nullptr;

DatasetPresort::DatasetPresort(const Dataset &Training)
    : NumRows(Training.numRows()), NumFeatures(Training.numFeatures()),
      Orders(NumRows * NumFeatures) {
  assert(NumRows <= UINT32_MAX && "row count exceeds the 32-bit index width");
  const double *Targets = Training.targets().data();
  for (size_t Feat = 0; Feat < NumFeatures; ++Feat) {
    uint32_t *Ids = Orders.data() + Feat * NumRows;
    std::iota(Ids, Ids + NumRows, uint32_t{0});
    const double *Col = Training.column(Feat);
    std::sort(Ids, Ids + NumRows, [&](uint32_t A, uint32_t B) {
      if (Col[A] != Col[B])
        return Col[A] < Col[B];
      if (Targets[A] != Targets[B])
        return Targets[A] < Targets[B];
      return A < B;
    });
  }
}

//===----------------------------------------------------------------------===//
// Presorted growth
//===----------------------------------------------------------------------===//

namespace {
/// DFS work item of the presorted growth stack.
struct WorkItem {
  uint32_t Start, End;
  unsigned Depth;
  /// The parent's node index and which of its children this node is;
  /// Parent is UINT32_MAX for the root.
  uint32_t Parent, Side;
};

/// Reusable scratch arena for growTree. Thread-local so ensembles
/// fitting many trees per thread pay the allocations once; every vector
/// is resized (never shrunk) and fully overwritten before use.
struct GrowScratch {
  /// The tree being grown. Every leaf holds >= 1 sample and internal
  /// nodes have two children, so a tree over P samples has at most
  /// 2P - 1 nodes; with that capacity node creation never allocates.
  std::vector<FlatNode> Nodes;
  std::vector<double> FeatVal; // FeatVal[f*P + s]
  std::vector<double> SampleTarget;
  /// Two sets of F + 1 index arrays, [a*P + i]: arrays 0..F-1 hold each
  /// feature's sample ids in sorted order, array F the ids in insertion
  /// order. A node at depth d reads set d % 2 and partitions into the
  /// other set, so no partition needs a spill buffer or a copy-back.
  std::vector<uint32_t> Order[2];
  std::vector<uint32_t> BucketStart, Bucket;
  std::vector<uint8_t> GoesLeft;
  /// Per candidate c, [c*P + i]: the target prefix sums and the feature
  /// values along the node's sorted segment.
  std::vector<double> Prefix, SortedVal;
  std::vector<double> Bound;    // [c*W + j], see splitSkipFloor
  std::vector<double> InvCount; // InvCount[k] = 1.0 / k
  std::vector<size_t> FeatCand; // mtry shuffle buffer
  std::vector<WorkItem> Stack;
};

/// Sums the node's targets in insertion order (its mean's addition order)
/// and, for each of K candidate features, the prefix sums of the targets
/// along the feature's sorted order, gathering the sorted values too.
/// The K + 1 add chains are independent, so running them in lockstep
/// overlaps their latencies; each keeps its own order exactly.
template <unsigned K>
double targetChains(const uint32_t *Insert, const uint32_t *const *CandIds,
                    const double *const *CandVals, const double *Target,
                    uint32_t N, double *Prefix, double *Sorted,
                    size_t Stride) {
  const uint32_t *Ids[K];
  const double *Vals[K];
  double *Pre[K], *Val[K];
  double Acc[K] = {};
  for (unsigned C = 0; C < K; ++C) {
    Ids[C] = CandIds[C];
    Vals[C] = CandVals[C];
    Pre[C] = Prefix + C * Stride;
    Val[C] = Sorted + C * Stride;
  }
  double Sum = 0;
  for (uint32_t I = 0; I < N; ++I) {
    Sum += Target[Insert[I]];
#pragma GCC unroll 3
    for (unsigned C = 0; C < K; ++C) {
      uint32_t S = Ids[C][I];
      Acc[C] += Target[S];
      Pre[C][I] = Acc[C];
      Val[C][I] = Vals[C][S];
    }
  }
  return Sum;
}

/// The split-search skip rule. Every split position's exact score is
///   S = fl(fl(X / NL) + fl(Y / NR)),  X = fl(L * L), Y = fl(R * R),
/// for the left prefix L, R = fl(Total - L) and the child sizes NL, NR in
/// [1, 2^32], and a strict > keeps the first best position. The search
/// first computes, without dividing,
///   A = fl(fl(X * IL) + fl(Y * IR)),  IL = fl(1 / NL), IR = fl(1 / NR),
/// from the same X and Y, and evaluates S only where A >= T for
/// T = splitSkipFloor(F). Claim: for F >= 0 (F may be +Inf), A < T
/// implies S < F, so a skipped position can neither beat nor tie F.
///
/// Proof. u = 2^-53, e = 2^-1075. Round-to-nearest gives fl(x op y) =
/// (x op y)(1 + d) + h with |d| <= u, |h| <= e (h only for subnormal
/// results, and never for + and -), unless the result overflows.
///  * X or Y NaN: A is NaN, so A >= T fails and the position is skipped,
///    correctly: S is NaN and NaN > anything is false.
///  * X or Y +Inf (a huge or infinite target): X * IL = +Inf as IL > 0,
///    so A = +Inf and A < T is false: never skipped.
///  * Otherwise X, Y are finite and >= 0, and a = X / NL, b = Y / NR are
///    at most X and Y, so no quotient or product below overflows; 1 / NL
///    >= 2^-32 is normal. Then fl(X / NL) <= a(1 + u) + e and
///    fl(X * IL) >= a(1 - u)^2 - e, likewise for b, so
///      A >= (a + b)(1 - u)^3 - 2e(1 - u),
///      S <= ((a + b)(1 + u) + 2e)(1 + u)            (if no overflow)
///        <= A (1 + u)^2 / (1 - u)^3 + 5e  <  A (1 + 6u) + 5e.
///    T = fl(fl(F' * k) - m) with F' = min(F, DBL_MAX), k = 1 - 2^-40,
///    m = 2^-1040. If fl(F' * k) < m, T < 0 <= A and nothing is skipped.
///    Otherwise T <= (F' k (1 + u) + e - m)(1 + u), and A < T gives
///      S < F' k (1 + 6u)(1 + u)^2 + (1 + 6u)(1 + u)(e - m) + 5e
///        <= F' (1 - 2^-40)(1 + 9u) + 6e - m  <  F' <= F,
///    as 9u < 2^-40 and m > 6e. The sum fl(X / NL) + fl(Y / NR) cannot
///    overflow either: it is at most A (1 + 6u) + 2e < DBL_MAX.
/// This covers huge, tiny, subnormal and infinite targets alike.
double splitSkipFloor(double F) {
  constexpr double K = 1.0 - 0x1p-40, M = 0x1p-1040;
  return std::min(F, std::numeric_limits<double>::max()) * K - M;
}

/// The division-free score bounds of one node's split positions, for
/// \p NumCand candidate features. The node's N samples sit in ascending
/// order of candidate c's feature, with feature values Vals[c * Stride +
/// i] and target prefix sums Prefix[c * Stride + i] (the first i + 1
/// targets; i = N - 1 sums them all). For each split position J in
/// [Lo, Hi], with L = Prefix[c * Stride + J] and R = total - L,
///   Bound[c * W + J - Lo] = L * L * Inv[J + 1] + R * R * Inv[N - 1 - J],
/// W = Hi - Lo + 1, Inv[K] = 1.0 / K; or -Inf where the values at J and
/// J + 1 are equal, as there is no split between equal values. \returns
/// the first index into Bound holding the largest bound, ignoring NaN, or
/// SIZE_MAX when every bound is -Inf or NaN.
size_t splitScoreBounds(const double *Prefix, const double *Vals,
                        size_t Stride, size_t NumCand, const double *Inv,
                        size_t Lo, size_t Hi, size_t N, double *Bound) {
  constexpr uint64_t NegInf =
      std::bit_cast<uint64_t>(-std::numeric_limits<double>::infinity());
  double Max = -std::numeric_limits<double>::infinity();
  size_t Arg = SIZE_MAX;
  for (size_t C = 0, K = 0; C < NumCand; ++C) {
    const double *Pre = Prefix + C * Stride, *Val = Vals + C * Stride;
    const double Total = Pre[N - 1];
    for (size_t J = Lo; J <= Hi; ++J, ++K) {
      double L = Pre[J], R = Total - L;
      double A = L * L * Inv[J + 1] + R * R * Inv[N - 1 - J];
      // Equal neighbours are common (duplicate values), so select -Inf
      // with a mask rather than a branch that would mispredict.
      const uint64_t Keep = 0 - static_cast<uint64_t>(Val[J] != Val[J + 1]);
      A = std::bit_cast<double>((std::bit_cast<uint64_t>(A) & Keep) |
                                (NegInf & ~Keep));
      Bound[K] = A;
      if (A > Max) {
        Max = A;
        Arg = K;
      }
    }
  }
  return Arg;
}

/// The exact variance-reduction score of splitting \p N sorted samples
/// after position \p J (0-based) with left prefix \p L: total SSE minus
/// the children's SSE collapses to the weighted sum of squared child
/// means. The seed grower's sweep computes the same expression.
double splitScore(double L, double Total, size_t J, size_t N) {
  double R = Total - L;
  return L * L / static_cast<double>(J + 1) +
         R * R / static_cast<double>(N - J - 1);
}
} // namespace

FlatTree ml::growTree(const Dataset &Training,
                      const std::vector<size_t> &RowIndices,
                      const DatasetPresort &Presort,
                      const DecisionTreeOptions &Options, Rng TreeRng) {
  const size_t P = RowIndices.size();
  const size_t F = Training.numFeatures();
  assert(P > 0 && "cannot grow a tree on an empty sample");
  assert(F > 0 && "cannot grow a tree without features");
  assert(P <= UINT32_MAX && "sample count exceeds the 32-bit index width");
  assert(Presort.numRows() == Training.numRows() &&
         Presort.numFeatures() == F &&
         "presort built from a different dataset");

  // --- Per-tree scratch setup: every allocation of the fit happens here.
  // Feature values and targets are gathered per sample id (0..P-1, in the
  // caller's row order, so bootstrap duplicates are distinct samples);
  // the growth loop below then touches only these contiguous arrays.
  static thread_local GrowScratch TLS;
  TLS.FeatVal.resize(F * P);
  TLS.SampleTarget.resize(P);
  std::vector<double> &FeatVal = TLS.FeatVal;
  std::vector<double> &SampleTarget = TLS.SampleTarget;
  const double *TargetData = Training.targets().data();
  for (size_t S = 0; S < P; ++S)
    SampleTarget[S] = TargetData[RowIndices[S]];
  for (size_t Feat = 0; Feat < F; ++Feat) {
    const double *Col = Training.column(Feat);
    double *Dst = &FeatVal[Feat * P];
    for (size_t S = 0; S < P; ++S)
      Dst[S] = Col[RowIndices[S]];
  }

  // Each feature's sample ids in ascending (value, target) order, derived
  // from the presort's row ordering with a linear bucket gather: emit each
  // row's sample ids (ascending) in presort row order. Ties on (value,
  // target) carry equal targets, so each node's prefix sweep accumulates
  // targets in a bit-identical order no matter how the ties are broken;
  // stable partitioning preserves the order in every descendant, which is
  // what keeps the trees bit-identical to the seed grower's. Two slack
  // entries let the gather store unconditionally.
  const size_t Arrays = F + 1;
  TLS.Order[0].resize(Arrays * P + 2);
  TLS.Order[1].resize(Arrays * P);
  uint32_t *const Sorted0 = TLS.Order[0].data();
  const size_t NR = Training.numRows();
  TLS.BucketStart.assign(NR + 1, 0);
  TLS.Bucket.resize(P + 2);
  uint32_t *BucketStart = TLS.BucketStart.data();
  uint32_t *Bucket = TLS.Bucket.data();
  for (size_t S = 0; S < P; ++S)
    ++BucketStart[RowIndices[S] + 1];
  for (size_t R = 0; R < NR; ++R)
    BucketStart[R + 1] += BucketStart[R];
  // Fill through the row starts, then shift them back one row.
  for (size_t S = 0; S < P; ++S)
    Bucket[BucketStart[RowIndices[S]]++] = static_cast<uint32_t>(S);
  for (size_t R = NR; R > 0; --R)
    BucketStart[R] = BucketStart[R - 1];
  BucketStart[0] = 0;
  for (size_t Feat = 0; Feat < F; ++Feat) {
    const uint32_t *PresortOrder = Presort.order(Feat);
    uint32_t *Ids = Sorted0 + Feat * P;
    size_t K = 0;
    // A row holds a bootstrap sample 0, 1, 2 or more times at random, so
    // a loop over its bucket would mispredict its exit. Store the first
    // two slots unconditionally (stores past the row's count are
    // overwritten by the next row, or land in the slack) and loop only
    // for the rare rows with three or more copies.
    for (size_t M = 0; M < NR; ++M) {
      uint32_t Row = PresortOrder[M];
      uint32_t B = BucketStart[Row], Copies = BucketStart[Row + 1] - B;
      Ids[K] = Bucket[B];
      Ids[K + 1] = Bucket[B + 1];
      for (uint32_t C = 2; C < Copies; ++C)
        Ids[K + C] = Bucket[B + C];
      K += Copies;
    }
    assert(K == P && "bucket gather dropped samples");
  }
  // Sample ids in insertion (caller row) order; node means accumulate over
  // this array so their floating-point order matches the seed recursion.
  std::iota(Sorted0 + F * P, Sorted0 + Arrays * P, uint32_t{0});

  const size_t MaxCand = Options.MaxFeatures != 0 && Options.MaxFeatures < F
                             ? Options.MaxFeatures
                             : F;
  TLS.GoesLeft.resize(P);
  TLS.Prefix.resize(MaxCand * P);
  TLS.SortedVal.resize(MaxCand * P);
  TLS.Bound.resize(MaxCand * P);
  TLS.FeatCand.resize(F);
  if (TLS.InvCount.size() < P + 1) {
    TLS.InvCount.resize(P + 1);
    for (size_t K = 0; K <= P; ++K)
      TLS.InvCount[K] = 1.0 / static_cast<double>(K);
  }
  uint8_t *GoesLeft = TLS.GoesLeft.data();
  double *Prefix = TLS.Prefix.data();
  double *SortedVal = TLS.SortedVal.data();
  double *Bound = TLS.Bound.data();
  const double *InvCount = TLS.InvCount.data();
  std::vector<size_t> &FeatCand = TLS.FeatCand;
  std::vector<FlatNode> &Nodes = TLS.Nodes;
  Nodes.clear();
  Nodes.reserve(2 * P - 1);
  uint32_t FittedDepth = 0;

  // Explicit DFS work stack; left pushed last so nodes are created in the
  // seed recursion's pre-order and TreeRng draws in the same sequence.
  std::vector<WorkItem> &Stack = TLS.Stack;
  Stack.clear();
  Stack.reserve(std::min<size_t>(Options.MaxDepth, P) + 4);
  Stack.push_back({0, static_cast<uint32_t>(P), 0, UINT32_MAX, 0});

  if (detail::TreeGrowPhaseProbe)
    detail::TreeGrowPhaseProbe(true);

  // Split positions J (0-based in the node) leaving both children at
  // least MinSamplesLeaf (and 1) samples: [MinLeaf - 1, N - 1 - MinLeaf].
  const size_t MinLeaf = std::max<size_t>(Options.MinSamplesLeaf, 1);
  const double *Target = SampleTarget.data();

  while (!Stack.empty()) {
    WorkItem Item = Stack.back();
    Stack.pop_back();
    // A new node is a self-looping leaf until a split is found for it.
    const uint32_t NodeId = static_cast<uint32_t>(Nodes.size());
    Nodes.push_back({0, 0, {NodeId, NodeId}}); // within the reservation
    FittedDepth = std::max(FittedDepth, Item.Depth);
    if (Item.Parent != UINT32_MAX)
      Nodes[Item.Parent].Child[Item.Side] = NodeId;

    const uint32_t Count = Item.End - Item.Start;
    const uint32_t *Cur = TLS.Order[Item.Depth & 1].data();
    const uint32_t *Insert = Cur + F * P + Item.Start;
    if (Item.Depth >= Options.MaxDepth || Count < Options.MinSamplesSplit) {
      double Sum = 0;
      for (uint32_t I = 0; I < Count; ++I)
        Sum += Target[Insert[I]];
      Nodes[NodeId].Value = Sum / static_cast<double>(Count);
      continue;
    }

    // Candidate feature subset (mtry) for forests; all features otherwise.
    // The shuffle consumes TreeRng draws exactly like the seed grower.
    size_t NumCand = F;
    std::iota(FeatCand.begin(), FeatCand.end(), size_t{0});
    if (MaxCand < F) {
      for (size_t I = F; I > 1; --I)
        std::swap(FeatCand[I - 1], FeatCand[TreeRng.below(I)]);
      NumCand = MaxCand;
    }

    // One pass per group of up to three candidates runs their prefix
    // chains in lockstep with the node's mean chain (kept from the
    // first group; mtry is at most three for forests of up to 9
    // features).
    for (size_t C0 = 0; C0 < NumCand;) {
      const size_t K = std::min<size_t>(NumCand - C0, 3);
      const uint32_t *Ids[3] = {};
      const double *Vals[3] = {};
      for (size_t C = 0; C < K; ++C) {
        Ids[C] = Cur + FeatCand[C0 + C] * P + Item.Start;
        Vals[C] = &FeatVal[FeatCand[C0 + C] * P];
      }
      double *Pre = Prefix + C0 * P, *Val = SortedVal + C0 * P;
      double Sum =
          K == 1 ? targetChains<1>(Insert, Ids, Vals, Target, Count, Pre,
                                   Val, P)
          : K == 2 ? targetChains<2>(Insert, Ids, Vals, Target, Count, Pre,
                                     Val, P)
                   : targetChains<3>(Insert, Ids, Vals, Target, Count, Pre,
                                     Val, P);
      if (C0 == 0)
        Nodes[NodeId].Value = Sum / static_cast<double>(Count);
      C0 += K;
    }

    // Best (feature, position) by the exact score, in candidate order then
    // ascending position with a strict >, as the seed sweep scans. A
    // division-free pass bounds every candidate position's score, side by
    // side in candidate order, and finds the first largest bound. The
    // exact score there is a floor the best score cannot fall below, so
    // only positions whose bound reaches splitSkipFloor of it are scored
    // exactly, in the sweep's order (see splitSkipFloor for why no
    // skipped position could have been chosen).
    double BestScore = -1;
    bool Found = false;
    size_t BestCand = 0;
    uint32_t BestPos = 0;
    double BestThreshold = 0;
    if (Count >= 2 * MinLeaf) {
      const size_t Lo = MinLeaf - 1, Hi = Count - 1 - MinLeaf;
      const size_t Width = Hi - Lo + 1;
      const size_t Top = splitScoreBounds(Prefix, SortedVal, P, NumCand,
                                          InvCount, Lo, Hi, Count, Bound);
      if (Top != SIZE_MAX) {
        const size_t TopPos = Lo + Top % Width;
        const double *TopPre = Prefix + Top / Width * P;
        const double T = splitSkipFloor(
            splitScore(TopPre[TopPos], TopPre[Count - 1], TopPos, Count));
        for (size_t K = 0; K < NumCand * Width; ++K) {
          if (!(Bound[K] >= T))
            continue;
          const size_t C = K / Width, J = Lo + K % Width;
          const double *Pre = Prefix + C * P;
          double Score = splitScore(Pre[J], Pre[Count - 1], J, Count);
          if (Score > BestScore) {
            const double *Val = SortedVal + C * P;
            BestScore = Score;
            BestCand = C;
            BestPos = static_cast<uint32_t>(J);
            BestThreshold = 0.5 * (Val[J] + Val[J + 1]);
            Found = true;
          }
        }
      }
    }
    if (!Found)
      continue;

    // The left child is every sample with value <= BestThreshold: the
    // sorted prefix through BestPos, plus any later samples the rounded
    // midpoint also covers.
    const size_t BestFeature = FeatCand[BestCand];
    const double *BestVal = SortedVal + BestCand * P;
    uint32_t NumLeft = BestPos + 1;
    while (NumLeft < Count && BestVal[NumLeft] <= BestThreshold)
      ++NumLeft;
    assert(NumLeft > 0 && NumLeft < Count && "degenerate split");
    const uint32_t Mid = Item.Start + NumLeft;
    const uint32_t *BestIds = Cur + BestFeature * P;
    for (uint32_t I = Item.Start; I < Item.End; ++I)
      GoesLeft[BestIds[I]] = I < Mid;

    // Stable-partition the segment into the other index set, left then
    // right, so child segments stay sorted per feature. Each side's
    // cursor advances by the mark, so the loop has no data-dependent
    // branch. Children that will not split read only the insertion
    // order (for their means), so then the feature arrays stay as they
    // are.
    auto WillSplit = [&](uint32_t N) {
      return Item.Depth + 1 < Options.MaxDepth &&
             N >= Options.MinSamplesSplit;
    };
    uint32_t *Next = TLS.Order[(Item.Depth + 1) & 1].data();
    const size_t FirstArray =
        WillSplit(NumLeft) || WillSplit(Count - NumLeft) ? 0 : F;
    for (size_t Arr = FirstArray; Arr < Arrays; ++Arr) {
      const uint32_t *Src = Cur + Arr * P;
      uint32_t *Left = Next + Arr * P + Item.Start;
      uint32_t *Right = Next + Arr * P + Mid;
      for (uint32_t I = Item.Start; I < Item.End; ++I) {
        uint32_t S = Src[I];
        size_t GoLeft = GoesLeft[S];
        *(GoLeft ? Left : Right) = S;
        Left += GoLeft;
        Right += 1 - GoLeft;
      }
    }

    Nodes[NodeId].Value = BestThreshold;
    Nodes[NodeId].Feature = static_cast<uint32_t>(BestFeature);
    Stack.push_back({Mid, Item.End, Item.Depth + 1, NodeId, 1});
    Stack.push_back({Item.Start, Mid, Item.Depth + 1, NodeId, 0});
  }

  if (detail::TreeGrowPhaseProbe)
    detail::TreeGrowPhaseProbe(false);

  // An exact-size copy: a stored tree keeping the 2P - 1 reservation
  // would be several times larger.
  FlatTree Out;
  Out.Nodes.assign(Nodes.begin(), Nodes.end());
  Out.Depth = FittedDepth;
  return Out;
}
