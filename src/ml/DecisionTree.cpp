//===- ml/DecisionTree.cpp - CART regression tree ---------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/DecisionTree.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

using namespace slope;
using namespace slope::ml;

void (*ml::detail::TreeGrowPhaseProbe)(bool) = nullptr;

namespace {
TreeAlgorithm initialTreeAlgorithm() {
  if (const char *Env = std::getenv("SLOPE_TREE_ALGO")) {
    if (std::string_view(Env) == "naive")
      return TreeAlgorithm::Naive;
    if (std::string_view(Env) == "presorted")
      return TreeAlgorithm::Presorted;
  }
  return TreeAlgorithm::Presorted;
}

TreeAlgorithm GlobalTreeAlgorithm = initialTreeAlgorithm();
} // namespace

void ml::setDefaultTreeAlgorithm(TreeAlgorithm A) {
  assert(A != TreeAlgorithm::Default && "the default cannot defer to itself");
  GlobalTreeAlgorithm = A;
}

TreeAlgorithm ml::defaultTreeAlgorithm() { return GlobalTreeAlgorithm; }

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

Expected<bool> DecisionTree::fit(const Dataset &Training) {
  std::vector<size_t> AllRows(Training.numRows());
  std::iota(AllRows.begin(), AllRows.end(), size_t{0});
  return fitRows(Training, AllRows);
}

Expected<bool> DecisionTree::fitRows(const Dataset &Training,
                                     const std::vector<size_t> &RowIndices,
                                     const DatasetPresort *Master) {
  if (RowIndices.empty())
    return makeError("cannot fit a tree on an empty dataset");
  if (Training.numFeatures() == 0)
    return makeError("cannot fit a tree without features");
  Nodes.clear();
  // Every leaf holds >= 1 sample and internal nodes have two children, so
  // a tree over P samples has at most 2P - 1 nodes; reserving up front
  // keeps node creation allocation-free during growth.
  Nodes.reserve(2 * RowIndices.size() - 1);
  MaxFittedDepth = 0;

  TreeAlgorithm Algo = Options.Algorithm == TreeAlgorithm::Default
                           ? defaultTreeAlgorithm()
                           : Options.Algorithm;
  if (Algo == TreeAlgorithm::Naive) {
    std::vector<size_t> Indices = RowIndices;
    grow(Training, Indices, 0);
  } else {
    fitPresorted(Training, RowIndices, Master);
  }
  Fitted = true;
  return true;
}

//===----------------------------------------------------------------------===//
// Presorted growth
//===----------------------------------------------------------------------===//

namespace {
/// DFS work item of the presorted growth stack.
struct WorkItem {
  uint32_t Start, End;
  unsigned Depth;
  int32_t Parent;
  bool IsLeft;
};

/// Reusable scratch arena for fitPresorted. Thread-local so ensembles
/// fitting many trees per thread pay the allocations once; every vector
/// is resized (never shrunk) and fully overwritten before use.
struct GrowScratch {
  std::vector<double> FeatVal; // FeatVal[f*P + s]
  std::vector<double> SampleTarget;
  std::vector<uint32_t> SortedIdx; // SortedIdx[f*P + i]
  std::vector<uint32_t> InsertOrder;
  std::vector<uint32_t> Tmp; // right-side spill for the partitions
  std::vector<uint32_t> BucketStart, Fill, Bucket;
  std::vector<uint8_t> GoesLeft;
  std::vector<size_t> FeatCand; // mtry shuffle buffer
  std::vector<WorkItem> Stack;
};
} // namespace

void DecisionTree::fitPresorted(const Dataset &Training,
                                const std::vector<size_t> &RowIndices,
                                const DatasetPresort *Master) {
  const size_t P = RowIndices.size();
  const size_t F = Training.numFeatures();
  assert(P <= UINT32_MAX && "sample count exceeds the 32-bit index width");

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

  // Each feature's sample ids in ascending (value, target) order. Ties on
  // (value, target) carry equal targets, so each node's prefix sweep
  // accumulates targets in a bit-identical order no matter how the ties
  // are broken; stable partitioning preserves the order in every
  // descendant, which is what makes the algorithms bit-identical.
  TLS.SortedIdx.resize(F * P);
  std::vector<uint32_t> &SortedIdx = TLS.SortedIdx;
  if (Master) {
    // Derive from the forest-wide row ordering with a linear bucket
    // gather: emit each row's sample ids (ascending) in master row order.
    assert(Master->numRows() == Training.numRows() &&
           Master->numFeatures() == F &&
           "presort built from a different dataset");
    const size_t NR = Training.numRows();
    TLS.BucketStart.assign(NR + 1, 0);
    TLS.Fill.resize(NR);
    TLS.Bucket.resize(P);
    std::vector<uint32_t> &BucketStart = TLS.BucketStart;
    std::vector<uint32_t> &Bucket = TLS.Bucket;
    for (size_t S = 0; S < P; ++S)
      ++BucketStart[RowIndices[S] + 1];
    for (size_t R = 0; R < NR; ++R)
      BucketStart[R + 1] += BucketStart[R];
    std::copy(BucketStart.begin(), BucketStart.end() - 1, TLS.Fill.begin());
    for (size_t S = 0; S < P; ++S)
      Bucket[TLS.Fill[RowIndices[S]]++] = static_cast<uint32_t>(S);
    for (size_t Feat = 0; Feat < F; ++Feat) {
      const uint32_t *MasterOrder = Master->order(Feat);
      uint32_t *Ids = &SortedIdx[Feat * P];
      size_t K = 0;
      for (size_t M = 0; M < NR; ++M) {
        uint32_t Row = MasterOrder[M];
        for (uint32_t B = BucketStart[Row]; B < BucketStart[Row + 1]; ++B)
          Ids[K++] = Bucket[B];
      }
      assert(K == P && "bucket gather dropped samples");
    }
  } else {
    // Standalone tree: one comparison sort per feature per tree.
    for (size_t Feat = 0; Feat < F; ++Feat) {
      uint32_t *Ids = &SortedIdx[Feat * P];
      std::iota(Ids, Ids + P, uint32_t{0});
      const double *Vals = &FeatVal[Feat * P];
      std::sort(Ids, Ids + P, [&](uint32_t A, uint32_t B) {
        if (Vals[A] != Vals[B])
          return Vals[A] < Vals[B];
        if (SampleTarget[A] != SampleTarget[B])
          return SampleTarget[A] < SampleTarget[B];
        return A < B;
      });
    }
  }

  // Sample ids in insertion (caller row) order; node means accumulate over
  // this array so their floating-point order matches the naive recursion.
  TLS.InsertOrder.resize(P);
  std::vector<uint32_t> &InsertOrder = TLS.InsertOrder;
  std::iota(InsertOrder.begin(), InsertOrder.end(), uint32_t{0});

  TLS.Tmp.resize(P);
  TLS.GoesLeft.resize(P);
  TLS.FeatCand.resize(F);
  std::vector<uint32_t> &Tmp = TLS.Tmp;
  std::vector<uint8_t> &GoesLeft = TLS.GoesLeft;
  std::vector<size_t> &FeatCand = TLS.FeatCand;

  // Explicit DFS work stack; left pushed last so nodes are created in the
  // naive recursion's pre-order and TreeRng draws in the same sequence.
  std::vector<WorkItem> &Stack = TLS.Stack;
  Stack.clear();
  Stack.reserve(std::min<size_t>(Options.MaxDepth, P) + 4);
  Stack.push_back({0, static_cast<uint32_t>(P), 0, -1, false});

  if (detail::TreeGrowPhaseProbe)
    detail::TreeGrowPhaseProbe(true);

  // Partitions one index array's [Start, End) segment into stable
  // left-then-right order using the GoesLeft marks. Both stores are
  // unconditional and the cursors advance by the mark value, so the loop
  // carries no data-dependent branch (the sides are near-random, which
  // would otherwise mispredict on every other element).
  auto StablePartition = [&](uint32_t *Ids, uint32_t Start, uint32_t End) {
    uint32_t Write = Start, NumRight = 0;
    for (uint32_t I = Start; I < End; ++I) {
      uint32_t S = Ids[I];
      uint8_t Left = GoesLeft[S];
      Ids[Write] = S;
      Tmp[NumRight] = S;
      Write += Left;
      NumRight += 1 - Left;
    }
    std::copy(Tmp.data(), Tmp.data() + NumRight, Ids + Write);
  };

  while (!Stack.empty()) {
    WorkItem Item = Stack.back();
    Stack.pop_back();
    int32_t NodeId = static_cast<int32_t>(Nodes.size());
    Nodes.emplace_back(); // within the fitRows reservation: no allocation
    Nodes[NodeId].Depth = Item.Depth;
    MaxFittedDepth = std::max(MaxFittedDepth, Item.Depth);
    if (Item.Parent >= 0) {
      if (Item.IsLeft)
        Nodes[Item.Parent].Left = NodeId;
      else
        Nodes[Item.Parent].Right = NodeId;
    }

    const size_t Count = Item.End - Item.Start;
    double Sum = 0;
    for (uint32_t I = Item.Start; I < Item.End; ++I)
      Sum += SampleTarget[InsertOrder[I]];
    Nodes[NodeId].LeafValue = Sum / static_cast<double>(Count);

    if (Item.Depth >= Options.MaxDepth || Count < Options.MinSamplesSplit)
      continue;

    // Candidate feature subset (mtry) for forests; all features otherwise.
    // The shuffle consumes TreeRng draws exactly like the naive path.
    size_t NumCand = F;
    std::iota(FeatCand.begin(), FeatCand.end(), size_t{0});
    if (Options.MaxFeatures != 0 && Options.MaxFeatures < F) {
      for (size_t I = F; I > 1; --I)
        std::swap(FeatCand[I - 1], FeatCand[TreeRng.below(I)]);
      NumCand = Options.MaxFeatures;
    }

    // Best (feature, threshold) by sum-of-squared-error reduction, swept
    // over the presorted segments — no per-node sort.
    double BestScore = -1;
    bool Found = false;
    size_t BestFeature = 0;
    double BestThreshold = 0;
    for (size_t CI = 0; CI < NumCand; ++CI) {
      size_t Feat = FeatCand[CI];
      const uint32_t *Ids = &SortedIdx[Feat * P];
      const double *Vals = &FeatVal[Feat * P];
      // Totals accumulate in this feature's sorted order, matching the
      // naive sweep's floating-point addition order bit for bit.
      double TotalSum = 0;
      for (uint32_t I = Item.Start; I < Item.End; ++I)
        TotalSum += SampleTarget[Ids[I]];
      double LeftSum = 0;
      for (uint32_t I = Item.Start; I + 1 < Item.End; ++I) {
        uint32_t S = Ids[I];
        LeftSum += SampleTarget[S];
        double V = Vals[S], VNext = Vals[Ids[I + 1]];
        // Can't split between equal feature values.
        if (V == VNext)
          continue;
        size_t NL = I + 1 - Item.Start, NR = Count - NL;
        if (NL < Options.MinSamplesLeaf || NR < Options.MinSamplesLeaf)
          continue;
        double RightSum = TotalSum - LeftSum;
        // Variance-reduction score: total SSE minus the children's SSE
        // collapses to the weighted sum of squared child means.
        double Score = LeftSum * LeftSum / static_cast<double>(NL) +
                       RightSum * RightSum / static_cast<double>(NR);
        if (Score > BestScore) {
          BestScore = Score;
          BestFeature = Feat;
          BestThreshold = 0.5 * (V + VNext);
          Found = true;
        }
      }
    }
    if (!Found)
      continue;

    // Mark each sample's side once, then stable-partition every index
    // array in place so child segments stay sorted per feature.
    const double *SplitVals = &FeatVal[BestFeature * P];
    uint32_t NumLeft = 0;
    for (uint32_t I = Item.Start; I < Item.End; ++I) {
      uint32_t S = InsertOrder[I];
      bool Left = SplitVals[S] <= BestThreshold;
      GoesLeft[S] = Left;
      NumLeft += Left;
    }
    assert(NumLeft > 0 && NumLeft < Count && "degenerate split");

    StablePartition(InsertOrder.data(), Item.Start, Item.End);
    for (size_t Feat = 0; Feat < F; ++Feat)
      StablePartition(&SortedIdx[Feat * P], Item.Start, Item.End);

    Nodes[NodeId].Feature = BestFeature;
    Nodes[NodeId].Threshold = BestThreshold;
    uint32_t Mid = Item.Start + NumLeft;
    Stack.push_back({Mid, Item.End, Item.Depth + 1, NodeId, false});
    Stack.push_back({Item.Start, Mid, Item.Depth + 1, NodeId, true});
  }

  if (detail::TreeGrowPhaseProbe)
    detail::TreeGrowPhaseProbe(false);
}

//===----------------------------------------------------------------------===//
// Naive growth (seed kernel, kept as the reference implementation)
//===----------------------------------------------------------------------===//

/// Finds the best (feature, threshold) split of \p Indices by sum-of-
/// squared-error reduction. \returns false if no valid split exists.
static bool findBestSplit(const Dataset &Training,
                          const std::vector<size_t> &Indices,
                          const std::vector<size_t> &Features,
                          size_t MinSamplesLeaf, size_t &BestFeature,
                          double &BestThreshold) {
  double BestScore = -1;
  bool Found = false;

  std::vector<std::pair<double, double>> Sorted; // (feature value, target)
  for (size_t F : Features) {
    const double *Col = Training.column(F);
    Sorted.clear();
    Sorted.reserve(Indices.size());
    for (size_t R : Indices)
      Sorted.emplace_back(Col[R], Training.target(R));
    std::sort(Sorted.begin(), Sorted.end());

    // Prefix sums let us evaluate every threshold in one sweep.
    double TotalSum = 0;
    for (const auto &[_, Y] : Sorted)
      TotalSum += Y;
    double LeftSum = 0;
    size_t N = Sorted.size();
    for (size_t I = 0; I + 1 < N; ++I) {
      LeftSum += Sorted[I].second;
      // Can't split between equal feature values.
      if (Sorted[I].first == Sorted[I + 1].first)
        continue;
      size_t NL = I + 1, NR = N - NL;
      if (NL < MinSamplesLeaf || NR < MinSamplesLeaf)
        continue;
      double RightSum = TotalSum - LeftSum;
      // Variance-reduction score: total SSE minus the children's SSE
      // collapses to the weighted sum of squared child means.
      double Score = LeftSum * LeftSum / static_cast<double>(NL) +
                     RightSum * RightSum / static_cast<double>(NR);
      if (Score > BestScore) {
        BestScore = Score;
        BestFeature = F;
        BestThreshold = 0.5 * (Sorted[I].first + Sorted[I + 1].first);
        Found = true;
      }
    }
  }
  return Found;
}

int32_t DecisionTree::grow(const Dataset &Training,
                           std::vector<size_t> &Indices, unsigned Depth) {
  assert(!Indices.empty() && "growing a node over zero rows");
  int32_t NodeId = static_cast<int32_t>(Nodes.size());
  Nodes.emplace_back();
  Nodes[NodeId].Depth = Depth;
  MaxFittedDepth = std::max(MaxFittedDepth, Depth);

  double Sum = 0;
  for (size_t R : Indices)
    Sum += Training.target(R);
  double Mean = Sum / static_cast<double>(Indices.size());
  Nodes[NodeId].LeafValue = Mean;

  if (Depth >= Options.MaxDepth || Indices.size() < Options.MinSamplesSplit)
    return NodeId;

  // Candidate feature subset (mtry) for forests; all features otherwise.
  std::vector<size_t> Features(Training.numFeatures());
  std::iota(Features.begin(), Features.end(), size_t{0});
  if (Options.MaxFeatures != 0 && Options.MaxFeatures < Features.size()) {
    for (size_t I = Features.size(); I > 1; --I)
      std::swap(Features[I - 1], Features[TreeRng.below(I)]);
    Features.resize(Options.MaxFeatures);
  }

  size_t BestFeature = 0;
  double BestThreshold = 0;
  if (!findBestSplit(Training, Indices, Features, Options.MinSamplesLeaf,
                     BestFeature, BestThreshold))
    return NodeId;

  std::vector<size_t> LeftIdx, RightIdx;
  const double *SplitCol = Training.column(BestFeature);
  for (size_t R : Indices) {
    if (SplitCol[R] <= BestThreshold)
      LeftIdx.push_back(R);
    else
      RightIdx.push_back(R);
  }
  assert(!LeftIdx.empty() && !RightIdx.empty() && "degenerate split");

  // Free the parent's index memory before recursing.
  Indices.clear();
  Indices.shrink_to_fit();

  int32_t Left = grow(Training, LeftIdx, Depth + 1);
  int32_t Right = grow(Training, RightIdx, Depth + 1);
  Nodes[NodeId].Feature = BestFeature;
  Nodes[NodeId].Threshold = BestThreshold;
  Nodes[NodeId].Left = Left;
  Nodes[NodeId].Right = Right;
  return NodeId;
}

//===----------------------------------------------------------------------===//
// Inference
//===----------------------------------------------------------------------===//

double DecisionTree::predict(const std::vector<double> &Features) const {
  assert(Fitted && "predicting with an unfitted tree");
  assert(!Nodes.empty() && "fitted tree has no nodes");
  int32_t Id = 0;
  while (!Nodes[Id].isLeaf()) {
    assert(Nodes[Id].Feature < Features.size() &&
           "feature width does not match the fitted tree");
    Id = Features[Nodes[Id].Feature] <= Nodes[Id].Threshold ? Nodes[Id].Left
                                                            : Nodes[Id].Right;
  }
  return Nodes[Id].LeafValue;
}

double DecisionTree::predictRow(const double *Features) const {
  assert(Fitted && "predicting with an unfitted tree");
  const Node *N = &Nodes[0];
  while (!N->isLeaf())
    N = &Nodes[Features[N->Feature] <= N->Threshold ? N->Left : N->Right];
  return N->LeafValue;
}

FlatTree<double> DecisionTree::flatten() const {
  assert(Fitted && "flattening an unfitted tree");
  FlatTree<double> Out;
  Out.Depth = MaxFittedDepth;
  Out.Nodes.reserve(Nodes.size());
  for (uint32_t I = 0; I < Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    if (N.isLeaf())
      Out.Nodes.push_back({N.LeafValue, 0, {I, I}});
    else
      Out.Nodes.push_back({N.Threshold, static_cast<uint32_t>(N.Feature),
                           {static_cast<uint32_t>(N.Left),
                            static_cast<uint32_t>(N.Right)}});
  }
  return Out;
}

std::vector<double> DecisionTree::predictBatch(const Dataset &Data) const {
  assert(Fitted && "predicting with an unfitted tree");
  std::vector<double> Out(Data.numRows());
  for (size_t R = 0; R < Data.numRows(); ++R) {
    const Node *N = &Nodes[0];
    while (!N->isLeaf())
      N = &Nodes[Data.column(N->Feature)[R] <= N->Threshold ? N->Left
                                                            : N->Right];
    Out[R] = N->LeafValue;
  }
  return Out;
}
