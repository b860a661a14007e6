//===- tests/reference/ReferenceTree.cpp - Seed CART oracle -----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ReferenceTree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

using namespace slope;
using namespace slope::ml;

namespace {

/// Finds the best (feature, threshold) split of \p Indices by sum-of-
/// squared-error reduction. \returns false if no valid split exists.
bool findBestSplit(const Dataset &Training, const std::vector<size_t> &Indices,
                   const std::vector<size_t> &Features, size_t MinSamplesLeaf,
                   size_t &BestFeature, double &BestThreshold) {
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

/// The seed recursion, growing nodes in pre-order.
class SeedGrower {
public:
  SeedGrower(const Dataset &Training, const DecisionTreeOptions &Options,
             Rng TreeRng)
      : Training(Training), Options(Options), TreeRng(TreeRng) {}

  FlatTree grow(std::vector<size_t> Indices) {
    Nodes.reserve(2 * Indices.size() - 1);
    grow(Indices, 0);
    FlatTree Out;
    Out.Depth = MaxFittedDepth;
    for (uint32_t I = 0; I < Nodes.size(); ++I) {
      const Node &N = Nodes[I];
      if (N.Feature == SIZE_MAX)
        Out.Nodes.push_back({N.LeafValue, 0, {I, I}});
      else
        Out.Nodes.push_back({N.Threshold, static_cast<uint32_t>(N.Feature),
                             {static_cast<uint32_t>(N.Left),
                              static_cast<uint32_t>(N.Right)}});
    }
    return Out;
  }

private:
  struct Node {
    size_t Feature = SIZE_MAX; ///< SIZE_MAX marks a leaf.
    double Threshold = 0;
    double LeafValue = 0;
    int32_t Left = -1;
    int32_t Right = -1;
  };

  /// Recursively grows the subtree over \p Indices; \returns its node id.
  int32_t grow(std::vector<size_t> &Indices, unsigned Depth) {
    assert(!Indices.empty() && "growing a node over zero rows");
    int32_t NodeId = static_cast<int32_t>(Nodes.size());
    Nodes.emplace_back();
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

    int32_t Left = grow(LeftIdx, Depth + 1);
    int32_t Right = grow(RightIdx, Depth + 1);
    Nodes[NodeId].Feature = BestFeature;
    Nodes[NodeId].Threshold = BestThreshold;
    Nodes[NodeId].Left = Left;
    Nodes[NodeId].Right = Right;
    return NodeId;
  }

  const Dataset &Training;
  const DecisionTreeOptions &Options;
  Rng TreeRng;
  std::vector<Node> Nodes;
  unsigned MaxFittedDepth = 0;
};

/// A tree's bootstrap sample: \p N draws of below(N) from the tree's
/// forked stream \p TreeRng, which its split stream then forks from.
std::vector<size_t> bootstrap(Rng &TreeRng, size_t N) {
  std::vector<size_t> Rows(N);
  for (size_t &R : Rows)
    R = TreeRng.below(N);
  return Rows;
}

/// The leaf value row \p R of \p Data reaches in \p Nodes, one branch at a
/// time.
double walk(const std::vector<FlatNode> &Nodes, const Dataset &Data,
            size_t R) {
  const FlatNode *Node = &Nodes[0];
  while (!Node->isLeaf())
    Node = &Nodes[Data.column(Node->Feature)[R] <= Node->Value
                      ? Node->Child[0]
                      : Node->Child[1]];
  return Node->Value;
}

} // namespace

FlatTree reference::growTree(const Dataset &Training,
                             const std::vector<size_t> &Rows,
                             const DecisionTreeOptions &Options,
                             Rng TreeRng) {
  assert(!Rows.empty() && Training.numFeatures() > 0 &&
         "growing a tree without rows or features");
  return SeedGrower(Training, Options, TreeRng).grow(Rows);
}

reference::Forest reference::growForest(const Dataset &Training,
                                        const RandomForestOptions &Options) {
  assert(Training.numRows() > 0 && Training.numFeatures() > 0 &&
         "growing a forest without rows or features");
  DecisionTreeOptions TreeOptions = Options.Tree;
  if (TreeOptions.MaxFeatures == 0)
    TreeOptions.MaxFeatures = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(
               Options.FeatureFraction *
               static_cast<double>(Training.numFeatures()))));

  Forest Out;
  Rng ForestRng(Options.Seed);
  for (size_t T = 0; T < Options.NumTrees; ++T) {
    Rng TreeRng = ForestRng.fork(T);
    std::vector<size_t> Rows = bootstrap(TreeRng, Training.numRows());
    Out.Flat.Trees.push_back(
        growTree(Training, Rows, TreeOptions, TreeRng.fork("splits")));
  }
  Out.OobMse = oobMse(Out.Flat, Training, Options.Seed);
  return Out;
}

double reference::oobMse(const FlatForest &Flat, const Dataset &Training,
                         uint64_t Seed) {
  const size_t N = Training.numRows();
  std::vector<double> Sum(N, 0.0);
  std::vector<unsigned> Count(N, 0);
  Rng ForestRng(Seed);
  for (size_t T = 0; T < Flat.numTrees(); ++T) {
    Rng TreeRng = ForestRng.fork(T);
    std::vector<bool> InBag(N, false);
    for (size_t R : bootstrap(TreeRng, N))
      InBag[R] = true;
    for (size_t R = 0; R < N; ++R) {
      if (InBag[R])
        continue;
      Sum[R] += walk(Flat.Trees[T].Nodes, Training, R);
      ++Count[R];
    }
  }
  double SumSq = 0;
  size_t Counted = 0;
  for (size_t R = 0; R < N; ++R) {
    if (Count[R] == 0)
      continue;
    double Err = Sum[R] / Count[R] - Training.target(R);
    SumSq += Err * Err;
    ++Counted;
  }
  return Counted ? SumSq / static_cast<double>(Counted) : std::nan("");
}

std::vector<double> reference::predictForest(const FlatForest &Flat,
                                             const Dataset &Data) {
  std::vector<double> Out(Data.numRows());
  for (size_t R = 0; R < Data.numRows(); ++R) {
    double Sum = 0;
    for (const FlatTree &Tree : Flat.Trees)
      Sum += walk(Tree.Nodes, Data, R);
    Out[R] = Sum / static_cast<double>(Flat.numTrees());
  }
  return Out;
}

bool reference::sameValue(double A, double B) {
  return (std::isnan(A) && std::isnan(B)) ||
         std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool reference::sameForest(const FlatForest &A, const FlatForest &B,
                           std::string &Where) {
  auto Differs = [&](std::string What) {
    Where = std::move(What);
    return false;
  };
  if (A.numTrees() != B.numTrees())
    return Differs("tree counts " + std::to_string(A.numTrees()) + " vs " +
                   std::to_string(B.numTrees()));
  for (size_t T = 0; T < A.numTrees(); ++T) {
    const FlatTree &TA = A.Trees[T], &TB = B.Trees[T];
    if (TA.Depth != TB.Depth || TA.Nodes.size() != TB.Nodes.size())
      return Differs("tree " + std::to_string(T) + ": depth or node count");
    for (size_t I = 0; I < TA.Nodes.size(); ++I) {
      const FlatNode &NA = TA.Nodes[I], &NB = TB.Nodes[I];
      if (!sameValue(NA.Value, NB.Value) || NA.Feature != NB.Feature ||
          NA.Child[0] != NB.Child[0] || NA.Child[1] != NB.Child[1])
        return Differs("tree " + std::to_string(T) + " node " +
                       std::to_string(I) + ": value " +
                       std::to_string(NA.Value) + " vs " +
                       std::to_string(NB.Value) + ", feature " +
                       std::to_string(NA.Feature) + " vs " +
                       std::to_string(NB.Feature));
    }
  }
  return true;
}
