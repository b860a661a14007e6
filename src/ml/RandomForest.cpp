//===- ml/RandomForest.cpp - Bagged regression forest -----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/RandomForest.h"

#include "support/ThreadPool.h"

#include <cmath>

using namespace slope;
using namespace slope::ml;

Expected<bool> RandomForest::fit(const Dataset &Training) {
  if (Training.numRows() == 0)
    return makeError("cannot fit a forest on an empty dataset");
  if (Training.numFeatures() == 0)
    return makeError("cannot fit a forest without features");
  assert(Options.NumTrees > 0 && "a forest needs at least one tree");

  size_t Mtry = Options.Tree.MaxFeatures;
  if (Mtry == 0) {
    Mtry = static_cast<size_t>(
        std::ceil(Options.FeatureFraction *
                  static_cast<double>(Training.numFeatures())));
    if (Mtry == 0)
      Mtry = 1;
  }

  // Trees are independent given their forked Rng streams (a pure function
  // of the forest seed and the tree index), so fitting parallelizes over
  // trees. Each task records its out-of-bag predictions; the OOB reduction
  // below runs serially in tree order, keeping the floating-point addition
  // order — and hence every result bit — identical to a serial fit.
  // All trees share one forest-wide presort of the training rows; each
  // tree derives its bootstrap sample's per-feature orderings from it in
  // linear time (see DatasetPresort).
  const DatasetPresort Master(Training);

  Rng ForestRng(Options.Seed);
  const size_t N = Training.numRows(), NumFeat = Training.numFeatures();
  // Out-of-bag rows are walked through each tree's flat form, which wants
  // rows contiguous: transpose the training columns once per forest.
  std::vector<double> Rows(N * NumFeat);
  for (size_t F = 0; F < NumFeat; ++F) {
    const double *Col = Training.column(F);
    for (size_t R = 0; R < N; ++R)
      Rows[R * NumFeat + F] = Col[R];
  }
  Flat.Trees.assign(Options.NumTrees, FlatTree());
  std::vector<std::vector<uint32_t>> OobRows(Options.NumTrees);
  std::vector<std::vector<double>> OobPreds(Options.NumTrees);

  parallelFor(0, Options.NumTrees, 1, [&](size_t T) {
    Rng TreeRng = ForestRng.fork(T);
    std::vector<size_t> Bootstrap(N);
    std::vector<uint8_t> InBag(N, 0);
    for (size_t I = 0; I < N; ++I) {
      Bootstrap[I] = TreeRng.below(N);
      InBag[Bootstrap[I]] = 1;
    }

    DecisionTreeOptions TreeOptions = Options.Tree;
    TreeOptions.MaxFeatures = Mtry;
    FlatForest One;
    One.Trees.push_back(growTree(Training, Bootstrap, Master, TreeOptions,
                                 TreeRng.fork("splits")));

    // The out-of-bag rows, ascending, each walked through the tree.
    std::vector<uint32_t> Oob;
    for (size_t R = 0; R < N; ++R)
      if (!InBag[R])
        Oob.push_back(static_cast<uint32_t>(R));
    std::vector<double> Preds(Oob.size());
    sumForestLeaves(
        One, Oob.size(),
        [&](size_t I) { return Rows.data() + Oob[I] * NumFeat; },
        Preds.data());
    Flat.Trees[T] = std::move(One.Trees.front());
    OobRows[T] = std::move(Oob);
    OobPreds[T] = std::move(Preds);
  });

  Width = NumFeat;

  // Out-of-bag bookkeeping: sum/count of OOB predictions per row, in tree
  // order.
  std::vector<double> OobSum(N, 0.0);
  std::vector<unsigned> OobCount(N, 0);
  for (size_t T = 0; T < Options.NumTrees; ++T)
    for (size_t I = 0; I < OobRows[T].size(); ++I) {
      OobSum[OobRows[T][I]] += OobPreds[T][I];
      ++OobCount[OobRows[T][I]];
    }

  double SumSq = 0;
  size_t Counted = 0;
  for (size_t R = 0; R < N; ++R) {
    if (OobCount[R] == 0)
      continue;
    double Err = OobSum[R] / OobCount[R] - Training.target(R);
    SumSq += Err * Err;
    ++Counted;
  }
  OobMse = Counted ? SumSq / static_cast<double>(Counted)
                   : std::nan("");
  Lazy = LeafMasks::suits(Flat, Width) ? std::make_unique<LazyMasks>()
                                        : nullptr;
  Fitted = true;
  return true;
}

const LeafMasks *RandomForest::masksFor(size_t N) const {
  if (!Lazy)
    return nullptr;
  if (Lazy->Built)
    return &*Lazy->Masks;
  // Exactly one call takes the walked rows across the mark and builds.
  const size_t Before = Lazy->WalkedRows.fetch_add(N);
  if (Before >= LeafMasks::BuildAfterRows ||
      Before + N < LeafMasks::BuildAfterRows)
    return nullptr;
  Lazy->Masks = LeafMasks::build(Flat, Width);
  Lazy->Built = true;
  return &*Lazy->Masks;
}

double RandomForest::predict(const std::vector<double> &Features) const {
  assert(Fitted && "predicting with an unfitted forest");
  assert(Features.size() == Width &&
         "feature width does not match the fitted forest");
  double Sum;
  if (const LeafMasks *Masks = masksFor(1)) {
    const double *Cols[LeafMasks::MaxFeatures];
    for (size_t F = 0; F < Width; ++F)
      Cols[F] = Features.data() + F;
    Masks->sumLeaves(1, Cols, &Sum);
  } else {
    sumForestLeaves(Flat, 1, [&](size_t) { return Features.data(); }, &Sum);
  }
  return Sum / static_cast<double>(Flat.numTrees());
}

std::vector<double> RandomForest::predictBatch(const Dataset &Data) const {
  assert(Fitted && "predicting with an unfitted forest");
  assert(Data.numFeatures() == Width &&
         "feature width does not match the fitted forest");
  // Leaves accumulate in ensemble order and divide once, matching
  // predict() bit for bit.
  const size_t N = Data.numRows();
  std::vector<double> Out(N);
  if (const LeafMasks *Masks = masksFor(N)) {
    // The mask form ranks each feature's column as it stands.
    const double *Cols[LeafMasks::MaxFeatures];
    for (size_t F = 0; F < Width; ++F)
      Cols[F] = Data.column(F);
    Masks->sumLeaves(N, Cols, Out.data());
  } else {
    // Each walk step reads one feature of one row, so the walk wants rows
    // contiguous: transpose the columnar batch once.
    std::vector<double> Rows(N * Width);
    for (size_t F = 0; F < Width; ++F) {
      const double *Col = Data.column(F);
      for (size_t R = 0; R < N; ++R)
        Rows[R * Width + F] = Col[R];
    }
    sumForestLeaves(
        Flat, N, [&](size_t R) { return Rows.data() + R * Width; },
        Out.data());
  }
  for (double &P : Out)
    P /= static_cast<double>(Flat.numTrees());
  return Out;
}
