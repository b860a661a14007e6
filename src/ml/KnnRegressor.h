//===- ml/KnnRegressor.h - Nearest-neighbour energy model -------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// k-nearest-neighbour regression in standardized PMC space — the
/// Manila-style baseline from the paper's related work ("construct a
/// densely populated multi-dimensional space of PMCs and predict the
/// energy consumption of platform using a nearest neighborhood search
/// algorithm", Mair et al.). Included so the bench suite can compare the
/// paper's three families against this fourth literature approach.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_KNNREGRESSOR_H
#define SLOPE_ML_KNNREGRESSOR_H

#include "ml/Model.h"

#include <utility>

namespace slope {
namespace ml {

/// Hyper-parameters of the k-NN model.
struct KnnOptions {
  size_t K = 5;
  /// Weight neighbours by inverse distance instead of uniformly.
  bool DistanceWeighted = true;
};

/// k-nearest-neighbour regressor over standardized features.
class KnnRegressor : public Model {
public:
  explicit KnnRegressor(KnnOptions Options = KnnOptions())
      : Options(Options) {}

  Expected<bool> fit(const Dataset &Training) override;
  double predict(const std::vector<double> &Features) const override;
  std::vector<double> predictBatch(const Dataset &Data) const override;
  std::string name() const override { return "kNN"; }

  /// \returns the effective neighbourhood size (K clamped to the
  /// training size). Valid after fit.
  size_t effectiveK() const {
    assert(Fitted && "model not fitted");
    return std::min(Options.K, Targets.size());
  }

private:
  /// Neighbourhood vote over one standardized query row; \p Distances is
  /// caller-owned scratch so batch prediction reuses one buffer.
  double predictStandardized(
      const double *Query,
      std::vector<std::pair<double, size_t>> &Distances) const;

  KnnOptions Options;
  /// Standardized training rows, flat row-major (numRows x numFeatures).
  std::vector<double> Rows;
  std::vector<double> Targets;
  std::vector<double> FeatureMean, FeatureStd;
  bool Fitted = false;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_KNNREGRESSOR_H
