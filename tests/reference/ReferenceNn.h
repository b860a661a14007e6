//===- tests/reference/ReferenceNn.h - Per-sample MLP oracle ----*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed per-sample neural-network trainer, kept as the oracle the
/// batched production trainer (ml/NeuralNetwork.h) must reproduce bit for
/// bit. NeuralNetwork exposes no weights, so the oracle is a whole
/// trainer: the same standardization and Glorot initialization from
/// Rng(Seed), the same per-epoch shuffles, per-sample forward and
/// backprop, the textbook Adam step, and its own per-row predict.
/// Tests compare the final training loss and the predictions.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_TESTS_REFERENCE_REFERENCENN_H
#define SLOPE_TESTS_REFERENCE_REFERENCENN_H

#include "ml/NeuralNetwork.h"

#include <vector>

namespace slope {
namespace reference {

/// A network trained by the oracle.
class NeuralNetwork {
public:
  /// Trains on \p Training (non-empty, with features) with \p Options,
  /// exactly as ml::NeuralNetwork(Options).fit(Training) does.
  NeuralNetwork(const ml::Dataset &Training,
                const ml::NeuralNetworkOptions &Options);

  /// Training MSE (standardized target units) after the final epoch.
  double finalTrainingLoss() const { return FinalLoss; }

  /// \returns the prediction of every row of \p Data, one row at a time.
  std::vector<double> predict(const ml::Dataset &Data) const;

private:
  /// One dense layer: Weights is OutDim x InDim, Bias is OutDim.
  struct Layer {
    size_t InDim = 0, OutDim = 0;
    std::vector<double> Weights, Bias;
    std::vector<double> MW, VW, MB, VB; ///< Adam moments.
  };

  /// Fills Acts[L] with layer L's activations for one standardized row.
  void forward(const double *Input,
               std::vector<std::vector<double>> &Acts) const;
  double transfer(double X) const;
  /// The transfer's derivative from the stored activation \p Act.
  double transferDerivative(double Act) const;

  ml::NeuralNetworkOptions Options;
  std::vector<Layer> Layers;
  std::vector<double> FeatureMean, FeatureStd;
  double TargetMean = 0, TargetStd = 1;
  double FinalLoss = 0;
};

} // namespace reference
} // namespace slope

#endif // SLOPE_TESTS_REFERENCE_REFERENCENN_H
