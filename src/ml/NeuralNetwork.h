//===- ml/NeuralNetwork.h - Multilayer perceptron ---------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small multilayer perceptron for regression, trained with Adam on MSE.
/// The paper trains its NN with a *linear transfer function*, so the
/// default activation is Identity (the network is then a linear map
/// learned by SGD rather than by a solver); ReLU and Tanh are available
/// for the ablation bench. Inputs and the target are standardized
/// internally, and predictions are mapped back to the original scale.
///
/// Each minibatch runs as per-layer matrix kernels over flat activation
/// buffers: forward is one bias-seeded GEMM per layer with a fused
/// activation pass, and backprop computes every weight gradient as one
/// GEMM per layer instead of per-sample outer products. All epoch-loop
/// scratch lives in a preallocated per-fit arena, so the epoch loop
/// performs zero heap allocations after setup.
///
/// Every GEMM accumulates each output element's contraction terms in
/// ascending index order, and gradient accumulators see their minibatch
/// samples in ascending sample order — exactly the order the seed
/// per-sample trainer uses — so the weights, loss curves and predictions
/// are bit-identical to its, for any input, at any thread count. The
/// seed trainer lives on in tests/reference as the oracle the property
/// tests and the CI speedup gate compare against.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_NEURALNETWORK_H
#define SLOPE_ML_NEURALNETWORK_H

#include "ml/Model.h"
#include "support/Rng.h"

namespace slope {
namespace ml {

/// Hidden/output unit transfer function.
enum class Activation {
  Identity, ///< Linear transfer (paper default).
  ReLU,
  Tanh,
};

/// \returns a short printable name for \p A.
const char *activationName(Activation A);

/// Hyper-parameters of the MLP.
struct NeuralNetworkOptions {
  std::vector<size_t> HiddenLayers = {16};
  Activation Transfer = Activation::Identity;
  unsigned Epochs = 400;
  size_t BatchSize = 32;
  double LearningRate = 1e-2;
  double L2 = 1e-5;
  uint64_t Seed = 0xAE77;
};

/// Multilayer perceptron regressor.
class NeuralNetwork : public Model {
public:
  explicit NeuralNetwork(NeuralNetworkOptions Options = NeuralNetworkOptions())
      : Options(Options) {}

  Expected<bool> fit(const Dataset &Training) override;
  double predict(const std::vector<double> &Features) const override;
  std::vector<double> predictBatch(const Dataset &Data) const override;
  std::string name() const override { return "NN"; }

  /// The configured transfer function. QuantizedModel::build folds
  /// identity-transfer networks (affine maps) to effective linear weights
  /// and refuses anything else.
  Activation transfer() const { return Options.Transfer; }

  /// Training MSE (standardized target units) after the final epoch.
  double finalTrainingLoss() const {
    assert(Fitted && "model not fitted");
    return FinalLoss;
  }

private:
  /// One dense layer: Weights is OutDim x InDim, Bias is OutDim.
  struct Layer {
    size_t InDim = 0, OutDim = 0;
    std::vector<double> Weights;
    std::vector<double> Bias;
    // Adam moments, same shapes as Weights/Bias.
    std::vector<double> MW, VW, MB, VB;
  };

  /// Per-sample forward pass over the standardized input row \p Input;
  /// fills the per-layer activations (Acts[0] is the input copy).
  void forward(const double *Input,
               std::vector<std::vector<double>> &Acts) const;

  /// Minibatch GEMM kernel over a preallocated arena (see file comment).
  void fitBatched(const double *Xs, const std::vector<double> &Ys,
                  Rng &NetRng, size_t N, size_t D);

  /// One Adam update from the accumulated minibatch gradients.
  void applyAdamUpdate(const std::vector<std::vector<double>> &GradW,
                       const std::vector<std::vector<double>> &GradB,
                       uint64_t AdamStep);

  double applyTransfer(double X) const;

  /// Transfer derivative from the *stored activation value* (not the
  /// pre-activation): Identity -> 1, ReLU -> [A > 0], Tanh -> 1 - A^2.
  /// Equal to the pre-activation form bit for bit, one transcendental
  /// cheaper for Tanh.
  double transferDerivative(double Act) const;

  NeuralNetworkOptions Options;
  std::vector<Layer> Layers;
  // Standardization parameters captured at fit time.
  std::vector<double> FeatureMean, FeatureStd;
  double TargetMean = 0, TargetStd = 1;
  double FinalLoss = 0;
  bool Fitted = false;
};

namespace detail {
/// Test hook bracketing the batched epoch loop: called with true right
/// after the per-fit arena setup completes and with false when training
/// finishes. The allocation-count test uses it to assert the loop itself
/// performs zero heap allocations. Null (disabled) by default.
extern void (*NnFitPhaseProbe)(bool Entering);
} // namespace detail

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_NEURALNETWORK_H
