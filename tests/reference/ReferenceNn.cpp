//===- tests/reference/ReferenceNn.cpp - Per-sample MLP oracle --------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ReferenceNn.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace slope;
using namespace slope::ml;

namespace {

/// The textbook Adam update of \p N parameters.
void adamStep(double *W, double *M, double *V, const double *Grad, size_t N,
              double L2, double Beta1, double Beta2, double Corr1,
              double Corr2, double Lr, double Eps) {
  for (size_t I = 0; I < N; ++I) {
    const double G = Grad[I] + L2 * W[I];
    M[I] = Beta1 * M[I] + (1 - Beta1) * G;
    V[I] = Beta2 * V[I] + (1 - Beta2) * G * G;
    W[I] -= Lr * (M[I] / Corr1) / (std::sqrt(V[I] / Corr2) + Eps);
  }
}

} // namespace

double reference::NeuralNetwork::transfer(double X) const {
  switch (Options.Transfer) {
  case Activation::Identity:
    return X;
  case Activation::ReLU:
    return X > 0 ? X : 0;
  case Activation::Tanh:
    return std::tanh(X);
  }
  return X;
}

double reference::NeuralNetwork::transferDerivative(double Act) const {
  switch (Options.Transfer) {
  case Activation::Identity:
    return 1;
  case Activation::ReLU:
    return Act > 0 ? 1 : 0;
  case Activation::Tanh:
    return 1 - Act * Act;
  }
  return 1;
}

void reference::NeuralNetwork::forward(
    const double *Input, std::vector<std::vector<double>> &Acts) const {
  Acts.resize(Layers.size() + 1);
  Acts[0].assign(Input, Input + Layers[0].InDim);
  for (size_t L = 0; L < Layers.size(); ++L) {
    const Layer &Lay = Layers[L];
    Acts[L + 1].assign(Lay.OutDim, 0.0);
    bool IsOutput = (L + 1 == Layers.size());
    for (size_t O = 0; O < Lay.OutDim; ++O) {
      double Sum = Lay.Bias[O];
      const double *WRow = &Lay.Weights[O * Lay.InDim];
      for (size_t I = 0; I < Lay.InDim; ++I)
        Sum += WRow[I] * Acts[L][I];
      // The output unit is always linear for regression.
      Acts[L + 1][O] = IsOutput ? Sum : transfer(Sum);
    }
  }
}

reference::NeuralNetwork::NeuralNetwork(const Dataset &Training,
                                        const NeuralNetworkOptions &Options)
    : Options(Options) {
  const size_t N = Training.numRows(), D = Training.numFeatures();
  assert(N > 0 && D > 0 && "training a network without rows or features");

  // Standardize features and target; constant columns get Std 1.
  FeatureMean.assign(D, 0.0);
  FeatureStd.assign(D, 1.0);
  for (size_t C = 0; C < D; ++C) {
    const double *Col = Training.column(C);
    double Sum = 0;
    for (size_t R = 0; R < N; ++R)
      Sum += Col[R];
    FeatureMean[C] = Sum / static_cast<double>(N);
    double Sq = 0;
    for (size_t R = 0; R < N; ++R) {
      double Dx = Col[R] - FeatureMean[C];
      Sq += Dx * Dx;
    }
    double Std = std::sqrt(Sq / static_cast<double>(N));
    FeatureStd[C] = Std > 1e-12 ? Std : 1.0;
  }
  double Sum = 0;
  for (double Y : Training.targets())
    Sum += Y;
  TargetMean = Sum / static_cast<double>(N);
  double Sq = 0;
  for (double Y : Training.targets()) {
    double Dy = Y - TargetMean;
    Sq += Dy * Dy;
  }
  double Std = std::sqrt(Sq / static_cast<double>(N));
  TargetStd = Std > 1e-12 ? Std : 1.0;

  std::vector<double> Xs(N * D), Ys(N);
  for (size_t R = 0; R < N; ++R) {
    for (size_t C = 0; C < D; ++C)
      Xs[R * D + C] = (Training.column(C)[R] - FeatureMean[C]) / FeatureStd[C];
    Ys[R] = (Training.target(R) - TargetMean) / TargetStd;
  }

  // Layers D -> hidden... -> 1, Glorot-uniform initialization.
  Rng NetRng(Options.Seed);
  std::vector<size_t> Dims = {D};
  Dims.insert(Dims.end(), Options.HiddenLayers.begin(),
              Options.HiddenLayers.end());
  Dims.push_back(1);
  for (size_t L = 0; L + 1 < Dims.size(); ++L) {
    Layer Lay;
    Lay.InDim = Dims[L];
    Lay.OutDim = Dims[L + 1];
    Lay.Weights.resize(Lay.InDim * Lay.OutDim);
    Lay.Bias.assign(Lay.OutDim, 0.0);
    double Limit =
        std::sqrt(6.0 / static_cast<double>(Lay.InDim + Lay.OutDim));
    for (double &W : Lay.Weights)
      W = NetRng.uniform(-Limit, Limit);
    Lay.MW.assign(Lay.Weights.size(), 0.0);
    Lay.VW.assign(Lay.Weights.size(), 0.0);
    Lay.MB.assign(Lay.OutDim, 0.0);
    Lay.VB.assign(Lay.OutDim, 0.0);
    Layers.push_back(std::move(Lay));
  }

  // The seed epoch loop: per-sample forward and backprop with per-sample
  // scratch vectors.
  size_t BatchSize = std::min(Options.BatchSize, N);
  assert(BatchSize > 0 && "batch size must be positive");
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::vector<std::vector<double>> Acts;
  std::vector<std::vector<double>> GradW(Layers.size()), GradB(Layers.size());
  uint64_t AdamStep = 0;

  for (unsigned Epoch = 0; Epoch < Options.Epochs; ++Epoch) {
    for (size_t I = N; I > 1; --I)
      std::swap(Order[I - 1], Order[NetRng.below(I)]);

    double EpochLoss = 0;
    for (size_t Start = 0; Start < N; Start += BatchSize) {
      size_t End = std::min(Start + BatchSize, N);
      double InvBatch = 1.0 / static_cast<double>(End - Start);
      for (size_t L = 0; L < Layers.size(); ++L) {
        GradW[L].assign(Layers[L].Weights.size(), 0.0);
        GradB[L].assign(Layers[L].OutDim, 0.0);
      }

      for (size_t P = Start; P < End; ++P) {
        size_t R = Order[P];
        forward(Xs.data() + R * D, Acts);
        double Pred = Acts.back()[0];
        double Err = Pred - Ys[R];
        EpochLoss += Err * Err;

        // Backpropagate dLoss/dPreAct layer by layer.
        std::vector<double> Delta(1, 2 * Err * InvBatch);
        for (size_t Lp1 = Layers.size(); Lp1 > 0; --Lp1) {
          size_t L = Lp1 - 1;
          Layer &Lay = Layers[L];
          // Delta holds dLoss/dAct of layer L's output; convert to
          // dLoss/dPreAct through the stored activation (the output
          // layer is linear).
          if (L + 1 != Layers.size())
            for (size_t O = 0; O < Lay.OutDim; ++O)
              Delta[O] *= transferDerivative(Acts[L + 1][O]);
          for (size_t O = 0; O < Lay.OutDim; ++O) {
            GradB[L][O] += Delta[O];
            double *GRow = &GradW[L][O * Lay.InDim];
            for (size_t In = 0; In < Lay.InDim; ++In)
              GRow[In] += Delta[O] * Acts[L][In];
          }
          if (L == 0)
            break;
          std::vector<double> Prev(Lay.InDim, 0.0);
          for (size_t O = 0; O < Lay.OutDim; ++O) {
            const double *WRow = &Lay.Weights[O * Lay.InDim];
            for (size_t In = 0; In < Lay.InDim; ++In)
              Prev[In] += WRow[In] * Delta[O];
          }
          Delta = std::move(Prev);
        }
      }

      ++AdamStep;
      const double Beta1 = 0.9, Beta2 = 0.999, Eps = 1e-8;
      double Corr1 = 1 - std::pow(Beta1, static_cast<double>(AdamStep));
      double Corr2 = 1 - std::pow(Beta2, static_cast<double>(AdamStep));
      for (size_t L = 0; L < Layers.size(); ++L) {
        Layer &Lay = Layers[L];
        adamStep(Lay.Weights.data(), Lay.MW.data(), Lay.VW.data(),
                 GradW[L].data(), Lay.Weights.size(), Options.L2, Beta1,
                 Beta2, Corr1, Corr2, Options.LearningRate, Eps);
        // The bias gradient is never regularized.
        adamStep(Lay.Bias.data(), Lay.MB.data(), Lay.VB.data(),
                 GradB[L].data(), Lay.OutDim, /*L2=*/0.0, Beta1, Beta2,
                 Corr1, Corr2, Options.LearningRate, Eps);
      }
    }
    FinalLoss = EpochLoss / static_cast<double>(N);
  }
}

std::vector<double>
reference::NeuralNetwork::predict(const Dataset &Data) const {
  const size_t D = FeatureMean.size();
  assert(Data.numFeatures() == D &&
         "feature width does not match the fitted network");
  std::vector<double> Out(Data.numRows()), X(D);
  std::vector<std::vector<double>> Acts;
  for (size_t R = 0; R < Data.numRows(); ++R) {
    for (size_t C = 0; C < D; ++C)
      X[C] = (Data.column(C)[R] - FeatureMean[C]) / FeatureStd[C];
    forward(X.data(), Acts);
    Out[R] = Acts.back()[0] * TargetStd + TargetMean;
  }
  return Out;
}
