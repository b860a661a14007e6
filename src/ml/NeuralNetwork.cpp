//===- ml/NeuralNetwork.cpp - Multilayer perceptron --------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/NeuralNetwork.h"

#include "stats/Matrix.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

using namespace slope;
using namespace slope::ml;

void (*ml::detail::NnFitPhaseProbe)(bool) = nullptr;

const char *ml::activationName(Activation A) {
  switch (A) {
  case Activation::Identity:
    return "identity";
  case Activation::ReLU:
    return "relu";
  case Activation::Tanh:
    return "tanh";
  }
  assert(false && "unknown activation");
  return "?";
}

double NeuralNetwork::applyTransfer(double X) const {
  switch (Options.Transfer) {
  case Activation::Identity:
    return X;
  case Activation::ReLU:
    return X > 0 ? X : 0;
  case Activation::Tanh:
    return std::tanh(X);
  }
  assert(false && "unknown activation");
  return X;
}

double NeuralNetwork::transferDerivative(double Act) const {
  switch (Options.Transfer) {
  case Activation::Identity:
    return 1;
  case Activation::ReLU:
    // ReLU(x) > 0 exactly when x > 0, so the stored activation decides
    // the gate bit-identically to the pre-activation.
    return Act > 0 ? 1 : 0;
  case Activation::Tanh:
    // The forward pass already computed tanh(x); 1 - a^2 equals the
    // recomputed 1 - tanh(x)^2 bit for bit, one transcendental cheaper.
    return 1 - Act * Act;
  }
  assert(false && "unknown activation");
  return 1;
}

void NeuralNetwork::forward(const double *Input,
                            std::vector<std::vector<double>> &Acts) const {
  Acts.resize(Layers.size() + 1);
  Acts[0].assign(Input, Input + (Layers.empty() ? 0 : Layers[0].InDim));
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
      Acts[L + 1][O] = IsOutput ? Sum : applyTransfer(Sum);
    }
  }
}

void NeuralNetwork::applyAdamUpdate(
    const std::vector<std::vector<double>> &GradW,
    const std::vector<std::vector<double>> &GradB, uint64_t AdamStep) {
  const double Beta1 = 0.9, Beta2 = 0.999, Eps = 1e-8;
  double Corr1 = 1 - std::pow(Beta1, static_cast<double>(AdamStep));
  double Corr2 = 1 - std::pow(Beta2, static_cast<double>(AdamStep));
  // One dispatched element-wise kernel per parameter block (see
  // stats/SimdKernels.h: column-parallel, bit-identical to the loop it
  // replaced under every SIMD mode). Biases take L2 = 0: the bias
  // gradient was never regularized.
  for (size_t L = 0; L < Layers.size(); ++L) {
    Layer &Lay = Layers[L];
    stats::adamStep(Lay.Weights.data(), Lay.MW.data(), Lay.VW.data(),
                    GradW[L].data(), Lay.Weights.size(), Options.L2, Beta1,
                    Beta2, Corr1, Corr2, Options.LearningRate, Eps);
    stats::adamStep(Lay.Bias.data(), Lay.MB.data(), Lay.VB.data(),
                    GradB[L].data(), Lay.OutDim, /*L2=*/0.0, Beta1, Beta2,
                    Corr1, Corr2, Options.LearningRate, Eps);
  }
}

void NeuralNetwork::fitBatched(const double *Xs, const std::vector<double> &Ys,
                               Rng &NetRng, size_t N, size_t D) {
  size_t BatchSize = std::min(Options.BatchSize, N);
  assert(BatchSize > 0 && "batch size must be positive");
  size_t NumLayers = Layers.size();

  // Per-fit training arena: every buffer the epoch loop touches is
  // allocated here, once. Activations are stored *sample-major*
  // (width x batch, sample S in column S) so every kernel's inner loop
  // runs contiguously over the minibatch instead of over the short layer
  // widths. Acts[0] is the gathered minibatch input (D x batch) and
  // Deltas[L] holds dLoss/dPreAct of layer L's outputs. A partial final
  // minibatch of B samples reinterprets the same flat buffers with row
  // stride B — every batch overwrites them in full, so no padding (and
  // no risk of stale ±0.0 columns leaking in).
  std::vector<std::vector<double>> Acts(NumLayers + 1), Deltas(NumLayers);
  Acts[0].assign(D * BatchSize, 0.0);
  for (size_t L = 0; L < NumLayers; ++L) {
    Acts[L + 1].assign(Layers[L].OutDim * BatchSize, 0.0);
    Deltas[L].assign(Layers[L].OutDim * BatchSize, 0.0);
  }
  std::vector<std::vector<double>> GradW(NumLayers), GradB(NumLayers);
  for (size_t L = 0; L < NumLayers; ++L) {
    GradW[L].assign(Layers[L].Weights.size(), 0.0);
    GradB[L].assign(Layers[L].OutDim, 0.0);
  }
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t{0});
  uint64_t AdamStep = 0;

  if (detail::NnFitPhaseProbe)
    detail::NnFitPhaseProbe(true);

  for (unsigned Epoch = 0; Epoch < Options.Epochs; ++Epoch) {
    for (size_t I = N; I > 1; --I)
      std::swap(Order[I - 1], Order[NetRng.below(I)]);

    double EpochLoss = 0;
    for (size_t Start = 0; Start < N; Start += BatchSize) {
      size_t End = std::min(Start + BatchSize, N);
      size_t B = End - Start;
      double InvBatch = 1.0 / static_cast<double>(B);
      for (size_t L = 0; L < NumLayers; ++L) {
        std::fill(GradW[L].begin(), GradW[L].end(), 0.0);
        std::fill(GradB[L].begin(), GradB[L].end(), 0.0);
      }

      // Gather the shuffled minibatch, transposed: sample S is column S.
      for (size_t S = 0; S < B; ++S) {
        const double *Row = Xs + Order[Start + S] * D;
        for (size_t C = 0; C < D; ++C)
          Acts[0][C * B + S] = Row[C];
      }

      // Forward: broadcast each bias across its output row, then one
      // plain GEMM per layer — Weights (OutDim x InDim) times the
      // sample-major activations (InDim x B) — accumulating the weighted
      // inputs onto the bias in ascending input order, exactly the
      // seed per-sample trainer's accumulation. The transfer is applied in a
      // fused pass (the output layer stays linear, and Identity is
      // skipped because it is, well, the identity).
      for (size_t L = 0; L < NumLayers; ++L) {
        const Layer &Lay = Layers[L];
        double *Out = Acts[L + 1].data();
        for (size_t O = 0; O < Lay.OutDim; ++O)
          std::fill(Out + O * B, Out + (O + 1) * B, Lay.Bias[O]);
        stats::gemmAccumulate(Lay.Weights.data(), Acts[L].data(), Out,
                              Lay.OutDim, Lay.InDim, B);
        if (L + 1 < NumLayers && Options.Transfer != Activation::Identity)
          for (size_t I = 0; I < Lay.OutDim * B; ++I)
            Out[I] = applyTransfer(Out[I]);
      }

      // Loss and the output-layer delta, in ascending sample order (the
      // same order the seed per-sample loop adds its loss terms).
      const double *Pred = Acts[NumLayers].data(); // 1 x B
      double *DOut = Deltas[NumLayers - 1].data();
      for (size_t S = 0; S < B; ++S) {
        double Err = Pred[S] - Ys[Order[Start + S]];
        EpochLoss += Err * Err;
        DOut[S] = 2 * Err * InvBatch;
      }

      // Backward: convert dLoss/dAct to dLoss/dPreAct through the stored
      // activations, reduce each bias gradient over samples in ascending
      // order, form the weight gradient as one sample-contiguous GEMM
      // per layer (instead of per-sample outer products), and push the
      // delta down one layer with an output-ascending GEMM.
      for (size_t Lp1 = NumLayers; Lp1 > 0; --Lp1) {
        size_t L = Lp1 - 1;
        const Layer &Lay = Layers[L];
        double *DeltaL = Deltas[L].data();
        // Identity's derivative is exactly 1, so the conversion pass is
        // skipped outright (multiplying by 1.0 is bit-neutral), like the
        // forward pass skips the identity transfer itself.
        if (L + 1 != NumLayers &&
            Options.Transfer != Activation::Identity) {
          const double *ActL1 = Acts[L + 1].data();
          for (size_t I = 0; I < Lay.OutDim * B; ++I)
            DeltaL[I] *= transferDerivative(ActL1[I]);
        }
        // Bias gradients reduce each delta row over samples; the
        // dispatched sum keeps ascending order by default and K-splits
        // only under the explicit avx2 opt-in (see stats/SimdKernels.h).
        for (size_t O = 0; O < Lay.OutDim; ++O)
          GradB[L][O] += stats::sum(DeltaL + O * B, B);
        // GradW (OutDim x InDim) += DeltaL (OutDim x B) x Acts^T: both
        // operands stream sample-contiguous rows and every element dots
        // its samples in ascending order.
        stats::gemmBTransposedAccumulate(DeltaL, Acts[L].data(),
                                         GradW[L].data(), Lay.OutDim, B,
                                         Lay.InDim);
        if (L == 0)
          break;
        // Prev (InDim x B) = Weights^T (InDim x OutDim) x DeltaL: each
        // element accumulates its outputs in ascending order, as the
        // seed per-sample loop does.
        std::fill(Deltas[L - 1].begin(),
                  Deltas[L - 1].begin() +
                      static_cast<std::ptrdiff_t>(Lay.InDim * B),
                  0.0);
        stats::gemmATransposedAccumulate(Lay.Weights.data(), DeltaL,
                                         Deltas[L - 1].data(), Lay.InDim,
                                         Lay.OutDim, B);
      }

      ++AdamStep;
      applyAdamUpdate(GradW, GradB, AdamStep);
    }
    FinalLoss = EpochLoss / static_cast<double>(N);
  }

  if (detail::NnFitPhaseProbe)
    detail::NnFitPhaseProbe(false);
}

Expected<bool> NeuralNetwork::fit(const Dataset &Training) {
  if (Training.numRows() == 0)
    return makeError("cannot fit a network on an empty dataset");
  if (Training.numFeatures() == 0)
    return makeError("cannot fit a network without features");

  size_t N = Training.numRows();
  size_t D = Training.numFeatures();

  // Standardize features and target; constant columns get Std 1 so they
  // become exactly zero after centering. Columns are independent, so the
  // per-column statistics parallelize over disjoint slots; within a column
  // the accumulation order is row order regardless of thread count, so the
  // standardization is bit-identical to a serial pass.
  FeatureMean.assign(D, 0.0);
  FeatureStd.assign(D, 1.0);
  parallelFor(0, D, 1, [&](size_t C) {
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
  });
  {
    double Sum = std::accumulate(Training.targets().begin(),
                                 Training.targets().end(), 0.0);
    TargetMean = Sum / static_cast<double>(N);
    double Sq = 0;
    for (double Y : Training.targets()) {
      double Dy = Y - TargetMean;
      Sq += Dy * Dy;
    }
    double Std = std::sqrt(Sq / static_cast<double>(N));
    TargetStd = Std > 1e-12 ? Std : 1.0;
  }

  // Minibatch prep: the standardized design matrix the epoch loop shuffles
  // indices into, stored flat row-major. Rows are disjoint, so this
  // parallelizes cleanly.
  std::vector<double> Xs(N * D);
  std::vector<double> Ys(N);
  parallelFor(0, N, 64, [&](size_t R) {
    for (size_t C = 0; C < D; ++C)
      Xs[R * D + C] = (Training.column(C)[R] - FeatureMean[C]) / FeatureStd[C];
    Ys[R] = (Training.target(R) - TargetMean) / TargetStd;
  });

  // Build layers: D -> hidden... -> 1, Glorot-uniform initialization.
  Rng NetRng(Options.Seed);
  std::vector<size_t> Dims;
  Dims.push_back(D);
  for (size_t H : Options.HiddenLayers) {
    assert(H > 0 && "hidden layer of width zero");
    Dims.push_back(H);
  }
  Dims.push_back(1);
  Layers.clear();
  for (size_t L = 0; L + 1 < Dims.size(); ++L) {
    Layer Lay;
    Lay.InDim = Dims[L];
    Lay.OutDim = Dims[L + 1];
    Lay.Weights.resize(Lay.InDim * Lay.OutDim);
    Lay.Bias.assign(Lay.OutDim, 0.0);
    double Limit = std::sqrt(6.0 / static_cast<double>(Lay.InDim + Lay.OutDim));
    for (double &W : Lay.Weights)
      W = NetRng.uniform(-Limit, Limit);
    Lay.MW.assign(Lay.Weights.size(), 0.0);
    Lay.VW.assign(Lay.Weights.size(), 0.0);
    Lay.MB.assign(Lay.OutDim, 0.0);
    Lay.VB.assign(Lay.OutDim, 0.0);
    Layers.push_back(std::move(Lay));
  }

  fitBatched(Xs.data(), Ys, NetRng, N, D);

  Fitted = true;
  return true;
}

double NeuralNetwork::predict(const std::vector<double> &Features) const {
  assert(Fitted && "predicting with an unfitted network");
  assert(Features.size() == FeatureMean.size() &&
         "feature width does not match the fitted network");
  std::vector<double> X(Features.size());
  for (size_t C = 0; C < Features.size(); ++C)
    X[C] = (Features[C] - FeatureMean[C]) / FeatureStd[C];
  std::vector<std::vector<double>> Acts;
  forward(X.data(), Acts);
  return Acts.back()[0] * TargetStd + TargetMean;
}

std::vector<double> NeuralNetwork::predictBatch(const Dataset &Data) const {
  assert(Fitted && "predicting with an unfitted network");
  assert(Data.numFeatures() == FeatureMean.size() &&
         "feature width does not match the fitted network");
  size_t N = Data.numRows();
  size_t D = FeatureMean.size();
  if (N == 0)
    return {};
  // Whole-set batched forward with the same bias-seeded GEMM kernels the
  // trainer uses; each row runs exactly the operations predict()
  // performs, in the same order.
  stats::Matrix Cur(N, D);
  for (size_t R = 0; R < N; ++R) {
    double *Row = Cur.rowSpan(R);
    for (size_t C = 0; C < D; ++C)
      Row[C] = (Data.column(C)[R] - FeatureMean[C]) / FeatureStd[C];
  }
  for (size_t L = 0; L < Layers.size(); ++L) {
    const Layer &Lay = Layers[L];
    stats::Matrix Next(N, Lay.OutDim);
    for (size_t R = 0; R < N; ++R)
      std::memcpy(Next.rowSpan(R), Lay.Bias.data(),
                  Lay.OutDim * sizeof(double));
    stats::gemmBTransposedAccumulate(Cur.data(), Lay.Weights.data(),
                                     Next.data(), N, Lay.InDim, Lay.OutDim);
    if (L + 1 < Layers.size() && Options.Transfer != Activation::Identity)
      for (size_t R = 0; R < N; ++R) {
        double *Row = Next.rowSpan(R);
        for (size_t O = 0; O < Lay.OutDim; ++O)
          Row[O] = applyTransfer(Row[O]);
      }
    Cur = std::move(Next);
  }
  std::vector<double> Out(N);
  for (size_t R = 0; R < N; ++R)
    Out[R] = Cur.rowSpan(R)[0] * TargetStd + TargetMean;
  return Out;
}
