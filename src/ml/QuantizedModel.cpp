//===- ml/QuantizedModel.cpp - Fixed-point inference fast path -------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/QuantizedModel.h"

#include "ml/LinearRegression.h"
#include "ml/NeuralNetwork.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>

using namespace slope;
using namespace slope::ml;

namespace {

/// Fixed-point budget (see the header's scheme): calibration maxima land
/// near 2^24 feature quanta, saturation at 2^28 leaves 16x headroom, and
/// the largest weight lands near 2^28.
constexpr double FeatureTargetQuanta = 16777216.0; // 2^24
constexpr double WeightCapQuanta = 268435456.0;    // 2^28
constexpr size_t MaxQuantizedWidth = QuantizedModel::MaxWidth;

InferenceAlgorithm initialInferenceAlgorithm() {
  if (const char *Env = std::getenv("SLOPE_INFER_ALGO")) {
    if (std::string_view(Env) == "quantized")
      return InferenceAlgorithm::Quantized;
    if (std::string_view(Env) == "fp")
      return InferenceAlgorithm::Fp;
  }
  return InferenceAlgorithm::Fp;
}

InferenceAlgorithm GlobalInferenceAlgorithm = initialInferenceAlgorithm();

/// The largest power of two <= \p X (X > 0), computed exactly.
double floorPow2(double X) {
  assert(X > 0 && std::isfinite(X) && "scale selection needs a finite range");
  return std::exp2(std::floor(std::log2(X)));
}

/// Per-feature scale from a calibration column: the column's absolute
/// maximum lands in (2^23, 2^24] quanta. All-zero (or degenerate) columns
/// scale by 1 — every value quantizes to 0 anyway.
double featureScaleFor(const double *Col, size_t N) {
  double MaxAbs = 0;
  for (size_t R = 0; R < N; ++R)
    MaxAbs = std::max(MaxAbs, std::fabs(Col[R]));
  if (!(MaxAbs > 0) || !std::isfinite(MaxAbs))
    return 1.0;
  return floorPow2(FeatureTargetQuanta / MaxAbs);
}

} // namespace

void ml::setDefaultInferenceAlgorithm(InferenceAlgorithm A) {
  GlobalInferenceAlgorithm = A;
}

InferenceAlgorithm ml::defaultInferenceAlgorithm() {
  return GlobalInferenceAlgorithm;
}

double ml::maxRelativeError(const std::vector<double> &Ref,
                            const std::vector<double> &Got) {
  assert(Ref.size() == Got.size() && "comparing mismatched prediction sets");
  double MaxAbsRef = 0;
  for (double V : Ref)
    MaxAbsRef = std::max(MaxAbsRef, std::fabs(V));
  const double Floor = 1e-9 * MaxAbsRef;
  double Worst = 0;
  for (size_t I = 0; I < Ref.size(); ++I) {
    const double Denom = std::max(std::fabs(Ref[I]), Floor);
    if (Denom > 0)
      Worst = std::max(Worst, std::fabs(Got[I] - Ref[I]) / Denom);
  }
  return Worst;
}

Expected<std::unique_ptr<QuantizedModel>>
QuantizedModel::build(std::unique_ptr<Model> Reference,
                      const Dataset &Calibration) {
  if (!Reference)
    return makeError("cannot quantize a null model");
  if (Calibration.numRows() == 0)
    return makeError("quantization needs a non-empty calibration dataset");
  const size_t Width = Calibration.numFeatures();
  if (Width == 0 || Width > MaxQuantizedWidth)
    return makeError("quantized inference supports 1.." +
                     std::to_string(MaxQuantizedWidth) + " features, got " +
                     std::to_string(Width));

  auto Q = std::unique_ptr<QuantizedModel>(new QuantizedModel());
  Q->QuantScale.resize(Width);
  for (size_t F = 0; F < Width; ++F)
    Q->QuantScale[F] =
        featureScaleFor(Calibration.column(F), Calibration.numRows());

  // Linear models — directly (LR) or by probing the affine map (an
  // identity-transfer NN is affine end to end, standardization included,
  // so predict() at the origin and the unit vectors recovers exact
  // effective weights).
  std::vector<double> Coefficients;
  double Intercept = 0;
  if (const auto *Lr = dynamic_cast<const LinearRegression *>(Reference.get())) {
    if (Lr->coefficients().size() != Width)
      return makeError("calibration width does not match the fitted model");
    Coefficients = Lr->coefficients();
    Intercept = Lr->intercept();
  } else if (const auto *Nn =
                 dynamic_cast<const NeuralNetwork *>(Reference.get())) {
    if (Nn->transfer() != Activation::Identity)
      return makeError("quantized inference requires an identity-transfer "
                       "NN (the paper configuration); " +
                       std::string(activationName(Nn->transfer())) +
                       " networks have no integer kernel");
    std::vector<double> Probe(Width, 0.0);
    Intercept = Nn->predict(Probe);
    Coefficients.resize(Width);
    for (size_t F = 0; F < Width; ++F) {
      // Probe at calibration scale, not at 1.0: PMC counts run to 1e9+,
      // so a unit probe would recover the coefficient as the difference
      // of two nearly equal affine-map values (catastrophic
      // cancellation). The step is a power of two, so dividing it back
      // out is exact.
      const double Step = FeatureTargetQuanta / Q->QuantScale[F];
      Probe[F] = Step;
      Coefficients[F] = (Nn->predict(Probe) - Intercept) / Step;
      Probe[F] = 0.0;
    }
  } else {
    return makeError("model family '" + Reference->name() +
                     "' has no quantized inference kernel");
  }
  double MaxPerQuantum = 0;
  for (size_t F = 0; F < Width; ++F)
    MaxPerQuantum = std::max(MaxPerQuantum,
                             std::fabs(Coefficients[F]) / Q->QuantScale[F]);
  // Output quanta per joule: the adaptive EM_TO_INT base. Push the
  // largest weight to ~2^28 so weight rounding is a 2^-29 relative
  // perturbation; an all-zero model gets the default pico-joule-like
  // 2^40 base.
  Q->OutputBase = MaxPerQuantum > 0
                      ? floorPow2(WeightCapQuanta / MaxPerQuantum)
                      : std::exp2(40);
  Q->DequantScale = 1.0 / Q->OutputBase;
  Q->WeightQ.resize(Width);
  for (size_t F = 0; F < Width; ++F)
    Q->WeightQ[F] =
        std::llround(Coefficients[F] * Q->OutputBase / Q->QuantScale[F]);
  Q->BiasQ = std::llround(Intercept * Q->OutputBase);
  Q->Ref = std::move(Reference);
  return Q;
}

Expected<bool> QuantizedModel::fit(const Dataset &) {
  return makeError("quantized models are built from fitted FP models via "
                   "QuantizedModel::build, never fitted directly");
}

int64_t QuantizedModel::predictQuantized(const int32_t *QRow) const {
  int64_t Acc;
  predictQuantizedMany(QRow, /*Indices=*/nullptr, 1, &Acc);
  return Acc;
}

void QuantizedModel::predictQuantizedMany(const int32_t *Rows,
                                          const size_t *Indices, size_t N,
                                          int64_t *Out) const {
  // Open-coded: the dot product is ~Width multiply-adds, so a per-row
  // function call would be a measurable fraction of the work. The
  // contiguous (null-Indices) variant is a plain strided walk the
  // compiler can keep entirely in registers.
  const size_t Width = QuantScale.size();
  const int64_t *W = WeightQ.data();
  const int64_t Bias = BiasQ;
  if (Indices) {
    for (size_t I = 0; I < N; ++I) {
      const int32_t *QRow = Rows + Indices[I] * Width;
      int64_t Acc = Bias;
      for (size_t F = 0; F < Width; ++F)
        Acc += W[F] * static_cast<int64_t>(QRow[F]);
      Out[I] = Acc;
    }
  } else {
    const int32_t *QRow = Rows;
    for (size_t I = 0; I < N; ++I, QRow += Width) {
      int64_t Acc = Bias;
      for (size_t F = 0; F < Width; ++F)
        Acc += W[F] * static_cast<int64_t>(QRow[F]);
      Out[I] = Acc;
    }
  }
}

double QuantizedModel::predict(const std::vector<double> &Features) const {
  assert(Features.size() == QuantScale.size() &&
         "feature width does not match the quantized model");
  int32_t QRow[MaxQuantizedWidth];
  quantizeRow(Features.data(), QRow);
  return dequantize(predictQuantized(QRow));
}

std::vector<double> QuantizedModel::predictBatch(const Dataset &Data) const {
  assert(Data.numFeatures() == QuantScale.size() &&
         "feature width does not match the quantized model");
  const size_t N = Data.numRows();
  const size_t Width = QuantScale.size();
  // Quantize column by column (one streaming pass per feature), then run
  // the batched integer kernel over the contiguous rows — identical
  // arithmetic to predict(), so the two paths agree bit for bit.
  std::vector<int32_t> QBuf(N * Width);
  for (size_t F = 0; F < Width; ++F) {
    const double *Col = Data.column(F);
    const double Scale = QuantScale[F];
    for (size_t R = 0; R < N; ++R)
      QBuf[R * Width + F] = quantizeValue(Col[R], Scale);
  }
  std::vector<int64_t> OutQ(N);
  predictQuantizedMany(QBuf.data(), /*Indices=*/nullptr, N, OutQ.data());
  std::vector<double> Out(N);
  for (size_t R = 0; R < N; ++R)
    Out[R] = dequantize(OutQ[R]);
  return Out;
}
