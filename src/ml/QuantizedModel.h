//===- ml/QuantizedModel.h - Fixed-point inference fast path ----*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantized fixed-point inference: an integer twin of a fitted linear
/// FP model, built once from the trained parameters plus a calibration
/// dataset, so the serving hot loop can run in pure integer arithmetic —
/// the deployed form of counter-based energy models (in-kernel schedulers
/// ship their LR weights as integer pico-joule units precisely because
/// the hot path cannot afford FP).
///
/// The twin covers the linear families only: LR, and identity-transfer
/// NNs, which are affine maps and are folded to effective linear weights
/// by probing. A model linear in additive PMCs is the form an
/// energy-conservation-consistent model takes; every other family gets
/// build()'s "no quantized inference kernel" error.
///
/// Quantization scheme (all scales are powers of two, so every rescale is
/// exact in FP):
///
///  * Features: per-feature scale chosen from the calibration range so the
///    calibration maximum lands near 2^24 quanta; quantizeRow() saturates
///    at +/-2^28, i.e. 16x headroom over anything seen at calibration.
///  * Weights: scaled to integers by an output base chosen per model from
///    the trained coefficient range — the largest weight lands near 2^28 —
///    mirroring the kernel EM_TO_INT idiom with an adaptive base instead
///    of a fixed 1e-12. The dot product is pure int64 adds/multiplies
///    (term <= 2^56, so up to 64 features cannot overflow) with a single
///    final rescale.
///
/// Unlike the repo's other selectable kernels, quantized inference cannot
/// be bit-identical to the FP reference. It instead ships with a
/// documented, tested error bound: rounding contributes O(2^-24) per term
/// (half a feature quantum against a calibration maximum near 2^24
/// quanta, and 2^-29 of the largest weight), so |quantized - fp| relative
/// error stays below 1e-4 with orders of magnitude to spare;
/// tests/ml/QuantizedModelTest.cpp proves the bound for LR and the
/// identity NN on synthetic and machine-profiled data, and the serving CI
/// gate re-checks the attribution tables end to end.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_QUANTIZEDMODEL_H
#define SLOPE_ML_QUANTIZEDMODEL_H

#include "ml/Model.h"
#include "stats/SimdKernels.h"

#include <cmath>
#include <cstdint>
#include <memory>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace slope {
namespace ml {

/// Inference-kernel selection. It changes numerics (within the documented
/// error bound), so it stays a runtime choice: the paper-table drivers
/// keep their FP default and the serving gate compares the two sides.
enum class InferenceAlgorithm {
  Fp,        ///< The fitted FP model as-is (reference; default).
  Quantized, ///< Fixed-point twin built by QuantizedModel::build.
};

/// Overrides the process-wide inference algorithm. The initial value
/// honours the SLOPE_INFER_ALGO environment variable ("fp" or
/// "quantized"); benches expose it as --infer-algo.
void setDefaultInferenceAlgorithm(InferenceAlgorithm A);

/// \returns the process-wide default inference algorithm.
InferenceAlgorithm defaultInferenceAlgorithm();

/// \returns max_i |Got[i] - Ref[i]| / max(|Ref[i]|, Floor) over both
/// vectors, where Floor is 1e-9 x max_i |Ref[i]| so near-zero reference
/// entries cannot blow the ratio up. The error-bound property tests and
/// the serving tolerance gate measure exactly this. Asserts equal sizes;
/// \returns 0 for empty input.
double maxRelativeError(const std::vector<double> &Ref,
                        const std::vector<double> &Got);

/// An integer fixed-point twin of a fitted linear model (see file
/// comment). Owns
/// the FP reference it was built from; predict/predictBatch run the
/// integer kernels, and the serving engine uses the quantizeRow /
/// predictQuantized / dequantize split to keep its hot loop integer-only.
class QuantizedModel : public Model {
public:
  /// Builds the fixed-point twin of \p Reference (must be fitted; the
  /// twin takes ownership). \p Calibration supplies the per-feature value
  /// ranges the feature scales are chosen from — normally the training
  /// dataset. \returns an error for models whose family has no integer
  /// kernel (anything but LR and identity-transfer NNs), empty
  /// calibration data, a feature-width mismatch, or more than 64 features
  /// (the int64 accumulator budget).
  static Expected<std::unique_ptr<QuantizedModel>>
  build(std::unique_ptr<Model> Reference, const Dataset &Calibration);

  /// The int64 accumulator budget caps quantized models at 64 features
  /// (term <= 2^56 each); callers may size stack row buffers with this.
  static constexpr size_t MaxWidth = 64;

  /// Feature quanta saturate at +/-2^28 — 16x headroom over the 2^24
  /// calibration target.
  static constexpr int64_t SaturationQuanta = INT64_C(1) << 28;

  /// Quantizes one value: round(X * Scale), saturated — the rule of
  /// stats::quantizeScaleClamp, which quantizeRow() runs: clamp to
  /// +/-2^28 in the double domain (max, then min, so NaN maps to -2^28
  /// and +/-Inf saturate with their sign), then round to nearest even
  /// with one cvtsd2si on x86-64 (std::llround is a libm call the
  /// compiler cannot inline without -fno-math-errno).
  static int32_t quantizeValue(double X, double Scale) {
    const double Sat = static_cast<double>(SaturationQuanta);
#if defined(__x86_64__) || defined(_M_X64)
    const __m128d V = _mm_min_sd(
        _mm_max_sd(_mm_set_sd(X * Scale), _mm_set_sd(-Sat)),
        _mm_set_sd(Sat));
    return _mm_cvtsd_si32(V);
#else
    double V = X * Scale;
    V = V > -Sat ? V : -Sat;
    V = V < Sat ? V : Sat;
    return static_cast<int32_t>(std::llround(V));
#endif
  }

  /// Quantized models are built from fitted FP models, never fitted
  /// directly; \returns an error unconditionally.
  Expected<bool> fit(const Dataset &Training) override;

  double predict(const std::vector<double> &Features) const override;
  std::vector<double> predictBatch(const Dataset &Data) const override;

  /// "Q" + the reference family name ("QLR", "QNN"), so a quantized
  /// model can never masquerade as its FP reference in a table or log.
  std::string name() const override { return "Q" + Ref->name(); }

  /// The FP model this twin was built from.
  const Model &reference() const { return *Ref; }

  size_t featureWidth() const { return QuantScale.size(); }

  /// Quantizes one raw feature row into \p Out (featureWidth() values):
  /// Out[f] = round(x[f] * scale[f]), saturated at +/-2^28. Routed
  /// through stats::quantizeScaleClamp — eight-wide AVX2 under the
  /// default SIMD dispatch, two-wide SSE2 otherwise, with bit-identical
  /// results either way (the rounding rule is quantizeValue's in every
  /// variant).
  void quantizeRow(const double *Features, int32_t *Out) const {
    stats::quantizeScaleClamp(Features, QuantScale.data(), QuantScale.size(),
                              SaturationQuanta, Out);
  }

  /// Integer-only prediction over a quantized row, in output quanta: the
  /// int64 dot product plus bias. Pure given the row — no allocation, no
  /// FP — so shards may call it concurrently.
  int64_t predictQuantized(const int32_t *QRow) const;

  /// Batched predictQuantized: runs the integer kernel over \p N rows of
  /// \p Rows and writes the result quanta to Out[i]. Row i is
  /// Rows + Indices[i] * featureWidth(), or the i-th consecutive row when
  /// \p Indices is null. One call per batch instead of per row — the
  /// serving hot loop's entry point.
  void predictQuantizedMany(const int32_t *Rows, const size_t *Indices,
                            size_t N, int64_t *Out) const;

  /// Output quanta -> target units (J). The factor is 1 / output base, so
  /// integer cell accumulators can sum raw predictQuantized results and
  /// rescale once at fold time.
  double dequantize(int64_t PredQ) const {
    return static_cast<double>(PredQ) * DequantScale;
  }
  double dequantScale() const { return DequantScale; }

  /// Output quanta per target unit (the model's adaptive EM_TO_INT base;
  /// exposed for tests and the DESIGN.md scale-selection argument).
  double outputBase() const { return OutputBase; }

private:
  QuantizedModel() = default;

  std::unique_ptr<Model> Ref;

  // Feature quantization: q = round(x * QuantScale).
  std::vector<double> QuantScale;

  double OutputBase = 1;   ///< Output quanta per target unit.
  double DequantScale = 1; ///< 1 / OutputBase.

  std::vector<int64_t> WeightQ;
  int64_t BiasQ = 0;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_QUANTIZEDMODEL_H
