//===- stats/SimdKernels.h - AVX2 kernel variants and dispatch --*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explicitly vectorized (AVX2) variants of the numeric hot kernels,
/// behind runtime CPU dispatch: the scalar kernels stay the selectable
/// reference, --simd / SLOPE_SIMD picks the variant. The switch stays
/// because the K-split variants below are not bit-identical to it, and
/// non-AVX2 hosts run the scalar kernels.
///
/// The kernels split into two classes with different contracts:
///
///  * **Column-parallel** kernels (gemmAccumulate,
///    gemmATransposedAccumulate, axpy, quantizeScaleClamp): the vector
///    lanes hold *independent output elements*, so each element's own
///    chain of FP operations — and therefore its result — is bit-for-bit
///    the scalar kernel's. These may be (and by default are) enabled
///    whenever the CPU supports AVX2: SimdMode::Auto. They deliberately
///    use separate multiply+add, never FMA — the scalar reference is
///    compiled for baseline x86-64, which has no FMA instruction, and a
///    fused multiply-add rounds once where multiply+add rounds twice.
///
///  * **K-split** kernels (dot, gemmBTransposedAccumulate, sum): one
///    output element's contraction is spread across 4 lane accumulators
///    combined at the end, which reassociates the FP sum. Results differ
///    from the scalar reference in the last bits (property-tested
///    relative error < 1e-12), so these run only under the explicit
///    SimdMode::Avx2 opt-in and are gated in CI by a
///    microbench speedup + tolerance check, mirroring --infer-algo's
///    accuracy-for-speed contract. K-split kernels may use FMA.
///
/// Dispatch resolves once per setSimdMode() call from (requested mode,
/// compile-time -mavx2 support, runtime cpuid) — see CpuFeatures.h — so
/// the per-call cost is one predictable branch on a cached flag.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_STATS_SIMDKERNELS_H
#define SLOPE_STATS_SIMDKERNELS_H

#include <cstddef>
#include <cstdint>

namespace slope {
namespace stats {

/// Kernel-variant selection for the SIMD dispatch (--simd / SLOPE_SIMD).
enum class SimdMode {
  Auto,   ///< Column-parallel AVX2 when the CPU has it; K-split scalar.
  Avx2,   ///< All AVX2 variants, including the reassociating K-split
          ///< kernels (falls back to scalar where AVX2 is unavailable).
  Scalar, ///< Force every kernel to the scalar bit-identity reference.
};

/// Overrides the process-wide SIMD mode and re-resolves the dispatch
/// flags. The initial value honours the SLOPE_SIMD environment variable
/// ("auto", "avx2", "scalar"); benches expose it as --simd. Not
/// thread-safe against concurrent kernel calls (set it at startup or
/// between phases, like the --infer-algo switch).
void setDefaultSimdMode(SimdMode M);

/// \returns the process-wide requested SIMD mode (never resolves Auto).
SimdMode defaultSimdMode();

/// \returns the variant the column-parallel kernels actually run with
/// under the current mode on this CPU: "avx2" or "scalar". Bench JSON
/// reports this resolved value, not the request.
const char *resolvedSimdVariant();

/// \returns true when the column-parallel (bit-identical) AVX2 kernels
/// are active: mode Auto or Avx2, AVX2 compiled in, CPU support.
bool simdColumnKernelsActive();

/// \returns true when the reassociating K-split AVX2 kernels are active:
/// mode Avx2 only, AVX2 compiled in, CPU support.
bool simdKSplitKernelsActive();

//===----------------------------------------------------------------------===//
// Dispatched kernels that do not live in Matrix.h
//
// (The GEMM / dot / axpy entry points keep their historical home in
// stats/Matrix.h; their implementations dispatch through this TU.)
//===----------------------------------------------------------------------===//

/// Out[i] = round(X[i] * Scale[i]) clamped to +/-Clamp, with
/// round-to-nearest-even (cvtpd2dq semantics; the scalar fallback uses
/// the identical single-value conversion). The clamp runs in the double
/// domain before rounding, max then min: +/-Inf and values beyond the
/// bound saturate to +/-Clamp with their sign, and NaN maps to -Clamp.
/// Every element goes through the same rule, vector body or tail, so a
/// value quantizes alike at every column position and in every SIMD
/// mode. Column-parallel: the AVX2 variant is eight-wide but
/// element-wise, so results are bit-identical to the scalar reference.
/// ml::QuantizedModel::quantizeRow routes here.
void quantizeScaleClamp(const double *X, const double *Scale, size_t N,
                        int64_t Clamp, int32_t *Out);

/// \returns sum_i X[i]. K-split: the scalar reference is one serial
/// ascending chain (the neural-network bias-gradient reduction order);
/// the AVX2 variant splits it across 4 lane accumulators, so it runs
/// only under SimdMode::Avx2.
double sum(const double *X, size_t N);

/// One Adam optimizer step over \p N parameters, exactly the textbook
/// update the neural network always applied:
///   G    = Grad[i] + L2 * W[i]
///   M[i] = Beta1 * M[i] + (1 - Beta1) * G
///   V[i] = Beta2 * V[i] + (1 - Beta2) * G * G
///   W[i] -= Lr * (M[i] / Corr1) / (sqrt(V[i] / Corr2) + Eps)
/// Column-parallel: element-wise, and IEEE requires division and square
/// root to be correctly rounded per lane, so the AVX2 variant (active by
/// default) is bit-identical to the scalar reference.
void adamStep(double *W, double *M, double *V, const double *Grad, size_t N,
              double L2, double Beta1, double Beta2, double Corr1,
              double Corr2, double Lr, double Eps);

namespace detail {

// Resolved dispatch flags, recomputed by setDefaultSimdMode() from
// (requested mode, compile support, cpuid). Read-only everywhere else;
// exposed as globals so the header-inline dot/axpy dispatchers in
// Matrix.h cost one load and a predictable branch per call.
extern bool ColumnKernelsAvx2Flag;
extern bool KSplitKernelsAvx2Flag;

//===----------------------------------------------------------------------===//
// AVX2 kernel variants (defined in SimdKernelsAvx2.cpp, which is compiled
// with -mavx2 -mfma -ffp-contract=off when the toolchain supports it;
// never call these directly — they execute AVX2 instructions
// unconditionally. The dispatchers guard them behind cpuHasAvx2().)
//===----------------------------------------------------------------------===//

#ifdef SLOPE_SIMD_AVX2_COMPILED
void gemmAccumulateAvx2(const double *A, const double *B, double *C,
                        size_t M, size_t K, size_t N);
void gemmATransposedAccumulateAvx2(const double *A, const double *B,
                                   double *C, size_t M, size_t K, size_t N);
void gemmBTransposedAccumulateAvx2(const double *A, const double *B,
                                   double *C, size_t M, size_t K, size_t N);
double dotAvx2(const double *A, const double *B, size_t N);
void axpyAvx2(double Alpha, const double *X, double *Y, size_t N);
void quantizeScaleClampAvx2(const double *X, const double *Scale, size_t N,
                            int64_t Clamp, int32_t *Out);
double sumAvx2(const double *X, size_t N);
void adamStepAvx2(double *W, double *M, double *V, const double *Grad,
                  size_t N, double L2, double Beta1, double Beta2,
                  double Corr1, double Corr2, double Lr, double Eps);
/// Accumulates rows [0, NumRows) of \p Data (row stride \p Stride) into
/// the upper-triangle Gram tile G[I][J] += Data[R][I] * Data[R][J] for
/// I in [I0, IEnd), J in [max(I, J0), JEnd); G shares the row stride.
/// Row pairs fuse into one read-modify-write of G — same ascending
/// per-element accumulation, bit-identical to Matrix::gram's scalar
/// loop. Lives here (not behind a public dispatcher) because only
/// Matrix::gram has the triangle-tile shape to call it with.
void gramUpperTileAvx2(const double *Data, size_t NumRows, size_t Stride,
                       size_t I0, size_t IEnd, size_t J0, size_t JEnd,
                       double *G);
#endif

//===----------------------------------------------------------------------===//
// Scalar reference kernels (defined in stats/Matrix.cpp with the same
// -O3 treatment they always had; the public entry points dispatch
// between these and the AVX2 variants).
//===----------------------------------------------------------------------===//

void gemmAccumulateScalar(const double *A, const double *B, double *C,
                          size_t M, size_t K, size_t N);
void gemmATransposedAccumulateScalar(const double *A, const double *B,
                                     double *C, size_t M, size_t K,
                                     size_t N);
void gemmBTransposedAccumulateScalar(const double *A, const double *B,
                                     double *C, size_t M, size_t K,
                                     size_t N);
double dotScalar(const double *A, const double *B, size_t N);
void axpyScalar(double Alpha, const double *X, double *Y, size_t N);

} // namespace detail
} // namespace stats
} // namespace slope

#endif // SLOPE_STATS_SIMDKERNELS_H
