//===- stats/SimdKernels.cpp - SIMD mode resolution and dispatch -----------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "stats/SimdKernels.h"

#include "support/CpuFeatures.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif

using namespace slope;
using namespace slope::stats;

namespace {

/// True when the AVX2 variants were compiled at all (x86-64 toolchain
/// with -mavx2 -mfma) and the CPU/OS can run them.
bool avx2Available() {
#ifdef SLOPE_SIMD_AVX2_COMPILED
  return cpuHasAvx2();
#else
  return false;
#endif
}

SimdMode initialMode() {
  if (const char *Env = std::getenv("SLOPE_SIMD")) {
    if (std::strcmp(Env, "scalar") == 0)
      return SimdMode::Scalar;
    if (std::strcmp(Env, "avx2") == 0)
      return SimdMode::Avx2;
  }
  return SimdMode::Auto;
}

SimdMode GlobalSimdMode = SimdMode::Auto;

void resolveDispatch() {
  const bool Available = avx2Available();
  detail::ColumnKernelsAvx2Flag =
      Available && GlobalSimdMode != SimdMode::Scalar;
  detail::KSplitKernelsAvx2Flag =
      Available && GlobalSimdMode == SimdMode::Avx2;
}

// Applies the SLOPE_SIMD environment variable before main() runs,
// mirroring the other SLOPE_*_ALGO switches.
const bool EnvInitDone = [] {
  GlobalSimdMode = initialMode();
  resolveDispatch();
  return true;
}();

} // namespace

bool detail::ColumnKernelsAvx2Flag = false;
bool detail::KSplitKernelsAvx2Flag = false;

void stats::setDefaultSimdMode(SimdMode M) {
  GlobalSimdMode = M;
  resolveDispatch();
}

SimdMode stats::defaultSimdMode() { return GlobalSimdMode; }

const char *stats::resolvedSimdVariant() {
  return detail::ColumnKernelsAvx2Flag ? "avx2" : "scalar";
}

bool stats::simdColumnKernelsActive() {
  return detail::ColumnKernelsAvx2Flag;
}

bool stats::simdKSplitKernelsActive() {
  return detail::KSplitKernelsAvx2Flag;
}

void stats::quantizeScaleClamp(const double *X, const double *Scale, size_t N,
                               int64_t Clamp, int32_t *Out) {
#ifdef SLOPE_SIMD_AVX2_COMPILED
  if (detail::ColumnKernelsAvx2Flag)
    return detail::quantizeScaleClampAvx2(X, Scale, N, Clamp, Out);
#endif
  const double ClampD = static_cast<double>(Clamp);
  size_t I = 0;
#if defined(__x86_64__) || defined(_M_X64)
  // Two elements per step: scale, clamp in the double domain, then
  // cvtpd2dq (round-to-nearest-even under the default MXCSR mode).
  // Clamping before the conversion is equivalent to round-then-clamp for
  // finite inputs: the clamp bound is a power of two (exactly
  // representable), values inside the range are untouched, and values
  // outside round to a magnitude >= the bound either way. It also keeps
  // out-of-range conversions, whose result would be INT_MIN, from ever
  // happening. The odd-width tail clamps the same way, one lane wide.
  const __m128d Lo = _mm_set1_pd(-ClampD);
  const __m128d Hi = _mm_set1_pd(ClampD);
  for (; I + 2 <= N; I += 2) {
    __m128d V = _mm_mul_pd(_mm_loadu_pd(X + I), _mm_loadu_pd(Scale + I));
    V = _mm_min_pd(_mm_max_pd(V, Lo), Hi);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(Out + I),
                     _mm_cvtpd_epi32(V));
  }
  for (; I < N; ++I) {
    __m128d V = _mm_set_sd(X[I] * Scale[I]);
    V = _mm_min_sd(_mm_max_sd(V, Lo), Hi);
    Out[I] = _mm_cvtsd_si32(V);
  }
#else
  // Same clamp and operand order as the vector kernels: a NaN fails both
  // comparisons and takes the lower bound.
  for (; I < N; ++I) {
    double V = X[I] * Scale[I];
    V = V > -ClampD ? V : -ClampD;
    V = V < ClampD ? V : ClampD;
    Out[I] = static_cast<int32_t>(std::llround(V));
  }
#endif
}

double stats::sum(const double *X, size_t N) {
#ifdef SLOPE_SIMD_AVX2_COMPILED
  if (detail::KSplitKernelsAvx2Flag)
    return detail::sumAvx2(X, N);
#endif
  double Sum = 0;
  for (size_t I = 0; I < N; ++I)
    Sum += X[I];
  return Sum;
}

void stats::adamStep(double *W, double *M, double *V, const double *Grad,
                     size_t N, double L2, double Beta1, double Beta2,
                     double Corr1, double Corr2, double Lr, double Eps) {
#ifdef SLOPE_SIMD_AVX2_COMPILED
  if (detail::ColumnKernelsAvx2Flag)
    return detail::adamStepAvx2(W, M, V, Grad, N, L2, Beta1, Beta2, Corr1,
                                Corr2, Lr, Eps);
#endif
  for (size_t I = 0; I < N; ++I) {
    const double G = Grad[I] + L2 * W[I];
    M[I] = Beta1 * M[I] + (1 - Beta1) * G;
    V[I] = Beta2 * V[I] + (1 - Beta2) * G * G;
    W[I] -= Lr * (M[I] / Corr1) / (std::sqrt(V[I] / Corr2) + Eps);
  }
}
