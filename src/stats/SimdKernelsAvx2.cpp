//===- stats/SimdKernelsAvx2.cpp - AVX2 kernel variants --------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Compiled with -mavx2 -mfma -O3 -ffp-contract=off (see
// stats/CMakeLists.txt); empty on toolchains without AVX2 support. Never
// call these functions without checking cpuHasAvx2() — the dispatchers in
// SimdKernels.cpp / Matrix.cpp do.
//
// Contract recap (see SimdKernels.h):
//  * Column-parallel kernels put independent output elements in the
//    lanes and use separate multiply+add, never FMA, so every element
//    reproduces the scalar reference bit for bit. -ffp-contract=off is
//    load-bearing: with contraction enabled the compiler may legally
//    fuse a _mm256_add_pd(_mm256_mul_pd(a, b), c) pair into one
//    vfmadd — which rounds once where the scalar reference (compiled
//    for baseline x86-64, no FMA) rounds twice.
//  * K-split kernels spread one contraction across 4 lane accumulators
//    (reassociating the sum) and may use FMA; they are opt-in.
//
// All loads and stores are unaligned-tolerant (loadu/storeu): alignment
// (support/AlignedBuffer.h) is a performance property here, never a
// correctness requirement, so kernels accept arbitrary caller tails.
//
//===----------------------------------------------------------------------===//

#include "stats/SimdKernels.h"

#ifdef SLOPE_SIMD_AVX2_COMPILED

#include <algorithm>
#include <cmath>
#include <immintrin.h>

using namespace slope;
using namespace slope::stats;

namespace {

// Block edge in doubles; matches the scalar kernels in Matrix.cpp so the
// column-parallel variants traverse (and accumulate) in the same order.
constexpr size_t BlockEdge = 64;

/// Reduces the 4 lanes as (l0 + l2) + (l1 + l3) — a fixed pairwise
/// order, part of each K-split kernel's (tolerance-tested) contract.
inline double hsum4(__m256d V) {
  __m128d Pair = _mm_add_pd(_mm256_castpd256_pd128(V),
                            _mm256_extractf128_pd(V, 1));
  return _mm_cvtsd_f64(Pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(Pair, Pair));
}

} // namespace

void detail::gemmAccumulateAvx2(const double *A, const double *B, double *C,
                                size_t M, size_t K, size_t N) {
  // Fast path for N == 32 — the neural-network minibatch width, where
  // this kernel spends its training life: the whole C row lives in 8
  // vector registers across the full K sweep, so C is read and written
  // once per row instead of once per K pair. Each element still adds
  // its K terms one by one in ascending order — bit-identical.
  if (N == 32) {
    for (size_t R = 0; R < M; ++R) {
      const double *ARow = A + R * K;
      double *CRow = C + R * N;
      __m256d Acc0 = _mm256_loadu_pd(CRow + 0);
      __m256d Acc1 = _mm256_loadu_pd(CRow + 4);
      __m256d Acc2 = _mm256_loadu_pd(CRow + 8);
      __m256d Acc3 = _mm256_loadu_pd(CRow + 12);
      __m256d Acc4 = _mm256_loadu_pd(CRow + 16);
      __m256d Acc5 = _mm256_loadu_pd(CRow + 20);
      __m256d Acc6 = _mm256_loadu_pd(CRow + 24);
      __m256d Acc7 = _mm256_loadu_pd(CRow + 28);
      for (size_t Kk = 0; Kk < K; ++Kk) {
        const __m256d Vv = _mm256_set1_pd(ARow[Kk]);
        const double *BRow = B + Kk * N;
        Acc0 = _mm256_add_pd(Acc0, _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + 0)));
        Acc1 = _mm256_add_pd(Acc1, _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + 4)));
        Acc2 = _mm256_add_pd(Acc2, _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + 8)));
        Acc3 = _mm256_add_pd(Acc3, _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + 12)));
        Acc4 = _mm256_add_pd(Acc4, _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + 16)));
        Acc5 = _mm256_add_pd(Acc5, _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + 20)));
        Acc6 = _mm256_add_pd(Acc6, _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + 24)));
        Acc7 = _mm256_add_pd(Acc7, _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + 28)));
      }
      _mm256_storeu_pd(CRow + 0, Acc0);
      _mm256_storeu_pd(CRow + 4, Acc1);
      _mm256_storeu_pd(CRow + 8, Acc2);
      _mm256_storeu_pd(CRow + 12, Acc3);
      _mm256_storeu_pd(CRow + 16, Acc4);
      _mm256_storeu_pd(CRow + 20, Acc5);
      _mm256_storeu_pd(CRow + 24, Acc6);
      _mm256_storeu_pd(CRow + 28, Acc7);
    }
    return;
  }
  // Same tile order as the scalar kernel ((R, K, C) with fused K pairs);
  // the inner column sweep runs 4 output elements per vector. Each
  // element still computes (C + V0*B0) + V1*B1 with two roundings, so
  // the result is bit-identical to the scalar reference.
  for (size_t R0 = 0; R0 < M; R0 += BlockEdge) {
    size_t REnd = std::min(R0 + BlockEdge, M);
    for (size_t K0 = 0; K0 < K; K0 += BlockEdge) {
      size_t KEnd = std::min(K0 + BlockEdge, K);
      for (size_t C0 = 0; C0 < N; C0 += BlockEdge) {
        size_t CEnd = std::min(C0 + BlockEdge, N);
        for (size_t R = R0; R < REnd; ++R) {
          const double *ARow = A + R * K;
          double *CRow = C + R * N;
          size_t Kk = K0;
          for (; Kk + 2 <= KEnd; Kk += 2) {
            const double V0 = ARow[Kk], V1 = ARow[Kk + 1];
            const __m256d V0v = _mm256_set1_pd(V0);
            const __m256d V1v = _mm256_set1_pd(V1);
            const double *B0 = B + Kk * N;
            const double *B1 = B0 + N;
            size_t Cc = C0;
            for (; Cc + 4 <= CEnd; Cc += 4) {
              __m256d Acc = _mm256_loadu_pd(CRow + Cc);
              Acc = _mm256_add_pd(Acc,
                                  _mm256_mul_pd(V0v, _mm256_loadu_pd(B0 + Cc)));
              Acc = _mm256_add_pd(Acc,
                                  _mm256_mul_pd(V1v, _mm256_loadu_pd(B1 + Cc)));
              _mm256_storeu_pd(CRow + Cc, Acc);
            }
            for (; Cc < CEnd; ++Cc)
              CRow[Cc] = (CRow[Cc] + V0 * B0[Cc]) + V1 * B1[Cc];
          }
          for (; Kk < KEnd; ++Kk) {
            const double V = ARow[Kk];
            const __m256d Vv = _mm256_set1_pd(V);
            const double *BRow = B + Kk * N;
            size_t Cc = C0;
            for (; Cc + 4 <= CEnd; Cc += 4) {
              __m256d Acc = _mm256_loadu_pd(CRow + Cc);
              Acc = _mm256_add_pd(Acc,
                                  _mm256_mul_pd(Vv, _mm256_loadu_pd(BRow + Cc)));
              _mm256_storeu_pd(CRow + Cc, Acc);
            }
            for (; Cc < CEnd; ++Cc)
              CRow[Cc] += V * BRow[Cc];
          }
        }
      }
    }
  }
}

void detail::gemmATransposedAccumulateAvx2(const double *A, const double *B,
                                           double *C, size_t M, size_t K,
                                           size_t N) {
  // K rank-1 updates in ascending K order with fused K pairs, exactly
  // like the scalar kernel; the inner sweep over N output columns runs 4
  // elements per vector (column-parallel, bit-identical).
  size_t Kk = 0;
  for (; Kk + 2 <= K; Kk += 2) {
    const double *A0 = A + Kk * M;
    const double *A1 = A0 + M;
    const double *B0 = B + Kk * N;
    const double *B1 = B0 + N;
    for (size_t Mm = 0; Mm < M; ++Mm) {
      const double V0 = A0[Mm], V1 = A1[Mm];
      const __m256d V0v = _mm256_set1_pd(V0);
      const __m256d V1v = _mm256_set1_pd(V1);
      double *CRow = C + Mm * N;
      size_t I = 0;
      for (; I + 4 <= N; I += 4) {
        __m256d Acc = _mm256_loadu_pd(CRow + I);
        Acc = _mm256_add_pd(Acc, _mm256_mul_pd(V0v, _mm256_loadu_pd(B0 + I)));
        Acc = _mm256_add_pd(Acc, _mm256_mul_pd(V1v, _mm256_loadu_pd(B1 + I)));
        _mm256_storeu_pd(CRow + I, Acc);
      }
      for (; I < N; ++I)
        CRow[I] = (CRow[I] + V0 * B0[I]) + V1 * B1[I];
    }
  }
  for (; Kk < K; ++Kk) {
    const double *ARow = A + Kk * M;
    const double *BRow = B + Kk * N;
    for (size_t Mm = 0; Mm < M; ++Mm)
      detail::axpyAvx2(ARow[Mm], BRow, C + Mm * N, N);
  }
}

void detail::gemmBTransposedAccumulateAvx2(const double *A, const double *B,
                                           double *C, size_t M, size_t K,
                                           size_t N) {
  // K-split kernel: four output columns in flight (like the scalar
  // kernel's four chains), but each column's dot over K runs in a 4-lane
  // vector accumulator with FMA — both operands stream K-contiguous
  // rows, so the loads are plain vectors, no gathers. The lane split and
  // the fused rounding reassociate each sum; opt-in via SimdMode::Avx2.
  for (size_t R0 = 0; R0 < M; R0 += BlockEdge) {
    size_t REnd = std::min(R0 + BlockEdge, M);
    for (size_t C0 = 0; C0 < N; C0 += BlockEdge) {
      size_t CEnd = std::min(C0 + BlockEdge, N);
      for (size_t R = R0; R < REnd; ++R) {
        const double *ARow = A + R * K;
        double *CRow = C + R * N;
        size_t Cc = C0;
        for (; Cc + 4 <= CEnd; Cc += 4) {
          const double *B0 = B + Cc * K;
          const double *B1 = B0 + K;
          const double *B2 = B1 + K;
          const double *B3 = B2 + K;
          __m256d S0 = _mm256_setzero_pd();
          __m256d S1 = _mm256_setzero_pd();
          __m256d S2 = _mm256_setzero_pd();
          __m256d S3 = _mm256_setzero_pd();
          size_t Kk = 0;
          for (; Kk + 4 <= K; Kk += 4) {
            const __m256d Av = _mm256_loadu_pd(ARow + Kk);
            S0 = _mm256_fmadd_pd(Av, _mm256_loadu_pd(B0 + Kk), S0);
            S1 = _mm256_fmadd_pd(Av, _mm256_loadu_pd(B1 + Kk), S1);
            S2 = _mm256_fmadd_pd(Av, _mm256_loadu_pd(B2 + Kk), S2);
            S3 = _mm256_fmadd_pd(Av, _mm256_loadu_pd(B3 + Kk), S3);
          }
          double D0 = CRow[Cc] + hsum4(S0);
          double D1 = CRow[Cc + 1] + hsum4(S1);
          double D2 = CRow[Cc + 2] + hsum4(S2);
          double D3 = CRow[Cc + 3] + hsum4(S3);
          for (; Kk < K; ++Kk) {
            const double V = ARow[Kk];
            D0 += V * B0[Kk];
            D1 += V * B1[Kk];
            D2 += V * B2[Kk];
            D3 += V * B3[Kk];
          }
          CRow[Cc] = D0;
          CRow[Cc + 1] = D1;
          CRow[Cc + 2] = D2;
          CRow[Cc + 3] = D3;
        }
        for (; Cc < CEnd; ++Cc)
          CRow[Cc] = CRow[Cc] + detail::dotAvx2(ARow, B + Cc * K, K);
      }
    }
  }
}

double detail::dotAvx2(const double *A, const double *B, size_t N) {
  // 4-lane K-split accumulator with FMA; remainder terms append to the
  // reduced sum in ascending order. Reassociates — opt-in only.
  __m256d Acc = _mm256_setzero_pd();
  size_t I = 0;
  for (; I + 4 <= N; I += 4)
    Acc = _mm256_fmadd_pd(_mm256_loadu_pd(A + I), _mm256_loadu_pd(B + I), Acc);
  double Sum = hsum4(Acc);
  for (; I < N; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

void detail::axpyAvx2(double Alpha, const double *X, double *Y, size_t N) {
  // Column-parallel (element-wise): bit-identical to the scalar loop.
  const __m256d Av = _mm256_set1_pd(Alpha);
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256d Acc = _mm256_loadu_pd(Y + I);
    Acc = _mm256_add_pd(Acc, _mm256_mul_pd(Av, _mm256_loadu_pd(X + I)));
    _mm256_storeu_pd(Y + I, Acc);
  }
  for (; I < N; ++I)
    Y[I] += Alpha * X[I];
}

void detail::quantizeScaleClampAvx2(const double *X, const double *Scale,
                                    size_t N, int64_t Clamp, int32_t *Out) {
  // Eight features per step (two 256-bit halves), element-wise with the
  // same operation order, clamp operand order, and cvtpd2dq rounding as
  // the two-wide SSE2 fallback — bit-identical output.
  const double ClampD = static_cast<double>(Clamp);
  const __m256d Lo = _mm256_set1_pd(-ClampD);
  const __m256d Hi = _mm256_set1_pd(ClampD);
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256d V0 =
        _mm256_mul_pd(_mm256_loadu_pd(X + I), _mm256_loadu_pd(Scale + I));
    __m256d V1 = _mm256_mul_pd(_mm256_loadu_pd(X + I + 4),
                               _mm256_loadu_pd(Scale + I + 4));
    V0 = _mm256_min_pd(_mm256_max_pd(V0, Lo), Hi);
    V1 = _mm256_min_pd(_mm256_max_pd(V1, Lo), Hi);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Out + I),
                     _mm256_cvtpd_epi32(V0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Out + I + 4),
                     _mm256_cvtpd_epi32(V1));
  }
  for (; I + 4 <= N; I += 4) {
    __m256d V =
        _mm256_mul_pd(_mm256_loadu_pd(X + I), _mm256_loadu_pd(Scale + I));
    V = _mm256_min_pd(_mm256_max_pd(V, Lo), Hi);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Out + I),
                     _mm256_cvtpd_epi32(V));
  }
  // The tail clamps in the double domain too, with the same operand
  // order, so a value quantizes alike at every column position.
  for (; I < N; ++I) {
    __m128d V = _mm_set_sd(X[I] * Scale[I]);
    V = _mm_min_sd(_mm_max_sd(V, _mm256_castpd256_pd128(Lo)),
                   _mm256_castpd256_pd128(Hi));
    Out[I] = _mm_cvtsd_si32(V);
  }
}

double detail::sumAvx2(const double *X, size_t N) {
  // 4-lane K-split plain sum; remainder terms append to the reduced sum
  // in ascending order. Reassociates — opt-in only.
  __m256d Acc = _mm256_setzero_pd();
  size_t I = 0;
  for (; I + 4 <= N; I += 4)
    Acc = _mm256_add_pd(Acc, _mm256_loadu_pd(X + I));
  double Sum = hsum4(Acc);
  for (; I < N; ++I)
    Sum += X[I];
  return Sum;
}

void detail::adamStepAvx2(double *W, double *M, double *V, const double *Grad,
                          size_t N, double L2, double Beta1, double Beta2,
                          double Corr1, double Corr2, double Lr, double Eps) {
  // Column-parallel (element-wise). Division and square root are
  // correctly rounded per IEEE in every lane, and the mul/add pairs stay
  // unfused (-ffp-contract=off), so each parameter's update is
  // bit-identical to the scalar reference in SimdKernels.cpp.
  const __m256d B1 = _mm256_set1_pd(Beta1);
  const __m256d OneMinusB1 = _mm256_set1_pd(1 - Beta1);
  const __m256d B2 = _mm256_set1_pd(Beta2);
  const __m256d OneMinusB2 = _mm256_set1_pd(1 - Beta2);
  const __m256d L2v = _mm256_set1_pd(L2);
  const __m256d C1v = _mm256_set1_pd(Corr1);
  const __m256d C2v = _mm256_set1_pd(Corr2);
  const __m256d Lrv = _mm256_set1_pd(Lr);
  const __m256d Epsv = _mm256_set1_pd(Eps);
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    const __m256d Wv = _mm256_loadu_pd(W + I);
    const __m256d G =
        _mm256_add_pd(_mm256_loadu_pd(Grad + I), _mm256_mul_pd(L2v, Wv));
    const __m256d Mv =
        _mm256_add_pd(_mm256_mul_pd(B1, _mm256_loadu_pd(M + I)),
                      _mm256_mul_pd(OneMinusB1, G));
    const __m256d Vv =
        _mm256_add_pd(_mm256_mul_pd(B2, _mm256_loadu_pd(V + I)),
                      _mm256_mul_pd(_mm256_mul_pd(OneMinusB2, G), G));
    _mm256_storeu_pd(M + I, Mv);
    _mm256_storeu_pd(V + I, Vv);
    const __m256d Step = _mm256_div_pd(
        _mm256_mul_pd(Lrv, _mm256_div_pd(Mv, C1v)),
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(Vv, C2v)), Epsv));
    _mm256_storeu_pd(W + I, _mm256_sub_pd(Wv, Step));
  }
  for (; I < N; ++I) {
    const double G = Grad[I] + L2 * W[I];
    M[I] = Beta1 * M[I] + (1 - Beta1) * G;
    V[I] = Beta2 * V[I] + (1 - Beta2) * G * G;
    W[I] -= Lr * (M[I] / Corr1) / (std::sqrt(V[I] / Corr2) + Eps);
  }
}

void detail::gramUpperTileAvx2(const double *Data, size_t NumRows,
                               size_t Stride, size_t I0, size_t IEnd,
                               size_t J0, size_t JEnd, double *G) {
  // Rows ascending with pairs fused into one read-modify-write of G —
  // (G + t_r) + t_r1 associates exactly like two separate row updates —
  // so every element accumulates its rows in the scalar loop's order.
  // Column-parallel within a row pair: bit-identical.
  size_t R = 0;
  for (; R + 2 <= NumRows; R += 2) {
    const double *Row0 = Data + R * Stride;
    const double *Row1 = Row0 + Stride;
    for (size_t I = I0; I < IEnd; ++I) {
      const double V0 = Row0[I], V1 = Row1[I];
      const __m256d V0v = _mm256_set1_pd(V0);
      const __m256d V1v = _mm256_set1_pd(V1);
      double *GRow = G + I * Stride;
      size_t J = std::max(I, J0);
      for (; J + 4 <= JEnd; J += 4) {
        __m256d Acc = _mm256_loadu_pd(GRow + J);
        Acc = _mm256_add_pd(Acc, _mm256_mul_pd(V0v, _mm256_loadu_pd(Row0 + J)));
        Acc = _mm256_add_pd(Acc, _mm256_mul_pd(V1v, _mm256_loadu_pd(Row1 + J)));
        _mm256_storeu_pd(GRow + J, Acc);
      }
      for (; J < JEnd; ++J)
        GRow[J] = (GRow[J] + V0 * Row0[J]) + V1 * Row1[J];
    }
  }
  for (; R < NumRows; ++R) {
    const double *Row = Data + R * Stride;
    for (size_t I = I0; I < IEnd; ++I) {
      double *GRow = G + I * Stride;
      size_t J = std::max(I, J0);
      detail::axpyAvx2(Row[I], Row + J, GRow + J, JEnd - J);
    }
  }
}

#endif // SLOPE_SIMD_AVX2_COMPILED
