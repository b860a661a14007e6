//===- tests/stats/SimdKernelTest.cpp - SIMD dispatch properties ----------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property tests for the stats/SimdKernels dispatch contract:
//
//  * column-parallel kernels (gemmAccumulate, gemmATransposedAccumulate,
//    axpy, quantizeScaleClamp, adamStep, the gram tile) are bit-identical
//    to the scalar reference under every mode;
//  * K-split kernels (dot, gemmBTransposedAccumulate, sum) stay within
//    1e-12 relative error of the scalar reference under the
//    SimdMode::Avx2 opt-in;
//  * sizes that are not a multiple of the vector width exercise the
//    remainder paths, and misaligned pointers exercise the unaligned
//    loads;
//  * SimdMode::Scalar forces the reference everywhere.
//
// On hosts (or builds) without AVX2 both sides resolve to the scalar
// kernels and every comparison is trivially exact — the suite still
// pins the dispatch plumbing.
//
//===----------------------------------------------------------------------===//

#include "stats/Matrix.h"
#include "stats/SimdKernels.h"
#include "support/Rng.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

using namespace slope;
using namespace slope::stats;

namespace {

/// Restores the process-wide SIMD mode on scope exit so test order never
/// leaks one test's mode into the next.
class ModeGuard {
public:
  ModeGuard() : Saved(defaultSimdMode()) {}
  ~ModeGuard() { setDefaultSimdMode(Saved); }

private:
  SimdMode Saved;
};

std::vector<double> randomVector(size_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = R.uniform(-3.0, 3.0);
  return V;
}

double maxRelativeError(const std::vector<double> &A,
                        const std::vector<double> &B) {
  EXPECT_EQ(A.size(), B.size());
  double Max = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    double Scale = std::max({std::fabs(A[I]), std::fabs(B[I]), 1e-30});
    Max = std::max(Max, std::fabs(A[I] - B[I]) / Scale);
  }
  return Max;
}

// Sizes that cover the 4-wide and 8-wide main loops, their remainders,
// the N == 32 register-blocked gemm fast path, and tiny inputs that
// never reach a full vector.
constexpr size_t Sizes[] = {1, 2, 3, 4, 5, 7, 8, 15, 16, 21, 31, 32, 33, 97};

} // namespace

//===----------------------------------------------------------------------===//
// Column-parallel kernels: bit identity under every mode
//===----------------------------------------------------------------------===//

TEST(SimdKernelTest, GemmAccumulateBitIdentical) {
  ModeGuard Guard;
  for (size_t N : Sizes) {
    const size_t M = 9, K = 7;
    std::vector<double> A = randomVector(M * K, 100 + N);
    std::vector<double> B = randomVector(K * N, 200 + N);
    std::vector<double> Ref = randomVector(M * N, 300 + N);
    std::vector<double> Got = Ref;
    setDefaultSimdMode(SimdMode::Scalar);
    gemmAccumulate(A.data(), B.data(), Ref.data(), M, K, N);
    setDefaultSimdMode(SimdMode::Auto);
    gemmAccumulate(A.data(), B.data(), Got.data(), M, K, N);
    EXPECT_EQ(Ref, Got) << "N=" << N;
  }
}

TEST(SimdKernelTest, GemmAccumulateRegisterBlockedPathBitIdentical) {
  ModeGuard Guard;
  // N == 32 takes the register-blocked fast path in the AVX2 variant;
  // sweep K (including odd values) and M around it.
  for (size_t K : {1u, 2u, 5u, 6u, 16u}) {
    const size_t M = 16, N = 32;
    std::vector<double> A = randomVector(M * K, 400 + K);
    std::vector<double> B = randomVector(K * N, 500 + K);
    std::vector<double> Ref = randomVector(M * N, 600 + K);
    std::vector<double> Got = Ref;
    setDefaultSimdMode(SimdMode::Scalar);
    gemmAccumulate(A.data(), B.data(), Ref.data(), M, K, N);
    setDefaultSimdMode(SimdMode::Auto);
    gemmAccumulate(A.data(), B.data(), Got.data(), M, K, N);
    EXPECT_EQ(Ref, Got) << "K=" << K;
  }
}

TEST(SimdKernelTest, GemmATransposedAccumulateBitIdentical) {
  ModeGuard Guard;
  for (size_t N : Sizes) {
    const size_t M = 6, K = 5; // odd K exercises the single-K remainder
    std::vector<double> A = randomVector(K * M, 700 + N);
    std::vector<double> B = randomVector(K * N, 800 + N);
    std::vector<double> Ref = randomVector(M * N, 900 + N);
    std::vector<double> Got = Ref;
    setDefaultSimdMode(SimdMode::Scalar);
    gemmATransposedAccumulate(A.data(), B.data(), Ref.data(), M, K, N);
    setDefaultSimdMode(SimdMode::Auto);
    gemmATransposedAccumulate(A.data(), B.data(), Got.data(), M, K, N);
    EXPECT_EQ(Ref, Got) << "N=" << N;
  }
}

TEST(SimdKernelTest, AxpyBitIdenticalIncludingMisalignedTails) {
  ModeGuard Guard;
  for (size_t N : Sizes) {
    std::vector<double> X = randomVector(N + 1, 1000 + N);
    std::vector<double> Ref = randomVector(N + 1, 1100 + N);
    std::vector<double> Got = Ref;
    // Offset by one double so the pointers are 8- but not 32-byte
    // aligned: the kernels use unaligned loads, alignment is perf only.
    setDefaultSimdMode(SimdMode::Scalar);
    axpy(1.7, X.data() + 1, Ref.data() + 1, N);
    setDefaultSimdMode(SimdMode::Auto);
    axpy(1.7, X.data() + 1, Got.data() + 1, N);
    EXPECT_EQ(Ref, Got) << "N=" << N;
  }
}

TEST(SimdKernelTest, GramBitIdentical) {
  ModeGuard Guard;
  // Wide enough to cross the 64-column tile edge and hit the odd-row
  // remainder inside the AVX2 tile kernel.
  const size_t Rows = 37, Cols = 70;
  Matrix M(Rows, Cols);
  Rng R(42);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      M.at(I, J) = R.uniform(-2.0, 2.0);
  setDefaultSimdMode(SimdMode::Scalar);
  Matrix Ref = M.gram();
  setDefaultSimdMode(SimdMode::Auto);
  Matrix Got = M.gram();
  EXPECT_EQ(Ref.maxAbsDiff(Got), 0.0);
}

TEST(SimdKernelTest, QuantizeScaleClampBitIdentical) {
  ModeGuard Guard;
  for (size_t N : Sizes) {
    std::vector<double> X = randomVector(N, 1200 + N);
    std::vector<double> Scale = randomVector(N, 1300 + N);
    // A couple of values far outside the clamp range.
    X[0] = 9e9;
    if (N > 1)
      X[N - 1] = -9e9;
    std::vector<int32_t> Ref(N), Got(N);
    setDefaultSimdMode(SimdMode::Scalar);
    quantizeScaleClamp(X.data(), Scale.data(), N, 1 << 20, Ref.data());
    setDefaultSimdMode(SimdMode::Auto);
    quantizeScaleClamp(X.data(), Scale.data(), N, 1 << 20, Got.data());
    EXPECT_EQ(Ref, Got) << "N=" << N;
  }
}

TEST(SimdKernelTest, QuantizeScaleClampHostileValuesAgreeEverywhere) {
  // Every value quantizes the same at every column position, vector body
  // or tail, at widths 1..17 and in every mode: the clamp runs in the
  // double domain before rounding, so +/-Inf and anything past the bound
  // saturate with their sign and NaN maps to -Clamp.
  ModeGuard Guard;
  constexpr int32_t Clamp = 1 << 28;
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Denorm = std::numeric_limits<double>::denorm_min();
  const double C = Clamp;
  struct Case {
    double X, Scale;
    int32_t Expected;
  };
  const Case Cases[] = {
      {1.4, 1, 1},
      {-1.6, 1, -2},
      {123456.7, 1, 123457},
      {0.0, 1, 0},
      {-0.0, 1, 0},
      {Denorm, 1, 0},
      {-Denorm, 1, 0},
      {Inf, 1, Clamp},
      {-Inf, 1, -Clamp},
      {NaN, 1, -Clamp},
      {1e300, 1, Clamp},
      {-1e300, 1, -Clamp},
      {1e300, 1e300, Clamp}, // the scaled value overflows to +Inf
      {C + 1, 1, Clamp},
      {C - 1, 1, Clamp - 1},
      {-(C + 1), 1, -Clamp},
      {-(C - 1), 1, -(Clamp - 1)},
      {0x1p63, 1, Clamp},
      {-0x1p63, 1, -Clamp},
  };
  for (SimdMode Mode : {SimdMode::Scalar, SimdMode::Auto, SimdMode::Avx2}) {
    setDefaultSimdMode(Mode);
    for (const Case &K : Cases)
      for (size_t W = 1; W <= 17; ++W) {
        const std::vector<double> X(W, K.X), Scale(W, K.Scale);
        std::vector<int32_t> Out(W, 7);
        quantizeScaleClamp(X.data(), Scale.data(), W, Clamp, Out.data());
        for (size_t P = 0; P < W; ++P)
          EXPECT_EQ(Out[P], K.Expected)
              << "x=" << K.X << " scale=" << K.Scale << " width " << W
              << " column " << P << " mode " << resolvedSimdVariant();
      }
  }
}

TEST(SimdKernelTest, AdamStepBitIdentical) {
  ModeGuard Guard;
  for (size_t N : Sizes) {
    std::vector<double> W = randomVector(N, 1500 + N);
    std::vector<double> M = randomVector(N, 1600 + N);
    std::vector<double> V = randomVector(N, 1700 + N);
    for (double &X : V)
      X = std::fabs(X); // second moment is non-negative in real use
    std::vector<double> G = randomVector(N, 1800 + N);
    auto Wr = W, Mr = M, Vr = V;
    setDefaultSimdMode(SimdMode::Scalar);
    adamStep(Wr.data(), Mr.data(), Vr.data(), G.data(), N, 1e-4, 0.9, 0.999,
             0.1, 0.001, 1e-3, 1e-8);
    setDefaultSimdMode(SimdMode::Auto);
    adamStep(W.data(), M.data(), V.data(), G.data(), N, 1e-4, 0.9, 0.999, 0.1,
             0.001, 1e-3, 1e-8);
    EXPECT_EQ(Wr, W) << "N=" << N;
    EXPECT_EQ(Mr, M) << "N=" << N;
    EXPECT_EQ(Vr, V) << "N=" << N;
  }
}

//===----------------------------------------------------------------------===//
// K-split kernels: 1e-12 relative tolerance under the Avx2 opt-in
//===----------------------------------------------------------------------===//

TEST(SimdKernelTest, DotWithinTolerance) {
  ModeGuard Guard;
  for (size_t N : Sizes) {
    std::vector<double> A = randomVector(N + 1, 1900 + N);
    std::vector<double> B = randomVector(N + 1, 2000 + N);
    setDefaultSimdMode(SimdMode::Scalar);
    double Ref = dot(A.data() + 1, B.data() + 1, N); // misaligned
    setDefaultSimdMode(SimdMode::Avx2);
    double Got = dot(A.data() + 1, B.data() + 1, N);
    EXPECT_LT(maxRelativeError({Ref}, {Got}), 1e-12) << "N=" << N;
  }
}

TEST(SimdKernelTest, GemmBTransposedAccumulateWithinTolerance) {
  ModeGuard Guard;
  for (size_t N : Sizes) {
    const size_t M = 8, K = 33; // odd K exercises the scalar K tail
    std::vector<double> A = randomVector(M * K, 2100 + N);
    std::vector<double> B = randomVector(N * K, 2200 + N);
    std::vector<double> Ref = randomVector(M * N, 2300 + N);
    std::vector<double> Got = Ref;
    setDefaultSimdMode(SimdMode::Scalar);
    gemmBTransposedAccumulate(A.data(), B.data(), Ref.data(), M, K, N);
    setDefaultSimdMode(SimdMode::Avx2);
    gemmBTransposedAccumulate(A.data(), B.data(), Got.data(), M, K, N);
    EXPECT_LT(maxRelativeError(Ref, Got), 1e-12) << "N=" << N;
  }
}

TEST(SimdKernelTest, SumWithinTolerance) {
  ModeGuard Guard;
  for (size_t N : Sizes) {
    std::vector<double> X = randomVector(N, 2400 + N);
    setDefaultSimdMode(SimdMode::Scalar);
    double Ref = sum(X.data(), N);
    setDefaultSimdMode(SimdMode::Avx2);
    double Got = sum(X.data(), N);
    EXPECT_LT(maxRelativeError({Ref}, {Got}), 1e-12) << "N=" << N;
  }
}

//===----------------------------------------------------------------------===//
// Dispatch plumbing
//===----------------------------------------------------------------------===//

TEST(SimdKernelTest, ScalarModeDisablesEveryVariant) {
  ModeGuard Guard;
  setDefaultSimdMode(SimdMode::Scalar);
  EXPECT_FALSE(simdColumnKernelsActive());
  EXPECT_FALSE(simdKSplitKernelsActive());
  EXPECT_STREQ(resolvedSimdVariant(), "scalar");
}

TEST(SimdKernelTest, AutoNeverEnablesKSplitKernels) {
  ModeGuard Guard;
  setDefaultSimdMode(SimdMode::Auto);
  EXPECT_FALSE(simdKSplitKernelsActive());
  // Under Auto the K-split entry points must return the exact scalar
  // result even on an AVX2 host.
  std::vector<double> A = randomVector(97, 2800);
  std::vector<double> B = randomVector(97, 2900);
  double Got = dot(A.data(), B.data(), 97);
  setDefaultSimdMode(SimdMode::Scalar);
  double Ref = dot(A.data(), B.data(), 97);
  EXPECT_EQ(Ref, Got);
}

TEST(SimdKernelTest, ResolvedVariantMatchesActivity) {
  ModeGuard Guard;
  setDefaultSimdMode(SimdMode::Auto);
  if (simdColumnKernelsActive())
    EXPECT_STREQ(resolvedSimdVariant(), "avx2");
  else
    EXPECT_STREQ(resolvedSimdVariant(), "scalar");
}
