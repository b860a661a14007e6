//===- tests/support/RngTest.cpp - Rng unit and property tests --------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace slope;

TEST(Rng, SameSeedSameStream) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Equal = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Equal;
  EXPECT_LT(Equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 10000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform(-3.5, 12.25);
    EXPECT_GE(U, -3.5);
    EXPECT_LT(U, 12.25);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng R(11);
  double Sum = 0;
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng R(13);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng R(15);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(R.below(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng R(17);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.below(1), 0u);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng R(19);
  const int N = 200000;
  double Sum = 0, SumSq = 0;
  for (int I = 0; I < N; ++I) {
    double G = R.gaussian();
    Sum += G;
    SumSq += G * G;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.02);
  EXPECT_NEAR(SumSq / N, 1.0, 0.03);
}

TEST(Rng, GaussianScaleAndShift) {
  Rng R(21);
  const int N = 100000;
  double Sum = 0;
  for (int I = 0; I < N; ++I)
    Sum += R.gaussian(10.0, 2.0);
  EXPECT_NEAR(Sum / N, 10.0, 0.05);
}

TEST(Rng, LognormalFactorIsPositiveWithMedianOne) {
  Rng R(23);
  const int N = 100001;
  std::vector<double> Draws;
  for (int I = 0; I < N; ++I) {
    double F = R.lognormalFactor(0.3);
    EXPECT_GT(F, 0.0);
    Draws.push_back(F);
  }
  std::sort(Draws.begin(), Draws.end());
  EXPECT_NEAR(Draws[N / 2], 1.0, 0.02); // Median of lognormal(0, s) is 1.
}

TEST(Rng, LognormalZeroSigmaIsIdentity) {
  Rng R(25);
  EXPECT_DOUBLE_EQ(R.lognormalFactor(0.0), 1.0);
}

TEST(Rng, ForkIsDeterministicPerTag) {
  Rng Parent(31);
  Rng A = Parent.fork(5);
  Rng B = Parent.fork(5);
  for (int I = 0; I < 20; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, ForkTagsAreIndependent) {
  Rng Parent(31);
  Rng A = Parent.fork(5);
  Rng B = Parent.fork(6);
  int Equal = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Equal;
  EXPECT_LT(Equal, 3);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng A(33), B(33);
  (void)A.fork(1);
  (void)A.fork(2);
  EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, StringForkMatchesHashTagFork) {
  Rng Parent(35);
  Rng A = Parent.fork("energy");
  Rng B = Parent.fork(hashTag("energy"));
  EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, HashTagDistinguishesStrings) {
  EXPECT_NE(hashTag("bases"), hashTag("pairs"));
  EXPECT_NE(hashTag(""), hashTag("a"));
}

// Property sweep: stream quality across many seeds — no short cycles and
// balanced bits in a small window.
class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, NoImmediateCycleAndBitBalance) {
  Rng R(GetParam());
  std::set<uint64_t> Window;
  int Ones = 0;
  for (int I = 0; I < 512; ++I) {
    uint64_t V = R.next();
    EXPECT_TRUE(Window.insert(V).second) << "repeated draw within 512";
    Ones += __builtin_popcountll(V);
  }
  double Fraction = Ones / (512.0 * 64.0);
  EXPECT_NEAR(Fraction, 0.5, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 2ull, 42ull,
                                           0xDEADBEEFull, 0xFFFFFFFFFFFFFFFFull,
                                           2019ull, 0x5C7Bull));

TEST(Rng, BelowMatchesTheRejectionLoopItReplaced) {
  // The rejection loop below() had before its draw >= N fast path:
  // threshold first, then draws until one reaches it.
  auto Reference = [](Rng &R, uint64_t N) {
    uint64_t Threshold = (0ULL - N) % N;
    for (;;) {
      uint64_t Draw = R.next();
      if (Draw >= Threshold)
        return Draw % N;
    }
  };
  const uint64_t Ns[] = {1,
                         2,
                         3,
                         7,
                         (uint64_t{1} << 32) + 1,
                         uint64_t{1} << 63,
                         (uint64_t{1} << 63) + 1,
                         UINT64_MAX};
  for (uint64_t Seed = 0; Seed < 200; ++Seed)
    for (uint64_t N : Ns) {
      Rng Fast(Seed), Slow(Seed);
      for (int I = 0; I < 64; ++I)
        ASSERT_EQ(Fast.below(N), Reference(Slow, N))
            << "seed " << Seed << " N " << N << " draw " << I;
      // Same stream position: both consumed the same rejected draws.
      ASSERT_EQ(Fast.next(), Slow.next()) << "seed " << Seed << " N " << N;
    }
}
