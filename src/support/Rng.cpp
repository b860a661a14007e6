//===- support/Rng.cpp - Deterministic random number generation ----------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"

#include <cassert>
#include <cmath>

using namespace slope;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9E3779B97F4A7C15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) {
  return (X << K) | (X >> (64 - K));
}

Rng::Rng(uint64_t Seed) : Seed(Seed) {
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitMix64(S);
}

uint64_t Rng::next() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double Lo, double Hi) {
  assert(Lo <= Hi && "empty uniform range");
  return Lo + (Hi - Lo) * uniform();
}

uint64_t Rng::below(uint64_t N) {
  assert(N > 0 && "below(0) is meaningless");
  // Rejection sampling to avoid modulo bias: draws below (2^64 - N) % N
  // are rejected. That threshold is below N, so a draw >= N is accepted
  // without computing it (one 64-bit division fewer on almost every call).
  uint64_t Draw = next();
  if (Draw >= N)
    return Draw % N;
  uint64_t Threshold = (0ULL - N) % N;
  while (Draw < Threshold)
    Draw = next();
  return Draw % N;
}

double Rng::gaussian() {
  // Box-Muller; always consumes exactly two uniforms.
  double U1 = uniform();
  double U2 = uniform();
  if (U1 < 1e-300)
    U1 = 1e-300;
  return std::sqrt(-2.0 * std::log(U1)) * std::cos(6.283185307179586 * U2);
}

double Rng::gaussian(double Mean, double Sigma) {
  assert(Sigma >= 0 && "negative standard deviation");
  return Mean + Sigma * gaussian();
}

double Rng::lognormalFactor(double Sigma) {
  assert(Sigma >= 0 && "negative lognormal sigma");
  return std::exp(Sigma * gaussian());
}

Rng Rng::fork(uint64_t Tag) const {
  // Mix the parent seed with the tag through SplitMix64 twice so nearby
  // tags do not yield correlated child seeds.
  uint64_t S = Seed ^ (Tag * 0xD1B54A32D192ED03ULL);
  uint64_t Child = splitMix64(S);
  Child ^= splitMix64(S);
  return Rng(Child);
}

Rng Rng::fork(std::string_view Tag) const { return fork(hashTag(Tag)); }

uint64_t slope::hashTag(std::string_view Tag) {
  uint64_t Hash = 0xCBF29CE484222325ULL;
  for (char C : Tag) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 0x100000001B3ULL;
  }
  return Hash;
}
