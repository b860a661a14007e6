//===- tests/ml/AllocCounting.cpp - Armed operator-new counter -----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "AllocCounting.h"

#include <atomic>
#include <cstdlib>
#include <new>

static std::atomic<bool> AllocCountingArmed{false};
static std::atomic<size_t> ArmedAllocationCount{0};

void slope::test::allocCountingArm() {
  ArmedAllocationCount.store(0, std::memory_order_relaxed);
  AllocCountingArmed.store(true, std::memory_order_relaxed);
}

void slope::test::allocCountingDisarm() {
  AllocCountingArmed.store(false, std::memory_order_relaxed);
}

size_t slope::test::armedAllocationCount() {
  return ArmedAllocationCount.load(std::memory_order_relaxed);
}

// GCC does not model user replacement of the global allocation functions
// and flags the malloc/free pairing inside them as mismatched new/delete;
// replacement is exactly what makes the pairing correct here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// Every form that shares the plain deletes is replaced, the nothrow ones
// included: std::stable_sort takes its temporary buffer from nothrow new,
// and a runtime's own nothrow new (a sanitizer's, say) would hand out
// memory the replaced deletes then free() — a mismatched pair.
static void *countedMalloc(std::size_t Size) noexcept {
  if (AllocCountingArmed.load(std::memory_order_relaxed))
    ArmedAllocationCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *operator new(std::size_t Size) {
  if (void *P = countedMalloc(Size))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) { return ::operator new(Size); }

void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedMalloc(Size);
}

void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedMalloc(Size);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
