// Allocation-count regression test for the steady-state scheduling path.
//
// The whole point of core::Scratch + Arena is that a warmed FlbScheduler
// performs ZERO heap allocations per run_into() call (clique platform, any
// graph no larger than the largest one already seen). This test pins that
// by overriding global operator new/delete with a counting shim and
// asserting a zero delta across repeated runs.
//
// Kept in its own binary: the override is process-global, and mixing it
// into a suite that also measures timing or threads would be noisy.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "flb/core/flb.hpp"
#include "flb/sched/schedule.hpp"
#include "flb/workloads/workloads.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

std::uint64_t alloc_count() {
  return g_news.load(std::memory_order_relaxed);
}

}  // namespace

// --- counting global allocator --------------------------------------------

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align) < sizeof(void*)
                             ? sizeof(void*)
                             : static_cast<std::size_t>(align),
                     size ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------

namespace flb {
namespace {

TEST(AllocRegressionTest, SteadyStateRunIntoAllocatesNothing) {
  WorkloadParams params;
  params.seed = 7;
  TaskGraph g = make_workload("LU", 300, params);

  FlbScheduler flb;
  Schedule buffer(1, 0);
  // Warm-up: the first run grows the arena, the heap-forest pool and the
  // schedule buffer's timelines to this graph's high-water sizes.
  flb.run_into(g, 8, buffer);
  flb.run_into(g, 8, buffer);
  const std::uint64_t digest = schedule_digest(buffer);

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 5; ++i) flb.run_into(g, 8, buffer);
  const std::uint64_t delta = alloc_count() - before;
  EXPECT_EQ(delta, 0u)
      << "steady-state run_into performed " << delta << " heap allocations";
  EXPECT_EQ(schedule_digest(buffer), digest);
}

TEST(AllocRegressionTest, SmallerGraphAfterWarmupAllocatesNothing) {
  WorkloadParams big_params;
  big_params.seed = 7;
  TaskGraph big = make_workload("LU", 300, big_params);
  WorkloadParams small_params;
  small_params.seed = 9;
  TaskGraph small = make_workload("Stencil", 100, small_params);

  FlbScheduler flb;
  Schedule buffer(1, 0);
  flb.run_into(big, 8, buffer);   // high-water warm-up
  flb.run_into(small, 4, buffer); // warm the smaller shape once too

  const std::uint64_t before = alloc_count();
  flb.run_into(small, 4, buffer);
  flb.run_into(small, 4, buffer);
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(AllocRegressionTest, CounterActuallyCounts) {
  // Sanity-check the shim itself so a silently-unlinked override can't
  // turn the tests above into tautologies.
  const std::uint64_t before = alloc_count();
  auto* p = new std::uint64_t[32];
  EXPECT_GT(alloc_count(), before);
  delete[] p;
}

}  // namespace
}  // namespace flb
