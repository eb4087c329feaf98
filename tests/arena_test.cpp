// Arena + d-ary indexed heap tests: the allocation discipline under the
// scheduling-as-a-service hot path (core::Scratch), and the heaps every
// scheduler's ready lists run on.

#include "flb/util/arena.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flb/core/scratch.hpp"
#include "flb/util/dary_heap.hpp"
#include "flb/util/rng.hpp"

namespace flb {
namespace {

TEST(ArenaTest, AllocReturnsWritableAlignedSpans) {
  Arena a;
  std::span<double> d = a.alloc<double>(100);
  std::span<std::uint32_t> u = a.alloc<std::uint32_t>(37);
  ASSERT_EQ(d.size(), 100u);
  ASSERT_EQ(u.size(), 37u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u.data()) %
                alignof(std::uint32_t),
            0u);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = static_cast<double>(i);
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = static_cast<std::uint32_t>(i);
  EXPECT_EQ(d[99], 99.0);
  EXPECT_EQ(u[36], 36u);
}

TEST(ArenaTest, FillOverloadInitializes) {
  Arena a;
  std::span<int> s = a.alloc<int>(64, -7);
  for (int v : s) EXPECT_EQ(v, -7);
}

TEST(ArenaTest, ZeroSizeAllocIsEmpty) {
  Arena a;
  EXPECT_TRUE(a.alloc<double>(0).empty());
}

TEST(ArenaTest, GrowthDoesNotInvalidateEarlierSpans) {
  Arena a(/*initial_bytes=*/4096);
  std::span<std::uint64_t> first = a.alloc<std::uint64_t>(16);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = i * 3 + 1;
  // Force several growths.
  for (int round = 0; round < 8; ++round) (void)a.alloc<std::uint64_t>(4096);
  EXPECT_GT(a.blocks(), 1u);
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], i * 3 + 1);
}

TEST(ArenaTest, ResetMakesSameSizedSequenceAllocationStable) {
  Arena a;
  auto run = [&] {
    (void)a.alloc<double>(1000);
    (void)a.alloc<std::uint32_t>(500);
    (void)a.alloc<std::size_t>(2000);
  };
  run();
  const std::size_t blocks_after_warmup = a.blocks();
  const std::size_t reserved = a.bytes_reserved();
  for (int i = 0; i < 10; ++i) {
    a.reset();
    run();
  }
  // Steady state: no new blocks, no new bytes — the zero-allocation claim.
  EXPECT_EQ(a.blocks(), blocks_after_warmup);
  EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(ArenaTest, SmallerRunAfterLargerRunReusesBlocks) {
  Arena a;
  (void)a.alloc<double>(10000);
  const std::size_t blocks = a.blocks();
  a.reset();
  (void)a.alloc<double>(10);
  EXPECT_EQ(a.blocks(), blocks);
}

// reserve() makes the spans of a run share one block: on a cold arena it
// grows one block of the reserved size, and a later run too large for the
// first block trades every block for one of twice its size, so runs of
// either size then reuse that one block.
TEST(ArenaTest, ReserveCarvesARunFromOneBlock) {
  Arena a(/*initial_bytes=*/4096);
  const std::size_t run = Arena::footprint<double>(1000) +
                          Arena::footprint<std::uint32_t>(999) +
                          Arena::footprint<double>(1000);
  a.reserve(run);
  (void)a.alloc<double>(1000);
  (void)a.alloc<std::uint32_t>(999);  // leaves the next span misaligned
  (void)a.alloc<double>(1000);
  EXPECT_EQ(a.blocks(), 1u);
  EXPECT_EQ(a.bytes_reserved(), run);

  Arena b(/*initial_bytes=*/4096);
  (void)b.alloc<double>(10);  // a first block of 4096 bytes
  b.reset();
  b.reserve(Arena::footprint<double>(600));  // 4807 bytes: too large
  (void)b.alloc<double>(600);
  EXPECT_EQ(b.blocks(), 1u);
  EXPECT_EQ(b.bytes_reserved(), 8192u);
  for (const std::size_t n : {10u, 1000u}) {
    b.reset();
    b.reserve(Arena::footprint<double>(n));
    (void)b.alloc<double>(n);
    EXPECT_EQ(b.bytes_used(), n * sizeof(double));
    EXPECT_EQ(b.blocks(), 1u);
    EXPECT_EQ(b.bytes_reserved(), 8192u);
  }
}

// A cold core::Scratch::prepare carves every span from one arena block:
// the footprint it reserves covers every span it carves, and by no more
// than their alignment padding, at every shape. A footprint that fell
// behind would quietly grow a second block. A warm scratch that meets
// ever larger shapes still holds one block.
TEST(ScratchTest, ColdPrepareCarvesOneBlock) {
  core::Scratch warm;
  for (const TaskId v : {1u, 7u, 2000u, 10000u}) {
    for (const ProcId p : {1u, 3u, 16u, 64u}) {
      warm.prepare(v, p);
      EXPECT_EQ(warm.arena().blocks(), 1u) << "warm, " << v << " tasks";
      core::Scratch s;
      s.prepare(v, p);
      const Arena& a = s.arena();
      EXPECT_EQ(a.blocks(), 1u) << v << " tasks, " << p << " procs";
      EXPECT_LE(a.bytes_used(), a.bytes_reserved());
      // A small run gets the default 64 KiB first block.
      EXPECT_LE(a.bytes_reserved(),
                std::max<std::size_t>(1u << 16, a.bytes_used() + 256))
          << v << " tasks, " << p << " procs";
    }
  }
}

// --- DaryIndexedHeap -------------------------------------------------------

// Heap sort: the drain equals std::sort of the same keys, duplicates
// included, and equal primaries pop by id (the tie-break every scheduler
// key ends in).
TEST(DaryHeapTest, PopsInKeyOrder) {
  constexpr std::size_t kN = 500;
  Arena a;
  DaryIndexedHeap<std::pair<int, std::size_t>> h;
  h.bind(a, kN);
  Rng rng(11);
  std::vector<std::pair<int, std::size_t>> keys(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    keys[i] = {static_cast<int>(rng.next_below(50)), i};  // many duplicates
    h.push(i, keys[i]);
  }
  ASSERT_TRUE(h.validate());
  std::sort(keys.begin(), keys.end());
  for (const auto& expected : keys) {
    ASSERT_EQ(h.top_key(), expected);
    ASSERT_EQ(h.pop(), expected.second);
  }
  EXPECT_TRUE(h.empty());
}

TEST(DaryHeapTest, TupleKeysOrderLexicographically) {
  using Key = std::tuple<double, double, unsigned>;
  Arena a;
  DaryIndexedHeap<Key> h;
  h.bind(a, 4);
  h.push(0, {1.0, -5.0, 0});
  h.push(1, {1.0, -9.0, 1});  // same primary, smaller second component
  h.push(2, {0.5, 0.0, 2});
  EXPECT_EQ(h.pop(), 2u);  // smallest primary
  EXPECT_EQ(h.pop(), 1u);  // tie broken by the second component
  EXPECT_EQ(h.pop(), 0u);
}

TEST(DaryHeapTest, DecreaseAndIncreaseKey) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 8);
  for (std::size_t i = 0; i < 8; ++i) h.push(i, 10 * static_cast<int>(i + 1));
  h.update(7, 1);  // decrease: the last item moves to the front
  EXPECT_EQ(h.top(), 7u);
  EXPECT_EQ(h.key_of(7), 1);
  h.update(7, 100);  // increase: it sinks behind everything else
  EXPECT_EQ(h.top(), 0u);
  h.update(0, 55);
  EXPECT_EQ(h.top(), 1u);
  ASSERT_TRUE(h.validate());
  std::vector<std::size_t> order;
  while (!h.empty()) order.push_back(h.pop());
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 4, 0, 5, 6, 7}));
}

TEST(DaryHeapTest, EraseAndUpdateKeepHeapValid) {
  Arena a;
  DaryIndexedHeap<std::pair<double, std::size_t>> h;
  h.bind(a, 128);
  std::mt19937 rng(11);
  for (std::size_t i = 0; i < 128; ++i)
    h.push(i, {static_cast<double>(rng() % 500), i});
  for (std::size_t i = 0; i < 128; i += 3) h.erase(i);
  ASSERT_TRUE(h.validate());
  for (std::size_t i = 1; i < 128; i += 3)
    h.update(i, {static_cast<double>(rng() % 500), i});
  ASSERT_TRUE(h.validate());
  double prev = -1.0;
  while (!h.empty()) {
    EXPECT_GE(h.top_key().first, prev);
    prev = h.top_key().first;
    h.pop();
  }
}

TEST(DaryHeapTest, PushOrUpdateContainsAndItems) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.capacity(), 8u);
  h.push_or_update(3, 30);
  EXPECT_TRUE(h.contains(3));
  EXPECT_EQ(h.key_of(3), 30);
  h.push_or_update(3, 5);
  EXPECT_EQ(h.key_of(3), 5);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_FALSE(h.contains(4));
  h.push(6, 1);
  // items() lists the members in array order, not key order.
  std::vector<std::size_t> items(h.items().begin(), h.items().end());
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, (std::vector<std::size_t>{3, 6}));
  EXPECT_EQ(h.items().front(), h.top());
}

// operations() counts each push, pop, erase and update call once
// (push_or_update as whichever it does) and restarts at bind()/reset().
TEST(DaryHeapTest, OperationsCountEveryCall) {
  Arena a;
  DaryIndexedHeap<int> h(a, 8);
  h.push(0, 5);
  h.push(1, 3);
  h.push_or_update(1, 7);
  h.update(0, 1);
  h.erase(1);
  (void)h.pop();
  EXPECT_EQ(h.operations(), 6u);
  h.bind(a, 8);
  EXPECT_EQ(h.operations(), 0u);

  DaryHeapForest<int> f(a, 8, 2);
  f.push(0, 0, 5);
  f.push(1, 1, 3);
  f.move(0, 1, 2);  // an erase and a push
  f.update(1, 9);
  (void)f.pop(1);
  EXPECT_EQ(f.operations(), 6u);
  f.reset(a, 8, 2);
  EXPECT_EQ(f.operations(), 0u);
}

TEST(DaryHeapTest, ClearAndRebindDropContents) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 16);
  for (std::size_t i = 0; i < 16; ++i) h.push(i, static_cast<int>(i));
  h.clear();
  EXPECT_TRUE(h.empty());
  for (std::size_t i = 0; i < 16; ++i) EXPECT_FALSE(h.contains(i));
  h.push(2, 1);  // reusable after clear
  EXPECT_EQ(h.top(), 2u);
  a.reset();
  h.bind(a, 16);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(0));
  h.push(0, 42);
  EXPECT_EQ(h.top(), 0u);
}

// Randomized differential test against a std::map reference.
TEST(DaryHeapTest, StressAgainstReference) {
  constexpr std::size_t kIds = 64;
  Arena a;
  DaryIndexedHeap<std::pair<int, std::size_t>> h;
  h.bind(a, kIds);
  std::map<std::size_t, int> ref;  // id -> key
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    const std::size_t id = rng.next_below(kIds);
    const double action = rng.next_double();
    if (action < 0.4) {
      const int k = static_cast<int>(rng.next_below(1000));
      h.push_or_update(id, {k, id});
      ref[id] = k;
    } else if (action < 0.6) {
      if (ref.erase(id) != 0) h.erase(id);
    } else if (action < 0.8) {
      if (!ref.empty()) {
        auto best = ref.begin();  // reference minimum by (key, id)
        for (auto it = ref.begin(); it != ref.end(); ++it)
          if (std::pair(it->second, it->first) <
              std::pair(best->second, best->first))
            best = it;
        ASSERT_EQ(h.pop(), best->first);
        ref.erase(best);
      }
    } else {
      ASSERT_EQ(h.size(), ref.size());
      ASSERT_EQ(h.contains(id), ref.count(id) > 0);
      if (ref.count(id) != 0) ASSERT_EQ(h.key_of(id).first, ref[id]);
    }
    if (step % 1000 == 0) ASSERT_TRUE(h.validate());
  }
  EXPECT_TRUE(h.validate());
}

// --- DaryHeapForest --------------------------------------------------------

TEST(DaryForestTest, ItemsLiveInAtMostOneHeap) {
  Arena a;
  DaryHeapForest<int> f;
  f.reset(a, 32, 4);
  std::mt19937 rng(3);
  for (std::size_t i = 0; i < 32; ++i)
    f.push(i % 4, i, static_cast<int>(rng() % 100));
  ASSERT_TRUE(f.validate());
  // Move a few items between heaps: each leaves its old heap.
  f.move(0, 2, 1);
  f.move(5, 2, 2);
  EXPECT_EQ(f.heap_of(0), 2u);
  EXPECT_EQ(f.heap_of(5), 2u);
  EXPECT_EQ(f.key_of(5), 2);
  EXPECT_EQ(f.size(0), 7u);
  EXPECT_EQ(f.size(1), 7u);
  EXPECT_EQ(f.size(2), 10u);
  ASSERT_TRUE(f.validate());
  // items() lists a heap's members in array order, not key order.
  std::vector<std::size_t> in_2(f.items(2).begin(), f.items(2).end());
  std::sort(in_2.begin(), in_2.end());
  EXPECT_EQ(in_2, (std::vector<std::size_t>{0, 2, 5, 6, 10, 14, 18, 22, 26,
                                            30}));
  EXPECT_EQ(f.items(2).front(), f.top(2));
  // Per-heap pops come out in key order.
  for (std::size_t h = 0; h < 4; ++h) {
    int prev = -1;
    while (!f.empty(h)) {
      EXPECT_GE(f.top_key(h), prev);
      prev = f.top_key(h);
      f.pop(h);
    }
  }
  EXPECT_FALSE(f.contains(0));
}

TEST(DaryForestTest, ResetKeepsPerHeapPoolsAcrossRuns) {
  Arena a;
  DaryHeapForest<int> f;
  // Warm up with the largest shape.
  f.reset(a, 100, 8);
  for (std::size_t i = 0; i < 100; ++i) f.push(i % 8, i, static_cast<int>(i));
  a.reset();
  // A smaller run after reset must start empty.
  f.reset(a, 50, 4);
  EXPECT_EQ(f.num_heaps(), 4u);
  for (std::size_t h = 0; h < 4; ++h) EXPECT_TRUE(f.empty(h));
  EXPECT_FALSE(f.contains(7));
  for (std::size_t i = 0; i < 50; ++i) f.push(i % 4, i, static_cast<int>(50 - i));
  ASSERT_TRUE(f.validate());
  EXPECT_EQ(f.top_key(0), 2);  // id 48 carries key 2
}

// Differential stress test against per-heap reference maps.
TEST(DaryForestTest, StressAgainstReference) {
  constexpr std::size_t kIds = 48, kHeaps = 5;
  using Forest = DaryHeapForest<std::pair<int, std::size_t>>;
  Arena a;
  Forest f;
  f.reset(a, kIds, kHeaps);
  std::map<std::size_t, std::pair<std::size_t, int>> ref;  // id->(heap,key)
  Rng rng(21);
  for (int step = 0; step < 20000; ++step) {
    const std::size_t id = rng.next_below(kIds);
    const std::size_t h = rng.next_below(kHeaps);
    const double action = rng.next_double();
    if (action < 0.35) {
      const int k = static_cast<int>(rng.next_below(1000));
      if (ref.count(id) == 0)
        f.push(h, id, {k, id});
      else
        f.move(id, h, {k, id});
      ref[id] = {h, k};
    } else if (action < 0.5) {
      if (ref.count(id) != 0) {
        const int k = static_cast<int>(rng.next_below(1000));
        f.update(id, {k, id});
        ref[id].second = k;
      }
    } else if (action < 0.65) {
      if (ref.erase(id) != 0) f.erase(id);
    } else if (action < 0.85) {
      // The top of heap h against the reference minimum.
      std::size_t best = Forest::npos;
      for (const auto& [rid, hk] : ref)
        if (hk.first == h &&
            (best == Forest::npos ||
             std::pair(hk.second, rid) < std::pair(ref[best].second, best)))
          best = rid;
      if (best == Forest::npos)
        ASSERT_TRUE(f.empty(h));
      else
        ASSERT_EQ(f.top(h), best);
    } else {
      ASSERT_EQ(f.contains(id), ref.count(id) > 0);
      if (ref.count(id) != 0) {
        ASSERT_EQ(f.heap_of(id), ref[id].first);
        ASSERT_EQ(f.key_of(id).first, ref[id].second);
      }
    }
    if (step % 2000 == 0) ASSERT_TRUE(f.validate());
  }
  EXPECT_TRUE(f.validate());
}

}  // namespace
}  // namespace flb
