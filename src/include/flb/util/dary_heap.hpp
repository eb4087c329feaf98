#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "flb/util/arena.hpp"
#include "flb/util/error.hpp"

/// \file dary_heap.hpp
/// Arena-backed addressable d-ary min-heaps over dense integer ids: the one
/// heap family behind every sorted list in flb — FLB's task and processor
/// lists (core::Scratch) and the ready lists of every baseline scheduler.
///
/// The paper's list operations Enqueue / Dequeue / RemoveItem / BalanceList
/// map onto push / pop / erase / update, each O(log n) in the size of the
/// affected heap; contains, key_of and top are O(1). Tracking every id's
/// position is what lets an arbitrary item be removed or re-keyed — the
/// capability std::priority_queue lacks, and what FLB's O(V(log W + log P)
/// + E) bound rests on.
///
///  * **Storage is borrowed, not owned.** bind()/reset() carve the heap
///    array, the position index and the key table out of a caller-supplied
///    Arena, so re-dimensioning between runs is a bump-pointer rewind
///    instead of three `std::vector` reallocations. The forest's per-heap
///    id arrays are the one exception (their individual sizes are not
///    known up front); they are capacity-retaining vectors owned by the
///    forest, which makes them allocation-free at steady state.
///  * **Arity is 4 by default.** A d-ary layout trades a slightly deeper
///    compare fan-in on sift-down for a tree ~half as tall, which wins on
///    real hardware because sift-up (the push/update direction FLB leans
///    on) touches half the cache lines.
///
/// Pop order depends only on the keys, never on the heap's shape, whenever
/// the key order is total — flb keys end in the id as the final tie-break,
/// so every top() is unique. The golden-digest tests (platform_test,
/// golden_test) pin the schedules that order produces.

namespace flb {

/// Addressable d-ary min-heap over dense ids in [0, capacity), with all
/// storage borrowed from an Arena at bind() time.
template <typename Key, std::size_t Arity = 4>
class DaryIndexedHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  DaryIndexedHeap() = default;

  /// A heap bound to `arena` for ids in [0, capacity); see bind().
  DaryIndexedHeap(Arena& arena, std::size_t capacity) {
    bind(arena, capacity);
  }

  /// Re-dimension for ids in [0, capacity), borrowing storage from
  /// `arena`. Previous contents are dropped. O(capacity) to clear the
  /// position index; no heap allocation (the arena bump-allocates).
  void bind(Arena& arena, std::size_t capacity) {
    heap_ = arena.alloc<std::size_t>(capacity);
    pos_ = arena.alloc<std::size_t>(capacity, npos);
    keys_ = arena.alloc<Key>(capacity);
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return pos_.size(); }

  [[nodiscard]] bool contains(std::size_t id) const {
    return id < pos_.size() && pos_[id] != npos;
  }

  [[nodiscard]] const Key& key_of(std::size_t id) const {
    FLB_ASSERT(contains(id));
    return keys_[id];
  }

  [[nodiscard]] std::size_t top() const {
    FLB_ASSERT(size_ != 0);
    return heap_[0];
  }

  [[nodiscard]] const Key& top_key() const { return keys_[top()]; }

  void push(std::size_t id, Key key) {
    FLB_ASSERT(id < pos_.size());
    FLB_ASSERT(pos_[id] == npos);
    keys_[id] = std::move(key);
    pos_[id] = size_;
    heap_[size_] = id;
    sift_up(size_++);
  }

  std::size_t pop() {
    std::size_t id = top();
    erase(id);
    return id;
  }

  void erase(std::size_t id) {
    FLB_ASSERT(contains(id));
    std::size_t hole = pos_[id];
    pos_[id] = npos;
    std::size_t last = --size_;
    if (hole != last) {
      std::size_t moved = heap_[last];
      heap_[hole] = moved;
      pos_[moved] = hole;
      if (!sift_up(hole)) sift_down(hole);
    }
  }

  void update(std::size_t id, Key key) {
    FLB_ASSERT(contains(id));
    keys_[id] = std::move(key);
    std::size_t i = pos_[id];
    if (!sift_up(i)) sift_down(i);
  }

  void push_or_update(std::size_t id, Key key) {
    if (contains(id)) {
      update(id, std::move(key));
    } else {
      push(id, std::move(key));
    }
  }

  /// Ids currently in the heap, in internal array order (NOT key-sorted).
  [[nodiscard]] std::span<const std::size_t> items() const {
    return heap_.first(size_);
  }

  /// Remove everything while keeping the binding. O(size).
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) pos_[heap_[i]] = npos;
    size_ = 0;
  }

  /// Validate the heap property and the position index; O(n). Test hook.
  [[nodiscard]] bool validate() const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (pos_[heap_[i]] != i) return false;
      for (std::size_t c = Arity * i + 1;
           c <= Arity * i + Arity && c < size_; ++c)
        if (keys_[heap_[c]] < keys_[heap_[i]]) return false;
    }
    std::size_t present = 0;
    for (std::size_t p : pos_)
      if (p != npos) ++present;
    return present == size_;
  }

 private:
  bool sift_up(std::size_t i) {
    bool moved = false;
    while (i > 0) {
      std::size_t parent = (i - 1) / Arity;
      if (!(keys_[heap_[i]] < keys_[heap_[parent]])) break;
      swap_at(i, parent);
      i = parent;
      moved = true;
    }
    return moved;
  }

  void sift_down(std::size_t i) {
    for (;;) {
      std::size_t smallest = i;
      const std::size_t first = Arity * i + 1;
      const std::size_t last =
          first + Arity < size_ ? first + Arity : size_;
      for (std::size_t c = first; c < last; ++c)
        if (keys_[heap_[c]] < keys_[heap_[smallest]]) smallest = c;
      if (smallest == i) break;
      swap_at(i, smallest);
      i = smallest;
    }
  }

  void swap_at(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[heap_[a]] = a;
    pos_[heap_[b]] = b;
  }

  std::span<std::size_t> heap_;  // arena-backed array of ids
  std::span<std::size_t> pos_;   // id -> position, npos if absent
  std::span<Key> keys_;          // id -> key (valid while present)
  std::size_t size_ = 0;
};

/// A family of addressable d-ary min-heaps over one shared id space (each
/// id in at most one heap at a time), with the shared per-id state —
/// position, owning heap, key — borrowed from an Arena. Sharing that state
/// keeps setup O(V + P) where P separate heaps would cost O(V * P). The
/// per-heap id arrays are owned, capacity-retaining vectors: their
/// individual maxima are workload-dependent, so they warm up over the
/// first runs and then never allocate again.
template <typename Key, std::size_t Arity = 4>
class DaryHeapForest {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  DaryHeapForest() = default;

  /// A forest bound to `arena`; see reset().
  DaryHeapForest(Arena& arena, std::size_t num_items, std::size_t num_heaps) {
    reset(arena, num_items, num_heaps);
  }

  /// Re-dimension for `num_items` ids across `num_heaps` heaps. Shared
  /// per-id arrays come from `arena`; per-heap arrays are cleared but
  /// keep their capacity (and the pool only grows — a later smaller run
  /// reuses the larger pool).
  void reset(Arena& arena, std::size_t num_items, std::size_t num_heaps) {
    pos_ = arena.alloc<std::size_t>(num_items);
    heap_of_ = arena.alloc<std::size_t>(num_items, npos);
    keys_ = arena.alloc<Key>(num_items);
    if (heaps_.size() < num_heaps) heaps_.resize(num_heaps);
    num_heaps_ = num_heaps;
    for (std::size_t h = 0; h < num_heaps_; ++h) heaps_[h].clear();
  }

  [[nodiscard]] std::size_t num_items() const { return pos_.size(); }
  [[nodiscard]] std::size_t num_heaps() const { return num_heaps_; }

  [[nodiscard]] bool empty(std::size_t h) const { return heaps_[h].empty(); }
  [[nodiscard]] std::size_t size(std::size_t h) const {
    return heaps_[h].size();
  }

  [[nodiscard]] bool contains(std::size_t id) const {
    return id < heap_of_.size() && heap_of_[id] != npos;
  }

  [[nodiscard]] std::size_t heap_of(std::size_t id) const {
    return heap_of_[id];
  }

  [[nodiscard]] const Key& key_of(std::size_t id) const {
    FLB_ASSERT(contains(id));
    return keys_[id];
  }

  [[nodiscard]] std::size_t top(std::size_t h) const {
    FLB_ASSERT(!heaps_[h].empty());
    return heaps_[h].front();
  }

  [[nodiscard]] const Key& top_key(std::size_t h) const {
    return keys_[top(h)];
  }

  /// Ids in heap `h` in internal array order (NOT sorted). Observer hook.
  [[nodiscard]] const std::vector<std::size_t>& items(std::size_t h) const {
    return heaps_[h];
  }

  void push(std::size_t h, std::size_t id, Key key) {
    FLB_ASSERT(h < num_heaps_);
    FLB_ASSERT(id < pos_.size());
    FLB_ASSERT(heap_of_[id] == npos);
    keys_[id] = std::move(key);
    heap_of_[id] = h;
    pos_[id] = heaps_[h].size();
    heaps_[h].push_back(id);
    sift_up(h, heaps_[h].size() - 1);
  }

  std::size_t pop(std::size_t h) {
    std::size_t id = top(h);
    erase(id);
    return id;
  }

  void erase(std::size_t id) {
    FLB_ASSERT(contains(id));
    std::size_t h = heap_of_[id];
    auto& heap = heaps_[h];
    std::size_t hole = pos_[id];
    pos_[id] = npos;
    heap_of_[id] = npos;
    std::size_t last = heap.size() - 1;
    if (hole != last) {
      std::size_t moved = heap[last];
      heap[hole] = moved;
      pos_[moved] = hole;
      heap.pop_back();
      if (!sift_up(h, hole)) sift_down(h, hole);
    } else {
      heap.pop_back();
    }
  }

  void update(std::size_t id, Key key) {
    FLB_ASSERT(contains(id));
    keys_[id] = std::move(key);
    std::size_t h = heap_of_[id];
    std::size_t i = pos_[id];
    if (!sift_up(h, i)) sift_down(h, i);
  }

  /// Move `id` to heap `h` with a new key (erase + push).
  void move(std::size_t id, std::size_t h, Key key) {
    erase(id);
    push(h, id, std::move(key));
  }

  /// O(total) structural check for tests.
  [[nodiscard]] bool validate() const {
    std::size_t present = 0;
    for (std::size_t h = 0; h < num_heaps_; ++h) {
      const auto& heap = heaps_[h];
      for (std::size_t i = 0; i < heap.size(); ++i) {
        std::size_t id = heap[i];
        if (heap_of_[id] != h || pos_[id] != i) return false;
        for (std::size_t c = Arity * i + 1;
             c <= Arity * i + Arity && c < heap.size(); ++c)
          if (keys_[heap[c]] < keys_[id]) return false;
      }
      present += heap.size();
    }
    // Membership lives in heap_of_: pos_ is only written for ids that
    // entered a heap, so a never-pushed id's slot is uninitialized.
    std::size_t tracked = 0;
    for (std::size_t h : heap_of_)
      if (h != npos) ++tracked;
    return tracked == present;
  }

 private:
  bool sift_up(std::size_t h, std::size_t i) {
    auto& heap = heaps_[h];
    bool moved = false;
    while (i > 0) {
      std::size_t parent = (i - 1) / Arity;
      if (!(keys_[heap[i]] < keys_[heap[parent]])) break;
      swap_at(h, i, parent);
      i = parent;
      moved = true;
    }
    return moved;
  }

  void sift_down(std::size_t h, std::size_t i) {
    auto& heap = heaps_[h];
    const std::size_t n = heap.size();
    for (;;) {
      std::size_t smallest = i;
      const std::size_t first = Arity * i + 1;
      const std::size_t last = first + Arity < n ? first + Arity : n;
      for (std::size_t c = first; c < last; ++c)
        if (keys_[heap[c]] < keys_[heap[smallest]]) smallest = c;
      if (smallest == i) break;
      swap_at(h, i, smallest);
      i = smallest;
    }
  }

  void swap_at(std::size_t h, std::size_t a, std::size_t b) {
    auto& heap = heaps_[h];
    std::swap(heap[a], heap[b]);
    pos_[heap[a]] = a;
    pos_[heap[b]] = b;
  }

  std::vector<std::vector<std::size_t>> heaps_;  // capacity-retaining pool
  std::size_t num_heaps_ = 0;
  std::span<std::size_t> pos_;      // id -> position in its heap
  std::span<std::size_t> heap_of_;  // id -> heap index, npos if absent
  std::span<Key> keys_;             // id -> key (valid while present)
};

}  // namespace flb
