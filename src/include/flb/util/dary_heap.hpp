#pragma once

#include <cstddef>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "flb/util/arena.hpp"
#include "flb/util/error.hpp"

/// \file dary_heap.hpp
/// Arena-backed addressable d-ary min-heaps over dense integer ids: the one
/// heap family behind every sorted list in flb — FLB's task and processor
/// lists (core::Scratch), the ready lists of FCP, DSC and LLB, and
/// priority_order (graph/properties.hpp), the order every static-priority
/// list scheduler walks.
///
/// The paper's list operations Enqueue / Dequeue / RemoveItem / BalanceList
/// map onto push / pop / erase / update, each O(log n) in the size of the
/// affected heap; contains, key_of and top are O(1). Tracking every id's
/// position is what lets an arbitrary item be removed or re-keyed — the
/// capability std::priority_queue lacks, and what FLB's O(V(log W + log P)
/// + E) bound rests on.
///
///  * **Keys live inline.** The heap array holds `{key, id}` nodes, so a
///    sift compares keys with one load each instead of an id load followed
///    by a dependent key-table load. Sifts move a hole rather than
///    swapping: the sifted node is written once, where it settles, and each
///    node it passes moves one level. The final arrangement is the one a
///    swap-based sift produces. Both heap types run the same sift code
///    (detail::HeapSift).
///  * **Storage is borrowed, not owned.** bind()/reset() carve the node
///    array and the position index out of a caller-supplied Arena, so
///    re-dimensioning between runs is a bump-pointer rewind instead of
///    `std::vector` reallocations. The forest's per-heap node arrays are
///    the one exception (their individual sizes are not known up front);
///    they are capacity-retaining vectors owned by the forest, which makes
///    them allocation-free at steady state.
///  * **Arity is 4 by default.** A d-ary layout trades a slightly deeper
///    compare fan-in on sift-down for a tree ~half as tall, which wins on
///    real hardware because sift-up (the push/update direction FLB leans
///    on) touches half the cache lines.
///  * **Operations are counted.** operations() is the number of push, pop,
///    erase and update calls since the last bind()/reset() — the exact
///    heap traffic FlbStats::heap_ops reports.
///
/// Pop order depends only on the keys, never on the heap's shape, whenever
/// the key order is total — flb keys end in the id as the final tie-break,
/// so every top() is unique. The golden-digest tests (platform_test,
/// golden_test) pin the schedules that order produces.

namespace flb {

namespace detail {

/// One heap slot: the key, inline, and the id it orders.
template <typename Key>
struct HeapNode {
  Key key;
  std::size_t id;
};

/// The sifts both heap types share, over one heap's node array and the
/// id -> position index.
template <typename Key, std::size_t Arity>
struct HeapSift {
  using Node = HeapNode<Key>;

  // Place `node` in the hole at i, moving it up if it beats its parent and
  // down otherwise.
  static void settle(std::span<Node> nodes, std::span<std::size_t> pos,
                     std::size_t i, Node node) {
    if (i > 0 && node.key < nodes[(i - 1) / Arity].key) {
      up(nodes, pos, i, std::move(node));
    } else {
      down(nodes, pos, i, std::move(node));
    }
  }

  static void up(std::span<Node> nodes, std::span<std::size_t> pos,
                 std::size_t i, Node node) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!(node.key < nodes[parent].key)) break;
      fill(nodes, pos, i, std::move(nodes[parent]));
      i = parent;
    }
    fill(nodes, pos, i, std::move(node));
  }

  static void down(std::span<Node> nodes, std::span<std::size_t> pos,
                   std::size_t i, Node node) {
    const std::size_t n = nodes.size();
    for (;;) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      const std::size_t last = first + Arity < n ? first + Arity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (nodes[c].key < nodes[best].key) best = c;
      if (!(nodes[best].key < node.key)) break;
      fill(nodes, pos, i, std::move(nodes[best]));
      i = best;
    }
    fill(nodes, pos, i, std::move(node));
  }

  static void fill(std::span<Node> nodes, std::span<std::size_t> pos,
                   std::size_t i, Node node) {
    pos[node.id] = i;
    nodes[i] = std::move(node);
  }
};

}  // namespace detail

/// Addressable d-ary min-heap over dense ids in [0, capacity), with all
/// storage borrowed from an Arena at bind() time.
template <typename Key, std::size_t Arity = 4>
class DaryIndexedHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

  using Node = detail::HeapNode<Key>;
  using Sift = detail::HeapSift<Key, Arity>;

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
    nodes_ = arena.alloc<Node>(capacity);
    pos_ = arena.alloc<std::size_t>(capacity, npos);
    size_ = 0;
    ops_ = 0;
  }

  /// The most arena bytes bind(arena, capacity) takes (Arena::footprint).
  [[nodiscard]] static constexpr std::size_t footprint(std::size_t capacity) {
    return Arena::footprint<Node>(capacity) +
           Arena::footprint<std::size_t>(capacity);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return pos_.size(); }

  /// push, pop, erase and update calls since the last bind().
  [[nodiscard]] std::size_t operations() const noexcept { return ops_; }

  [[nodiscard]] bool contains(std::size_t id) const {
    return id < pos_.size() && pos_[id] != npos;
  }

  [[nodiscard]] const Key& key_of(std::size_t id) const {
    FLB_ASSERT(contains(id));
    return nodes_[pos_[id]].key;
  }

  [[nodiscard]] std::size_t top() const {
    FLB_ASSERT(size_ != 0);
    return nodes_[0].id;
  }

  [[nodiscard]] const Key& top_key() const {
    FLB_ASSERT(size_ != 0);
    return nodes_[0].key;
  }

  void push(std::size_t id, Key key) {
    FLB_ASSERT(id < pos_.size());
    FLB_ASSERT(pos_[id] == npos);
    ++ops_;
    ++size_;
    Sift::up(live(), pos_, size_ - 1, Node{std::move(key), id});
  }

  std::size_t pop() {
    std::size_t id = top();
    erase(id);
    return id;
  }

  void erase(std::size_t id) {
    FLB_ASSERT(contains(id));
    ++ops_;
    const std::size_t hole = pos_[id];
    pos_[id] = npos;
    const std::size_t last = --size_;
    if (hole != last)
      Sift::settle(live(), pos_, hole, std::move(nodes_[last]));
  }

  void update(std::size_t id, Key key) {
    FLB_ASSERT(contains(id));
    ++ops_;
    Sift::settle(live(), pos_, pos_[id], Node{std::move(key), id});
  }

  void push_or_update(std::size_t id, Key key) {
    if (contains(id)) {
      update(id, std::move(key));
    } else {
      push(id, std::move(key));
    }
  }

  /// Ids currently in the heap, in internal array order (NOT key-sorted).
  [[nodiscard]] auto items() const {
    return std::views::transform(std::span<const Node>(nodes_.first(size_)),
                                 &Node::id);
  }

  /// Remove everything while keeping the binding. O(size).
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) pos_[nodes_[i].id] = npos;
    size_ = 0;
  }

  /// Validate the heap property and the position index; O(n). Test hook.
  [[nodiscard]] bool validate() const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (pos_[nodes_[i].id] != i) return false;
      for (std::size_t c = Arity * i + 1;
           c <= Arity * i + Arity && c < size_; ++c)
        if (nodes_[c].key < nodes_[i].key) return false;
    }
    std::size_t present = 0;
    for (std::size_t p : pos_)
      if (p != npos) ++present;
    return present == size_;
  }

 private:
  std::span<Node> live() { return nodes_.first(size_); }

  std::span<Node> nodes_;        // arena-backed {key, id} array
  std::span<std::size_t> pos_;   // id -> position, npos if absent
  std::size_t size_ = 0;
  std::size_t ops_ = 0;
};

/// A family of addressable d-ary min-heaps over one shared id space (each
/// id in at most one heap at a time), with the shared per-id state —
/// position and owning heap — borrowed from an Arena. Sharing that state
/// keeps setup O(V + P) where P separate heaps would cost O(V * P). The
/// per-heap node arrays are owned, capacity-retaining vectors: their
/// individual maxima are workload-dependent, so they warm up over the
/// first runs and then never allocate again.
template <typename Key, std::size_t Arity = 4>
class DaryHeapForest {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

  using Node = detail::HeapNode<Key>;
  using Sift = detail::HeapSift<Key, Arity>;

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
    if (heaps_.size() < num_heaps) heaps_.resize(num_heaps);
    num_heaps_ = num_heaps;
    for (std::size_t h = 0; h < num_heaps_; ++h) heaps_[h].clear();
    ops_ = 0;
  }

  /// The most arena bytes reset(arena, num_items, ·) takes; the per-heap
  /// arrays are not in the arena.
  [[nodiscard]] static constexpr std::size_t footprint(std::size_t num_items) {
    return 2 * Arena::footprint<std::size_t>(num_items);
  }

  [[nodiscard]] std::size_t num_items() const { return pos_.size(); }
  [[nodiscard]] std::size_t num_heaps() const { return num_heaps_; }

  /// push, pop, erase and update calls since the last reset().
  [[nodiscard]] std::size_t operations() const noexcept { return ops_; }

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
    return heaps_[heap_of_[id]][pos_[id]].key;
  }

  [[nodiscard]] std::size_t top(std::size_t h) const {
    FLB_ASSERT(!heaps_[h].empty());
    return heaps_[h].front().id;
  }

  [[nodiscard]] const Key& top_key(std::size_t h) const {
    FLB_ASSERT(!heaps_[h].empty());
    return heaps_[h].front().key;
  }

  /// Ids in heap `h` in internal array order (NOT sorted). Observer hook.
  [[nodiscard]] auto items(std::size_t h) const {
    return std::views::transform(std::span<const Node>(heaps_[h]),
                                 &Node::id);
  }

  void push(std::size_t h, std::size_t id, Key key) {
    FLB_ASSERT(h < num_heaps_);
    FLB_ASSERT(id < pos_.size());
    FLB_ASSERT(heap_of_[id] == npos);
    ++ops_;
    heap_of_[id] = h;
    auto& heap = heaps_[h];
    heap.emplace_back();
    Sift::up(heap, pos_, heap.size() - 1, Node{std::move(key), id});
  }

  std::size_t pop(std::size_t h) {
    std::size_t id = top(h);
    erase(id);
    return id;
  }

  void erase(std::size_t id) {
    FLB_ASSERT(contains(id));
    ++ops_;
    auto& heap = heaps_[heap_of_[id]];
    const std::size_t hole = pos_[id];
    heap_of_[id] = npos;
    Node moved = std::move(heap.back());
    heap.pop_back();
    if (hole != heap.size())
      Sift::settle(heap, pos_, hole, std::move(moved));
  }

  void update(std::size_t id, Key key) {
    FLB_ASSERT(contains(id));
    ++ops_;
    Sift::settle(heaps_[heap_of_[id]], pos_, pos_[id],
                 Node{std::move(key), id});
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
        std::size_t id = heap[i].id;
        if (heap_of_[id] != h || pos_[id] != i) return false;
        for (std::size_t c = Arity * i + 1;
             c <= Arity * i + Arity && c < heap.size(); ++c)
          if (heap[c].key < heap[i].key) return false;
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
  std::vector<std::vector<Node>> heaps_;  // capacity-retaining pool
  std::size_t num_heaps_ = 0;
  std::span<std::size_t> pos_;      // id -> position in its heap
  std::span<std::size_t> heap_of_;  // id -> heap index, npos if absent
  std::size_t ops_ = 0;
};

}  // namespace flb
