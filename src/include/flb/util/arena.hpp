#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "flb/util/error.hpp"

/// \file arena.hpp
/// A chunked monotonic arena: the allocation discipline behind FLB's
/// scheduling-as-a-service hot path.
///
/// One scheduling run needs a dozen flat arrays — SoA task state, heap
/// storage, pricing caches — whose sizes are all known up front (O(V + P)).
/// Allocating them with `new`/`std::vector` on every `schedule()` call is
/// what made per-run overhead dominate FLB's O(log P + log W) step cost at
/// serving volume. The arena replaces all of that with one bump pointer:
///
///  * `alloc<T>(n)` carves an aligned, uninitialized span out of the
///    current block in O(1). Blocks are never reused mid-run, so spans
///    stay valid until the next reset().
///  * Blocks are not zero-filled: a span's memory is first touched when
///    its owner writes it, so a cold run faults in only the pages it uses.
///    Every caller writes a span before reading it; `alloc(n, fill)` is
///    there for spans that need an initial value.
///  * When a block runs out, a new block (geometrically larger) is
///    appended. Existing blocks — and therefore existing spans — are NOT
///    moved or invalidated; growth is the only operation that touches the
///    system allocator. A caller that knows a run's whole footprint
///    reserve()s it after reset(): the run is carved from one block, and a
///    cold run allocates once.
///  * `reset()` rewinds every block in O(#blocks) without freeing, so a
///    steady-state run (any request no larger than the largest one seen)
///    performs zero heap allocations. The allocation-count regression test
///    (tests/flb_alloc_test.cpp) pins this.
///
/// Only trivially destructible element types are allowed: the arena never
/// runs destructors — reset() simply forgets the contents.

namespace flb {

class Arena {
 public:
  /// An arena whose first block (allocated lazily on first use) holds at
  /// least `initial_bytes`.
  explicit Arena(std::size_t initial_bytes = 1u << 16)
      : initial_bytes_(initial_bytes < kMinBlock ? kMinBlock
                                                 : initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Rewind every block, invalidating all spans handed out since the last
  /// reset. Keeps the memory: subsequent allocations reuse the blocks in
  /// order, so a same-sized allocation sequence touches the system
  /// allocator zero times.
  void reset() noexcept {
    current_ = 0;
    offset_ = 0;
  }

  /// An aligned, uninitialized span of `n` elements of T. O(1) unless a
  /// new block must be grown. Spans remain valid until reset().
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    if (n == 0) return {};
    void* p = raw_alloc(n * sizeof(T), alignof(T));
    return {static_cast<T*>(p), n};
  }

  /// The most bytes alloc<T>(n) can take from a block, alignment padding
  /// included. Summed over a sequence of allocations, it is the argument
  /// to reserve() that carves them all from one block.
  template <typename T>
  [[nodiscard]] static constexpr std::size_t footprint(std::size_t n) {
    return n == 0 ? 0 : n * sizeof(T) + alignof(T) - 1;
  }

  /// Reserve `bytes` for the run about to be carved, right after reset():
  /// the run's spans then share one block. When the first block is too
  /// small, every block is traded for one of max(bytes, twice the first
  /// block's size), so an arena that reserves every run keeps one block,
  /// sized by its largest run, and touches only that run's pages of it.
  void reserve(std::size_t bytes) {
    FLB_ASSERT(current_ == 0 && offset_ == 0);
    if (!blocks_.empty() && blocks_.front().size >= bytes) return;
    const std::size_t size =
        blocks_.empty() ? bytes : std::max(bytes, 2 * blocks_.front().size);
    blocks_.clear();
    grow(size);
  }

  /// As alloc(), with every element set to `fill`.
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t n, const T& fill) {
    std::span<T> s = alloc<T>(n);
    for (T& v : s) v = fill;
    return s;
  }

  /// Total bytes held across all blocks (the high-water footprint).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// Bytes handed out since the last reset (alignment padding included).
  [[nodiscard]] std::size_t bytes_used() const noexcept {
    std::size_t total = offset_;
    for (std::size_t i = 0; i < current_; ++i) total += blocks_[i].size;
    return total;
  }

  /// Number of blocks grown so far. Stable block count across runs is the
  /// cheap proxy for "no growth happened".
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_.size(); }

 private:
  static constexpr std::size_t kMinBlock = 1u << 12;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    FLB_ASSERT(align != 0 && (align & (align - 1)) == 0);
    for (;;) {
      if (current_ < blocks_.size()) {
        Block& b = blocks_[current_];
        const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
        if (aligned + bytes <= b.size) {
          offset_ = aligned + bytes;
          return b.data.get() + aligned;
        }
        // This block is exhausted; move on (its tail stays unused until
        // the next reset, which is fine for a monotonic allocator).
        ++current_;
        offset_ = 0;
        continue;
      }
      grow(bytes + align);
    }
  }

  void grow(std::size_t at_least) {
    std::size_t size = blocks_.empty() ? initial_bytes_
                                       : blocks_.back().size * 2;
    if (size < at_least) size = at_least;
    blocks_.push_back({std::make_unique_for_overwrite<std::byte[]>(size),
                       size});
    current_ = blocks_.size() - 1;
    offset_ = 0;
  }

  std::size_t initial_bytes_;
  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // block currently bump-allocated from
  std::size_t offset_ = 0;   // bytes used within blocks_[current_]
};

}  // namespace flb
