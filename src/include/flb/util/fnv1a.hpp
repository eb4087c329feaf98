#pragma once

#include <cstdint>
#include <string_view>

/// \file fnv1a.hpp
/// 64-bit FNV-1a: the one hash behind every determinism digest in flb —
/// the schedule digest (schedule_digest in sched/schedule.hpp), event- and
/// belief-log digests (runtime::RuntimeResult), and the chained batch
/// fingerprints of bench_throughput. It is not cryptographic: a digest only
/// has to change when its input does, and to be byte-stable across runs,
/// compilers and hosts.

namespace flb {

/// Incremental FNV-1a state, starting at the offset basis.
class Fnv1a {
 public:
  /// Fold in a run of bytes.
  void add(std::string_view bytes) noexcept {
    for (const char c : bytes) add_byte(static_cast<unsigned char>(c));
  }

  /// Fold in the eight bytes of `v`, least significant first.
  void add_u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i)
      add_byte(static_cast<unsigned char>(v >> (8 * i)));
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void add_byte(unsigned char b) noexcept {
    h_ ^= b;
    h_ *= 1099511628211ull;  // FNV prime
  }

  std::uint64_t h_ = 1469598103934665603ull;  // offset basis
};

/// FNV-1a digest of a string (event-log text, belief-log text).
[[nodiscard]] inline std::uint64_t fnv1a_digest(
    std::string_view text) noexcept {
  Fnv1a h;
  h.add(text);
  return h.value();
}

}  // namespace flb
