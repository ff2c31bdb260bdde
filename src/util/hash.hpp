#pragma once
// The repo's two hashes, header-only and dependency-free.
//
//  * mix64 — the splitmix64 finalizer. util::Rng seeds through it, and every
//    seeded decision (mp fault plans, the analysis schedule fuzzer, serve
//    chaos) is a pure mix64 hash of the decision's identity and the plan
//    seed, so a decision needs no generator state and no thread timing.
//  * Fnv1a — FNV-1a 64. Result digests hash exact IEEE-754 bit images with
//    it (-0.0 != +0.0, every NaN payload distinct), and mp wire frames
//    checksum their header and payload with it. Words are fed least
//    significant byte first on every host, so digests and wire checksums do
//    not depend on the host's byte order.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace treesvd {

/// splitmix64's increment: the 64-bit golden ratio.
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64 finalizer: mix64(x) is the splitmix64 output for state x.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += kSplitmixGamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of a hash.
constexpr double unit_interval(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) add_byte(p[i]);
  }

  /// Little-endian: the low byte first, whatever the host's byte order.
  constexpr void add_u64(std::uint64_t v) noexcept {
    for (int b = 0; b < 8; ++b) add_byte(static_cast<std::uint8_t>(v >> (8 * b)));
  }

  constexpr void add_double(double d) noexcept { add_u64(std::bit_cast<std::uint64_t>(d)); }

  constexpr void add_doubles(std::span<const double> values) noexcept {
    for (const double d : values) add_double(d);
  }

  constexpr std::uint64_t value() const noexcept { return h_; }

 private:
  constexpr void add_byte(std::uint8_t b) noexcept {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace treesvd
