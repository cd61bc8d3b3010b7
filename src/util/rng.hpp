// Deterministic, splittable pseudo-random number generation.
//
// All randomness in the library flows through Rng so that every execution
// (tests, benches, examples) is reproducible from a single 64-bit seed.
// The generator is xoshiro256** seeded via SplitMix64; `split()` derives an
// independent child stream, which is how per-node sampling seeds are created
// for the pseudo-random counters of Section 5 (Corollary 5).
#pragma once

#include <array>
#include <cstdint>

#include "util/math.hpp"

namespace synccount::util {

// SplitMix64 step: used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

// Stateless 64-bit mix of two values (for deriving child seeds).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept;

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  // Uniform 64-bit value. Inline: the batched runners draw once per lane per
  // round, and an out-of-line call here forces the generator state through
  // memory on every draw.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform value in [0, bound); bound > 0. Uses rejection sampling, so the
  // distribution is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  // Uniform value in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double next_double() noexcept;

  // Bernoulli trial with success probability p.
  bool next_bool(double p = 0.5) noexcept;

  // Derive an independent child generator (deterministic function of the
  // current state; advances this generator).
  Rng split() noexcept;

  // std::uniform_random_bit_generator interface so the Rng can be used with
  // <algorithm> shuffles.
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

// Rng::next_below with the bound fixed up front: the rejection threshold
// and the reduction's reciprocal are computed once, so a loop of draws
// against one bound costs no division. Each call consumes exactly the draws
// next_below(bound) would and returns the same value.
class BoundedDraw {
 public:
  explicit BoundedDraw(std::uint64_t bound) noexcept
      : bound_(bound),
        threshold_(bound <= 1 ? 0 : (0 - bound) % bound),
        div_(bound <= 1 ? 1 : bound) {}

  std::uint64_t operator()(Rng& rng) const noexcept {
    if (bound_ <= 1) return 0;
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r >= threshold_) return div_.mod(r);
    }
  }

 private:
  std::uint64_t bound_;
  std::uint64_t threshold_;
  Divisor div_;
};

}  // namespace synccount::util
