// Small integer-math helpers used throughout the planner and the
// constructions: ceilings of logarithms, checked powers, and modular
// arithmetic on unsigned 64-bit counters.
#pragma once

#include <cstdint>
#include <optional>

namespace synccount::util {

// Number of bits needed to store values of [0, n), i.e. ceil(log2(n)).
// ceil_log2(0) == ceil_log2(1) == 0.
int ceil_log2(std::uint64_t n) noexcept;

// floor(log2(n)) for n >= 1; returns -1 for n == 0.
int floor_log2(std::uint64_t n) noexcept;

// base^exp if it fits into uint64, std::nullopt on overflow.
std::optional<std::uint64_t> checked_pow(std::uint64_t base, unsigned exp) noexcept;

// base^exp; throws std::invalid_argument on overflow.
std::uint64_t ipow(std::uint64_t base, unsigned exp);

// a*b if it fits, nullopt on overflow.
std::optional<std::uint64_t> checked_mul(std::uint64_t a, std::uint64_t b) noexcept;

// a+b if it fits, nullopt on overflow.
std::optional<std::uint64_t> checked_add(std::uint64_t a, std::uint64_t b) noexcept;

// (a + b) mod m for m > 0.
std::uint64_t add_mod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept;

// Positive remainder of a mod m for m > 0 (a may be "negative" via wraparound
// semantics of signed input).
std::uint64_t mod_i64(std::int64_t a, std::uint64_t m) noexcept;

// Ceiling division for non-negative integers, b > 0.
std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept;

// Least common multiple with overflow check; throws on overflow.
std::uint64_t lcm_checked(std::uint64_t a, std::uint64_t b);

// Exact division by a divisor d >= 1 fixed up front, through one
// multiply-high and two shifts instead of a hardware divide (Granlund and
// Montgomery, "Division by Invariant Integers using Multiplication", 1994,
// Fig. 4.1): div(n) == n / d and mod(n) == n % d for every 64-bit n. Hot
// loops that reduce by the same per-level modulus many times build one of
// these once.
class Divisor {
 public:
  Divisor() noexcept = default;  // d = 1
  explicit Divisor(std::uint64_t d) noexcept;

  std::uint64_t div(std::uint64_t n) const noexcept {
    const auto t = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(mul_) * n) >> 64);
    return (t + ((n - t) >> sh1_)) >> sh2_;
  }
  std::uint64_t mod(std::uint64_t n) const noexcept { return n - div(n) * d_; }

 private:
  std::uint64_t d_ = 1;
  std::uint64_t mul_ = 1;
  int sh1_ = 0;
  int sh2_ = 0;
};

}  // namespace synccount::util
