#include "util/math.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/check.hpp"

namespace synccount::util {

int ceil_log2(std::uint64_t n) noexcept {
  if (n <= 1) return 0;
  return 64 - std::countl_zero(n - 1);
}

int floor_log2(std::uint64_t n) noexcept {
  if (n == 0) return -1;
  return 63 - std::countl_zero(n);
}

std::optional<std::uint64_t> checked_pow(std::uint64_t base, unsigned exp) noexcept {
  std::uint64_t result = 1;
  std::uint64_t b = base;
  unsigned e = exp;
  while (e > 0) {
    if (e & 1U) {
      auto r = checked_mul(result, b);
      if (!r) return std::nullopt;
      result = *r;
    }
    e >>= 1U;
    if (e == 0) break;
    auto sq = checked_mul(b, b);
    if (!sq) return std::nullopt;
    b = *sq;
  }
  return result;
}

std::uint64_t ipow(std::uint64_t base, unsigned exp) {
  auto r = checked_pow(base, exp);
  SC_CHECK(r.has_value(), "integer power overflows uint64");
  return *r;
}

std::optional<std::uint64_t> checked_mul(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  if (a > ~0ULL / b) return std::nullopt;
  return a * b;
}

std::optional<std::uint64_t> checked_add(std::uint64_t a, std::uint64_t b) noexcept {
  if (a > ~0ULL - b) return std::nullopt;
  return a + b;
}

std::uint64_t add_mod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept {
  a %= m;
  b %= m;
  // a, b < m <= 2^64 - 1; a + b may wrap only if m > 2^63, handle via subtraction.
  if (a >= m - b) return a - (m - b);
  return a + b;
}

std::uint64_t mod_i64(std::int64_t a, std::uint64_t m) noexcept {
  const auto sm = static_cast<std::int64_t>(m);
  std::int64_t r = a % sm;
  if (r < 0) r += sm;
  return static_cast<std::uint64_t>(r);
}

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return a / b + (a % b != 0 ? 1 : 0);
}

std::uint64_t lcm_checked(std::uint64_t a, std::uint64_t b) {
  SC_CHECK(a > 0 && b > 0, "lcm of zero");
  const std::uint64_t g = std::gcd(a, b);
  auto r = checked_mul(a / g, b);
  SC_CHECK(r.has_value(), "lcm overflows uint64");
  return *r;
}

Divisor::Divisor(std::uint64_t d) noexcept : d_(d) {
  SC_ASSERT(d >= 1);
  // l = ceil(log2 d); mul = floor(2^64 (2^l - d) / d) + 1, which fits in 64
  // bits because 2^(l-1) < d <= 2^l.
  const int l = ceil_log2(d);
  using U128 = unsigned __int128;
  mul_ = static_cast<std::uint64_t>((((U128{1} << l) - d) << 64) / d + 1);
  sh1_ = std::min(l, 1);
  sh2_ = std::max(l - 1, 0);
}

}  // namespace synccount::util
