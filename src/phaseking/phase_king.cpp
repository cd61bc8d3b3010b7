#include "phaseking/phase_king.hpp"

#include <algorithm>
#include <vector>

#include "util/math.hpp"

namespace synccount::phaseking {

void Params::validate() const {
  SC_CHECK(N >= 1, "phase king needs at least one node");
  SC_CHECK(C >= 2, "phase king counter size must be at least 2");
  SC_CHECK(F >= 0, "resilience must be non-negative");
  SC_CHECK(N > 3 * F, "phase king requires N > 3F");
  SC_CHECK(N >= F + 2, "phase king requires at least F+2 nodes (kings)");
}

namespace {

// increment a[v]: +1 mod C; no action on ∞. Values equal to C (transient,
// from min{C, ∞}) wrap to (C+1) mod C deterministically.
inline std::uint64_t increment(std::uint64_t a, std::uint64_t C) noexcept {
  if (a == kInfinity) return a;
  return (a + 1) % C;
}

// Shared scratch for value counting: z[j] for j in [0, C] where index C
// stands for ∞. Only entries touched this call are zeroed afterwards, so a
// step costs O(N) regardless of C.
thread_local std::vector<std::uint32_t> t_zbuf;

inline std::size_t bucket_of(std::uint64_t a, std::uint64_t C) noexcept {
  return static_cast<std::size_t>(a == kInfinity ? C : std::min(a, C));
}

}  // namespace

Registers step(const Params& p, int index, NodeId v, const Registers& own,
               std::span<const std::uint64_t> received_a, StepMode mode) {
  SC_ASSERT(index >= 0 && index < p.tau());
  SC_ASSERT(static_cast<int>(received_a.size()) == p.N);
  SC_ASSERT(v >= 0 && v < p.N);
  (void)v;

  const int king = index / 3;
  const int phase = index % 3;
  const auto N = static_cast<std::uint64_t>(p.N);
  const auto F = static_cast<std::uint64_t>(p.F);
  Registers out = own;
  const auto advance = [&](std::uint64_t a) {
    return mode == StepMode::kCounting ? increment(a, p.C)
                                       : (a == kInfinity ? a : a % p.C);
  };

  switch (phase) {
    case 0: {  // I_{3ℓ}
      std::uint64_t same = 0;
      for (std::uint64_t a : received_a) {
        if (a == own.a) ++same;
      }
      if (same < N - F) out.a = kInfinity;
      out.a = advance(out.a);
      break;
    }
    case 1: {  // I_{3ℓ+1}
      if (t_zbuf.size() < p.C + 1) t_zbuf.resize(static_cast<std::size_t>(p.C) + 1, 0);
      for (std::uint64_t a : received_a) ++t_zbuf[bucket_of(a, p.C)];

      const std::uint64_t z_own = t_zbuf[bucket_of(own.a, p.C)];
      out.d = z_own >= N - F;

      // min{ j : z_j > F }: scan the received values themselves (a value can
      // only exceed F occurrences if it was received), preferring the
      // smallest real value; fall back to ∞.
      std::uint64_t best = kInfinity;
      for (std::uint64_t a : received_a) {
        if (a == kInfinity || a >= p.C) continue;  // ∞ sorts last
        if (t_zbuf[static_cast<std::size_t>(a)] > F && a < best) best = a;
      }
      out.a = best;

      for (std::uint64_t a : received_a) t_zbuf[bucket_of(a, p.C)] = 0;
      out.a = advance(out.a);
      break;
    }
    default: {  // I_{3ℓ+2}
      if (own.a == kInfinity || !own.d) {
        const std::uint64_t king_a = received_a[static_cast<std::size_t>(king)];
        out.a = std::min<std::uint64_t>(p.C, king_a);  // min{C, a[ℓ]}; ∞ -> C
      }
      out.d = true;
      out.a = advance(out.a);
      break;
    }
  }
  return out;
}

Tally tally(const Params& p, int index, std::span<const std::uint64_t> received_a,
            std::vector<std::uint32_t>& scratch) {
  SC_ASSERT(index >= 0 && index < p.tau());
  SC_ASSERT(static_cast<int>(received_a.size()) == p.N);
  const auto quorum = static_cast<std::uint64_t>(p.N - p.F);
  SC_ASSERT(2 * quorum > static_cast<std::uint64_t>(p.N));  // N > 2F: one value at most
  Tally t;
  t.phase = index % 3;
  switch (t.phase) {
    case 0: {
      // Exact equality, as step() counts: the Boyer-Moore candidate is the
      // only value that can hold a majority, let alone N-F entries.
      std::uint64_t cand = 0;
      std::size_t votes = 0;
      for (const std::uint64_t a : received_a) {
        if (votes == 0) {
          cand = a;
          votes = 1;
        } else if (a == cand) {
          ++votes;
        } else {
          --votes;
        }
      }
      const auto same = std::count(received_a.begin(), received_a.end(), cand);
      t.has_major = static_cast<std::uint64_t>(same) >= quorum;
      t.major = cand;
      break;
    }
    case 1: {
      if (scratch.size() < p.C + 1) scratch.resize(static_cast<std::size_t>(p.C) + 1, 0);
      for (const std::uint64_t a : received_a) {
        const std::size_t b = bucket_of(a, p.C);
        if (++scratch[b] >= quorum) {
          t.has_major = true;
          t.major = b;
        }
      }
      t.value = kInfinity;
      for (const std::uint64_t a : received_a) {
        if (a < p.C && scratch[static_cast<std::size_t>(a)] > static_cast<std::uint64_t>(p.F)) {
          t.value = std::min(t.value, a);
        }
      }
      for (const std::uint64_t a : received_a) scratch[bucket_of(a, p.C)] = 0;
      break;
    }
    default:
      t.value = received_a[static_cast<std::size_t>(index / 3)];
      break;
  }
  return t;
}

Registers step_sampled(const Params& p, int index, const Registers& own,
                       std::span<const std::uint64_t> sampled_a, std::uint64_t king_a) {
  SC_ASSERT(index >= 0 && index < p.tau());
  const auto M = static_cast<std::uint64_t>(sampled_a.size());
  SC_ASSERT(M > 0);
  const int phase = index % 3;
  Registers out = own;

  switch (phase) {
    case 0: {  // I_{3ℓ}, threshold N-F -> 2/3·M
      std::uint64_t same = 0;
      for (std::uint64_t a : sampled_a) {
        if (a == own.a) ++same;
      }
      if (3 * same < 2 * M) out.a = kInfinity;
      if (out.a != kInfinity) out.a = (out.a + 1) % p.C;
      break;
    }
    case 1: {  // I_{3ℓ+1}, thresholds N-F -> 2/3·M and F+1 -> >1/3·M
      if (t_zbuf.size() < p.C + 1) t_zbuf.resize(static_cast<std::size_t>(p.C) + 1, 0);
      for (std::uint64_t a : sampled_a) ++t_zbuf[bucket_of(a, p.C)];

      const std::uint64_t z_own = t_zbuf[bucket_of(own.a, p.C)];
      out.d = 3 * z_own >= 2 * M;

      std::uint64_t best = kInfinity;
      for (std::uint64_t a : sampled_a) {
        if (a == kInfinity || a >= p.C) continue;
        if (3 * t_zbuf[static_cast<std::size_t>(a)] > M && a < best) best = a;
      }
      out.a = best;

      for (std::uint64_t a : sampled_a) t_zbuf[bucket_of(a, p.C)] = 0;
      if (out.a != kInfinity) out.a = (out.a + 1) % p.C;
      break;
    }
    default: {  // I_{3ℓ+2}: the king is pulled directly, semantics unchanged
      if (own.a == kInfinity || !own.d) {
        out.a = std::min<std::uint64_t>(p.C, king_a);
      }
      out.d = true;
      out.a = out.a == kInfinity ? out.a : (out.a + 1) % p.C;
      break;
    }
  }
  return out;
}

int a_bits(std::uint64_t C) noexcept { return util::ceil_log2(C + 1); }

std::uint64_t encode_a(std::uint64_t a, std::uint64_t C) noexcept {
  return a == kInfinity ? C : std::min(a, C);
}

std::uint64_t decode_a(std::uint64_t bits, std::uint64_t C) noexcept {
  return bits >= C ? kInfinity : bits;
}

}  // namespace synccount::phaseking
