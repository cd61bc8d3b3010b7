// The self-stabilising adaptation of the phase king protocol [1]
// (paper, Section 3.4 and Table 2).
//
// Registers per node v: a[v] in [C] ∪ {∞} (the counting output; ∞ is the
// reset state) and d[v] in {0,1}. For each king ℓ in [F+2] there are three
// instruction sets, executed when the voted round counter R equals 3ℓ,
// 3ℓ+1, 3ℓ+2 (τ = 3(F+2) instruction sets in total):
//
//   I_{3ℓ}:   1. if fewer than N−F nodes sent a[v], a[v] ← ∞
//             2. increment a[v]
//   I_{3ℓ+1}: 1. z_j = |{u : a[u] = j}|
//             2. d[v] ← (z_{a[v]} ≥ N−F)
//             3. a[v] ← min{ j : z_j > F }
//             4. increment a[v]
//   I_{3ℓ+2}: 1. if a[v] = ∞ or d[v] = 0, a[v] ← min{C, a[ℓ]}
//             2. d[v] ← 1; increment a[v]
//
// where `increment` is +1 mod C and a no-op on ∞. Edge semantics follow the
// paper literally (see DESIGN.md): min over an empty set is ∞, and
// min{C, ∞} = C, an out-of-range value whose increment (C+1) mod C is
// deterministic and identical at every correct node -- which is all that
// Lemma 4 requires.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace synccount::phaseking {

using NodeId = int;

// The reset value ∞.
inline constexpr std::uint64_t kInfinity = ~std::uint64_t{0};

struct Params {
  int N = 0;           // number of nodes
  int F = 0;           // resilience, F < N/3
  std::uint64_t C = 0; // counter size, C > 1

  // τ = 3(F+2): the number of instruction sets / length of the control
  // counter required by the protocol.
  int tau() const noexcept { return 3 * (F + 2); }

  void validate() const;
};

struct Registers {
  std::uint64_t a = 0;  // value in [C] or kInfinity (or transiently C, see above)
  bool d = false;

  friend bool operator==(const Registers&, const Registers&) = default;
};

// Whether `increment` advances a modulo C each round (the counting
// adaptation of Section 3.4) or is a no-op (classic value consensus [1]:
// agreement on a value in [C] instead of on a counter).
enum class StepMode { kCounting, kValue };

// Executes instruction set I_{index} (index in [0, τ)) for node v, given the
// a-registers received from all N nodes this round (entry u = a[u] as sent by
// node u; entry v must be the node's own round-start a). Returns the new
// registers. Pure function: no global state.
Registers step(const Params& p, int index, NodeId v, const Registers& own,
               std::span<const std::uint64_t> received_a,
               StepMode mode = StepMode::kCounting);

// The receiver-independent part of instruction set I_{index} over one
// received vector: everything step() derives from received_a, so that many
// receivers of the same vector (the batched composed backend shares one per
// level copy and adversary profile) pay O(N) once and O(1) each. Because
// N-F > N/2, at most one value can reach N-F copies, so "z_{a[v]} >= N-F"
// becomes "a[v] is that value".
struct Tally {
  int phase = 0;             // index % 3
  bool has_major = false;    // some value (phase 0) / bucket (phase 1) has >= N-F entries
  std::uint64_t major = 0;   // that value, or its bucket min{a, C} (∞ -> C)
  std::uint64_t value = 0;   // phase 1: min{ j : z_j > F } (or ∞); phase 2: a[king]
};

// Builds the tally of received_a for instruction set I_{index}. `scratch`
// is a reusable zeroed counter buffer (grown to C+1, left zeroed).
Tally tally(const Params& p, int index, std::span<const std::uint64_t> received_a,
            std::vector<std::uint32_t>& scratch);

// step() from a tally: step_tallied(p, tally(p, index, received_a, s), own)
// equals step(p, index, v, own, received_a) in counting mode, for any own.
// Inline: the batched backend calls it once per node, level and round.
inline Registers step_tallied(const Params& p, const Tally& t, const Registers& own) noexcept {
  Registers out = own;
  switch (t.phase) {
    case 0:
      if (!t.has_major || own.a != t.major) out.a = kInfinity;
      break;
    case 1:
      out.d = t.has_major && std::min(own.a, p.C) == t.major;  // ∞'s bucket is C
      out.a = t.value;
      break;
    default:
      if (own.a == kInfinity || !own.d) out.a = std::min(p.C, t.value);
      out.d = true;
      break;
  }
  // increment: +1 mod C, no-op on ∞; divides only on the wrap.
  if (out.a != kInfinity) out.a = out.a + 1 < p.C ? out.a + 1 : (out.a + 1) % p.C;
  return out;
}

// Sampled variant for the pulling model (Section 5, Lemma 8): instead of all
// N values the node inspects M uniformly sampled a-registers (a multiset,
// sampled with repetition); the N−F threshold becomes "at least 2/3·M" and
// the F+1 threshold becomes "more than 1/3·M". The king's register is pulled
// directly (one extra message) and passed as `king_a`.
Registers step_sampled(const Params& p, int index, const Registers& own,
                       std::span<const std::uint64_t> sampled_a, std::uint64_t king_a);

// Encoding helpers: a-register <-> bit pattern of width a_bits(C).
// ∞ is encoded as the value C; arbitrary (Byzantine) bit patterns decode by
// clamping to [0, C], i.e. every pattern is a valid register value.
int a_bits(std::uint64_t C) noexcept;
std::uint64_t encode_a(std::uint64_t a, std::uint64_t C) noexcept;
std::uint64_t decode_a(std::uint64_t bits, std::uint64_t C) noexcept;

}  // namespace synccount::phaseking
