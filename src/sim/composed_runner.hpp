// Hierarchical batched execution of composed (boosted / pulling) counters.
//
// The paper's headline construction (Theorem 1) is not a flat transition
// table but a tower: per-block inner counters, derived leader pointers,
// majority votes and the phase-king instruction sets, stacked recursively on
// a trivial or computer-designed base. ComposedCompiledTable::compile walks
// such a tower (BoostedCounter / PullingBoostedCounter levels over a
// TrivialCounter or TableAlgorithm base) once and flattens every node state
// into a field vector -- the base state index plus one (a, d) phase-king
// register pair per level -- together with per-level stage metadata (block
// geometry, exact reciprocals of the vote-digit divisors, phase-king
// parameters).
//
// run_composed_batch then advances blocks of up to 64 executions (the
// engine narrows them so small groups keep every pool thread busy) in round
// lockstep on that representation. Each lane-round builds the received view
// once, with one vote-digit array per level (each node's block digit b and
// round digit r, computed once per correct sender and patched at the faulty
// slots), and rounds run in one of two modes:
//
//  * Profiled (the common case): the adversary's whole round is collected
//    up front through Adversary::forge_block as a few receiver profiles
//    plus a lane-invariant receiver-to-profile map, decomposed once per
//    (profile, sender) instead of re-decoding BitVecs at every level of
//    every receiver's transition. Each boosted level's votes and its
//    phase-king tally (phaseking::tally) are built once per (level copy,
//    profile), so a receiver's phaseking::step_tallied is O(1); pulling
//    levels sample the digit arrays and run the shared
//    phaseking::step_sampled glue per node -- zero per-round heap
//    allocation. A table base is stepped per lane and node through the
//    shared CompiledTable::next.
//
//  * Interleaved (fresh-sampling pulling towers under adversaries whose
//    message() draws randomness): forging stays interleaved with the
//    per-receiver transitions, preserving the scalar draw order exactly,
//    with votes and tallies memoised per copy on the forged fields they
//    read.
//
// Per-lane Rng and Adversary instances (the lane harness, sim/lanes.hpp) are
// invoked in exactly the scalar runner's call order in both modes, so every
// lane's RunResult is bit-identical to run_execution on the same seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "counting/table_algorithm.hpp"
#include "phaseking/phase_king.hpp"
#include "sim/batch_runner.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace synccount::sim {

// One boosting level of the tower, bottom-up: level 0 sits directly on the
// base. A level with n nodes per copy runs N / n independent copies; copy c
// covers the contiguous global nodes [c*n, (c+1)*n).
struct ComposedLevel {
  enum class Kind { kBoosted, kPulling };
  Kind kind = Kind::kBoosted;

  int n = 0;        // nodes of one copy of this level
  int copies = 0;   // N / n
  int n_inner = 0;  // block size = nodes of one copy of the level below
  int k = 0;        // blocks per copy
  int m = 0;        // ceil(k/2)
  int tau = 0;      // 3(F+2)
  std::uint64_t C = 0;  // output modulus of this level
  phaseking::Params pk;

  // Vote digits (paper step 3) of an inner output `out` received from
  // global node u, whose block within its copy is blk: the round digit
  // out mod τ and the block digit floor(out / (τ(2m)^blk)) mod m. These
  // equal the construction's digits of out mod τ(2m)^(blk+1), because τ
  // and τ(2m)^blk·m divide that modulus. Divisions go through exact
  // reciprocals, so the vote path issues no hardware divide.
  std::vector<std::uint32_t> copy_of;    // [global node] -> its copy
  std::vector<std::uint32_t> block_of;   // [global node] -> blk
  std::vector<util::Divisor> block_div;  // [blk] -> τ(2m)^blk
  util::Divisor tau_div;
  util::Divisor m_div;
  std::uint64_t round_digit(std::uint64_t out) const noexcept { return tau_div.mod(out); }
  std::uint64_t block_digit(int u, std::uint64_t out) const noexcept {
    return m_div.mod(block_div[block_of[static_cast<std::size_t>(u)]].div(out));
  }

  // Bit layout of this level's registers in the flat node state.
  int a_offset = 0;  // == state_bits of the level below
  int a_bits = 0;

  // Pulling levels only (Section 5).
  int sample_size = 0;
  bool fixed_sampling = false;      // SamplingMode::kFixed
  std::uint64_t sampling_seed = 0;  // per-node stream base for kFixed
  util::BoundedDraw pick_in_block{0};  // next_below(n_inner)
  util::BoundedDraw pick_in_copy{0};   // next_below(n)
};

struct ComposedBase {
  enum class Kind { kTrivial, kTable };
  Kind kind = Kind::kTrivial;

  int n = 0;                     // nodes per base copy (1 for trivial)
  int copies = 0;
  std::uint64_t num_states = 0;  // canonical index bound: c or |X|
  int bits = 0;                  // base field width in the state layout
  // kTable: the shared flat kernel (owned by the algorithm, kept alive
  // through ComposedCompiledTable::algo), and each global node's index
  // within its base copy.
  const counting::CompiledTable* table = nullptr;
  std::vector<std::uint8_t> slot;
};

// The compiled hierarchy. Immutable after compile; safe to share across
// threads and lanes.
struct ComposedCompiledTable {
  counting::AlgorithmPtr algo;        // keep-alive for base/table/inner refs
  ComposedBase base;
  std::vector<ComposedLevel> levels;  // bottom-up; back() is the top level
  int N = 0;                          // top-level node count
  int state_bits = 0;
  std::uint64_t modulus = 0;          // top-level C

  // nullptr when `algo` is not a supported composition (at least one
  // boosted/pulling level over a trivial or table base).
  static std::shared_ptr<const ComposedCompiledTable> compile(
      const counting::AlgorithmPtr& algo);
};

// Runs seeds.size() executions of the composed algorithm (internally in
// blocks of at most 64 lanes; the engine passes one block's worth per
// call) and returns their RunResults in seed order;
// result[i] is bit-identical to run_execution with seed cfg.seeds[i] and the
// same margin. Called through run_batch, which owns the backend dispatch.
std::vector<RunResult> run_composed_batch(const BatchConfig& cfg,
                                          const ComposedCompiledTable& cc);

}  // namespace synccount::sim
