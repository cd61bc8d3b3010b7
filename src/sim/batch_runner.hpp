// Batched execution backends.
//
// run_batch advances independent executions of the same (algorithm, fault
// placement, adversary class) cell-group in lockstep, one round at a time,
// and dispatches on the algorithm's structure:
//
//  * TableAlgorithm -- the bit-parallel path. States live in a
//    canonical-index representation instead of BitVecs, in blocks of 512
//    executions ("lanes"). The kernel follows from the table alone: for
//    num_states <= 4 a bit-sliced layout packs one state-bitplane of the
//    block into 8 x uint64_t (auto-vectorised word loops), so one
//    enumeration pass over the compiled table advances all 512 lanes;
//    larger tables use a structure-of-arrays byte layout. A short final
//    block runs with its spare lanes inactive.
//  * BoostedCounter / PullingBoostedCounter towers -- the composed path
//    (sim/composed_runner.hpp). Each boosting level is compiled into field
//    stages (base kernel, per-copy votes, phase-king glue) evaluated on a
//    decomposed per-node field vector, with one vote-digit array per
//    received view and votes and phase-king tallies shared per (level copy,
//    adversary profile).
//
// Forged messages are produced per round through the adversary's bulk entry
// points (Adversary::forge_lanes_idx for a whole block, else
// Adversary::forge_block per lane): a handful of receiver *profiles* plus a
// lane-invariant receiver-to-profile map, so the kernels build equality
// planes / byte rows once per (profile, sender) instead of once per
// receiver. Adversaries that read states (mirror, targeted-vote) get the
// block's round-start state indices as a node-major [node * lanes + lane]
// view -- the SoA rows themselves, or the bitplanes expanded to bytes once
// per round -- so the index path needs no per-lane State vectors.
//
// Per-execution randomness (initial states, adversary draws) always flows
// through one Rng and one Adversary instance per lane (sim/lanes.hpp),
// invoked in exactly the scalar runner's call order, so every lane's
// RunResult is bit-identical to run_execution on the same seed -- the engine
// can mix backends freely without changing any aggregate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "counting/table_algorithm.hpp"
#include "sim/adversary.hpp"
#include "sim/runner.hpp"

namespace synccount::sim {

// Plane words per block on the TableAlgorithm path: every bitplane is 8 x
// uint64_t, so a table block holds 512 lanes. The width never changes
// results, only how many executions one table pass advances.
constexpr int default_batch_words() noexcept { return 8; }

struct ComposedCompiledTable;

struct BatchConfig {
  // A TableAlgorithm, or a BoostedCounter / PullingBoostedCounter tower over
  // a trivial or table base (see ComposedCompiledTable::compile).
  counting::AlgorithmPtr algo;

  // Optional: the pre-compiled hierarchy of `algo` (must have been produced
  // by ComposedCompiledTable::compile(algo)). The engine compiles once per
  // experiment and shares it across all chunk tasks; when absent, run_batch
  // compiles on demand.
  std::shared_ptr<const ComposedCompiledTable> composed;
  std::vector<bool> faulty;          // size n; empty means no faults
  std::uint64_t max_rounds = 1000;
  std::uint64_t margin = 0;          // 0 = resolve_margin default
  std::uint64_t stop_after_stable = 0;
  bool record_outputs = false;
  bool record_states = false;
  std::vector<State> initial;        // non-empty: fixed initial states

  // Builds the adversary for one lane; called once per lane in lane order
  // (mirroring the scalar engine, which builds one adversary per cell).
  std::function<std::unique_ptr<Adversary>()> adversary;

  std::vector<std::uint64_t> seeds;  // one execution lane per seed
};

// Runs seeds.size() executions (internally in blocks of 512 lanes for tables,
// at most 64 for towers; the engine narrows tower tasks further) and returns
// their RunResults in seed order; result[i] is bit-identical to
// run_execution with seed seeds[i] and the same margin.
std::vector<RunResult> run_batch(const BatchConfig& cfg);

}  // namespace synccount::sim
