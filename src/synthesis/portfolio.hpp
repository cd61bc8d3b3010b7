// The parallel synthesis engine: portfolio CDCL + cube-and-conquer + an
// empirical 64-seed prefilter, with a hard determinism contract.
//
// Layering (synthesize_portfolio):
//   * The admissible-time sweep R = min_time..max_time stays sequential,
//     mirroring synthesize_incremental's semantics.
//   * Within one R the instance is split into 2^cube_depth cubes
//     (synthesis/cube.hpp); every (cube, config) pair of the K-config
//     portfolio races across a util::ThreadPool with first-winner-cancels
//     semantics: the first config to resolve a cube raises that cube's stop
//     flag (sat::Solver polls it and returns Result::kCancelled), and a SAT
//     cube cancels every higher-index cube outright (they can no longer win).
//   * The reported winner is timing-independent: the winning cube is the
//     LOWEST-index SAT cube (lower cubes always run to completion -- only
//     higher cubes are cancelled), and the winning model is re-derived by the
//     canonical priority scan solve_cube(), which tries configs in fixed
//     priority order with deterministic budgets. Cube verdicts themselves are
//     config-independent (SAT/UNSAT is a property of the formula; "unknown"
//     means every config exhausted its deterministic budget), so the whole
//     outcome -- verdict, winning cube, decoded table -- is bit-identical
//     across thread counts and across local-pool vs serve-worker execution.
//   * Decoded candidates pass a cheap empirical screen (sim::run_batch,
//     64 seeds, random + split adversaries over a fixed seed list)
//     before the exponential game-tree verifier; an empirically falsified
//     candidate is refuted back into the search as a blocking clause
//     (counterexample-guided refinement). The encoding is exact, so this is
//     defence in depth -- the refinement loop exists to catch encoder bugs
//     at batch-screen cost instead of letting them reach users.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "synthesis/cube.hpp"
#include "synthesis/synthesize.hpp"

namespace synccount::synthesis {

// The deterministic config family, in priority order. Index 0 is the
// canonical default (MiniSat-style: false phases, no random branching);
// further entries diversify seed, phase policy, random-branch frequency,
// restart scaling and activity decay. portfolio_configs(k) is a prefix of
// portfolio_configs(k') for k <= k', so growing the portfolio never changes
// what the canonical scan returns, only how fast the race resolves.
std::vector<sat::SolverConfig> portfolio_configs(int k);

enum class CubeVerdict { kSat, kUnsat, kUnknown };
const char* to_string(CubeVerdict v) noexcept;
CubeVerdict cube_verdict_from_string(const std::string& s);

struct CubeResult {
  CubeVerdict verdict = CubeVerdict::kUnknown;
  int config_index = -1;               // resolving config (priority order)
  bool globally_unsat = false;         // solver proved UNSAT sans assumptions
  std::uint64_t conflicts = 0;         // summed over the configs tried
  std::uint64_t decisions = 0;
  std::uint64_t restarts = 0;
  counting::TransitionTable table;     // decoded model when verdict == kSat
};

// The canonical per-cube protocol shared by serve workers and the local
// engine's winner re-derivation: configs tried strictly in priority order,
// each on a fresh solver with the same deterministic conflict budget; the
// first resolved verdict wins and (for SAT) its model is decoded. The
// optional `cached` callback lets the local engine reuse race-phase results
// (a cached entry must equal what the re-run would produce -- guaranteed,
// because each (cube, config, budget) solve is deterministic).
CubeResult solve_cube(
    const Encoder& enc, const SynthJobSpec& job, std::uint64_t cube_index,
    const std::function<const CubeResult*(int config)>& cached = nullptr);

// Convenience for serve workers: encode + solve one leased cube.
CubeResult solve_cube(const SynthJobSpec& job, std::uint64_t cube_index);

struct ParallelOptions {
  SynthesisOptions base;        // time sweep + per-config conflict budget
  int portfolio = 4;            // K diversified configs
  int cube_depth = 3;           // 2^d cubes per R (0 = portfolio-only)
  int threads = 0;              // pool width; 0 = hardware concurrency
  bool prefilter = true;        // empirical screen before the exact verifier
  int prefilter_seeds = 128;    // lanes per (adversary, placement) screen
  int max_refinements = 8;      // CEGAR blocking-clause rounds per R
};

struct ParallelOutcomeInfo {
  std::uint64_t cubes_sat = 0;
  std::uint64_t cubes_unsat = 0;
  std::uint64_t cubes_unknown = 0;
  std::uint64_t cubes_cancelled = 0;   // moot cubes skipped or interrupted
  std::uint64_t prefilter_runs = 0;    // candidate tables screened
  std::uint64_t prefilter_rejections = 0;  // empirically falsified candidates
  std::uint64_t winning_cube = 0;      // valid when found
  int winning_config = -1;             // valid when found
};

// Empirical candidate screen: runs the table under the random and split
// adversaries (spread + prefix placements, `seeds` fixed lanes each) on the
// batched backend and checks every lane stabilises within the claimed bound.
// Deterministic: fixed seed list, bit-identical backend. Returns true when
// the candidate survives.
bool prefilter_candidate(const counting::TransitionTable& table,
                         std::uint64_t claimed_time, int seeds);

// A clause forbidding exactly this table's (g, h) assignment, for
// counterexample-guided refinement.
std::vector<sat::ExtLit> blocking_clause_for(const Encoder& enc,
                                             const counting::TransitionTable& table);

// The parallel driver. Same contract as synthesize_incremental (found /
// budget_exhausted / UNSAT-proof semantics, per-R attempts in
// outcome.attempts), plus `info` diagnostics when non-null. The returned
// table is bit-identical for fixed (spec, options ex. threads) across any
// thread count, and matches what serve workers produce for the same
// SynthJobSpec -- see the determinism notes above.
SynthesisOutcome synthesize_portfolio(SynthesisSpec spec,
                                      const ParallelOptions& options,
                                      ParallelOutcomeInfo* info = nullptr);

}  // namespace synccount::synthesis
