// Lane harness shared by the batched blocks (sim/batch_runner.cpp for flat
// tables, sim/composed_runner.cpp for boosted / pulling towers).
//
// A block advances one execution per lane. Everything about those lanes that
// does not depend on the block's state layout lives here: the fault-vector
// checks, the correct and faulty node ids, the stabilisation margin, one
// Rng, Adversary and StabilisationChecker per lane, the initial states
// (drawn exactly like the scalar runner's preamble), the adversary trait
// probe, each lane's adversary calls, the forged-profile geometry checks and
// the RunResult finish. The blocks own one Lanes each and keep only their
// layout-specific state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/batch_runner.hpp"
#include "sim/checker.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace synccount::sim::detail {

struct Lanes {
  // Per-lane state the round loop rarely touches.
  struct Cold {
    RunResult result;
    // Materialised BitVec states for adversary queries and recording; faulty
    // entries are fixed for the whole run, correct entries are refreshed
    // from the block's own representation on demand.
    std::vector<State> states;
    std::uint64_t total_pulls = 0;  // composed pulling levels only
    std::uint64_t pull_samples = 0;
  };

  Lanes(const BatchConfig& cfg, const CountingAlgorithm& algo,
        std::span<const std::uint64_t> seeds)
      : n(static_cast<std::size_t>(algo.num_nodes())),
        stop_after_stable(cfg.stop_after_stable) {
    std::vector<bool> faulty = cfg.faulty;
    if (faulty.empty()) faulty.assign(n, false);
    SC_CHECK(faulty.size() == n, "fault vector size mismatch");
    SC_CHECK(fault_count(faulty) <= algo.resilience(),
             "more faults than the algorithm's resilience");
    SC_CHECK(cfg.initial.empty() || cfg.initial.size() == n,
             "initial state vector size mismatch");
    faulty_ids = fault_ids(faulty);
    for (std::size_t i = 0; i < n; ++i) {
      if (!faulty[i]) correct.push_back(static_cast<NodeId>(i));
    }
    SC_CHECK(!correct.empty(), "all nodes faulty");
    margin = resolve_margin(cfg.margin, cfg.max_rounds, algo.modulus());

    // Lane setup mirrors the scalar runner's preamble draw for draw.
    rngs.reserve(seeds.size());
    advs.reserve(seeds.size());
    checkers.reserve(seeds.size());
    cold.resize(seeds.size());
    for (std::size_t l = 0; l < seeds.size(); ++l) {
      rngs.emplace_back(seeds[l]);
      advs.push_back(cfg.adversary());
      SC_CHECK(advs.back() != nullptr, "batch adversary factory returned null");
      checkers.emplace_back(algo.modulus());
      Cold& c = cold[l];
      c.result.correct_ids = correct;
      c.states.resize(n);
      if (!cfg.initial.empty()) {
        for (std::size_t i = 0; i < n; ++i) c.states[i] = algo.canonicalize(cfg.initial[i]);
      } else {
        for (auto& s : c.states) s = counting::arbitrary_state(algo, rngs[l]);
      }
    }
    // Skipping a no-op begin_round or re-forging an execution-constant
    // message has no observable effect, so these stay bit-identical to the
    // scalar runner while eliding most per-lane virtual dispatch.
    const Adversary& p = probe();
    faultless = faulty_ids.empty();
    state_oblivious = p.state_oblivious();
    passive_rounds = p.begin_round_passive();
    static_forge = !faultless && p.receiver_oblivious() && p.forgery_static();
  }

  // Every lane's adversary is the same class; the first answers trait queries.
  const Adversary& probe() const { return *advs.front(); }

  // Whether this round forges: never without faults, and for static forgers
  // only until the one-time pass has run (set static_forged after it).
  bool will_forge() const noexcept { return !faultless && !(static_forge && static_forged); }

  // Lane l's adversary calls, with that lane's materialised states, rng and
  // the block's id lists. A block refreshes cold[l].states first unless the
  // adversary is state-oblivious.
  void begin_round(std::size_t l, std::uint64_t round, const CountingAlgorithm& algo) {
    advs[l]->begin_round(round, cold[l].states, algo, faulty_ids, rngs[l]);
  }
  void forge_block(std::size_t l, std::uint64_t round, const CountingAlgorithm& algo,
                   ForgedRound& fr) {
    advs[l]->forge_block(round, cold[l].states, algo, faulty_ids, correct, rngs[l], fr);
  }
  State message(std::size_t l, std::uint64_t round, NodeId sender, NodeId receiver,
                const CountingAlgorithm& algo) {
    return advs[l]->message(round, sender, receiver, cold[l].states, algo, rngs[l]);
  }

  // Feeds lane l's round summary to its checker. Returns true when the lane
  // has now met stop_after_stable and leaves the block.
  bool observe(std::size_t l, bool agreed, std::uint64_t value) noexcept {
    checkers[l].observe_summary(agreed, value);
    return stop_after_stable > 0 && checkers[l].suffix_length() >= stop_after_stable;
  }

  // Validates a round's profile geometry before a block indexes its
  // per-profile storage with it: at least one profile, a receiver map that
  // is empty or covers all n nodes, and an in-range profile for every correct
  // receiver. A bad forge_block override fails here in every build type
  // instead of reading out of bounds.
  void check_profiles(const ForgedRound& fr) const {
    SC_REQUIRE(fr.num_profiles >= 1, "forge_block produced no profiles");
    if (fr.profile_of.empty()) return;
    SC_REQUIRE(fr.profile_of.size() == n, "forge_block profile map has wrong size");
    for (const NodeId i : correct) {
      SC_REQUIRE(fr.profile_of[static_cast<std::size_t>(i)] < fr.num_profiles,
                 "forge_block profile index out of range");
    }
  }

  // One lane's forge_block output against the round's first forging lane
  // (which may be `fr` itself): the geometry is lane-invariant by the
  // ForgedRound contract, and `states` must fill every (profile, sender) slot.
  void check_lane(const ForgedRound& fr, const ForgedRound& first) const {
    SC_REQUIRE(fr.num_profiles == first.num_profiles && fr.profile_of == first.profile_of,
               "forge_block profile geometry differs across lanes");
    SC_REQUIRE(fr.states.size() ==
                   static_cast<std::size_t>(fr.num_profiles) * faulty_ids.size(),
               "forge_block filled the wrong number of slots");
  }

  // The lanes' RunResults in lane order, from their checkers.
  std::vector<RunResult> finish() {
    std::vector<RunResult> out;
    out.reserve(cold.size());
    for (std::size_t l = 0; l < cold.size(); ++l) {
      RunResult& r = cold[l].result;
      const StabilisationChecker& ck = checkers[l];
      r.rounds = ck.rounds();
      r.stabilisation_round = ck.suffix_start();
      r.suffix_length = ck.suffix_length();
      r.max_window = ck.max_window();
      r.stabilised = r.suffix_length >= std::min<std::uint64_t>(margin, r.rounds);
      // Blocks that never pull leave avg/max at 0, exactly as the scalar
      // runner accounts them.
      if (cold[l].pull_samples > 0) {
        r.avg_pulls_per_round = static_cast<double>(cold[l].total_pulls) /
                                static_cast<double>(cold[l].pull_samples);
      }
      out.push_back(std::move(r));
    }
    return out;
  }

  const std::size_t n;
  const std::uint64_t stop_after_stable;
  std::vector<NodeId> correct;
  std::vector<NodeId> faulty_ids;
  std::uint64_t margin = 0;
  bool faultless = true;
  bool state_oblivious = false;
  bool passive_rounds = false;
  bool static_forge = false;
  bool static_forged = false;  // the one-time static forging pass has run

  // Hot per-lane state, parallel arrays indexed by lane.
  std::vector<util::Rng> rngs;
  std::vector<std::unique_ptr<Adversary>> advs;
  std::vector<StabilisationChecker> checkers;
  std::vector<Cold> cold;
};

}  // namespace synccount::sim::detail
