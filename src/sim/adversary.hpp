// Byzantine adversary interface for the broadcast model (paper, Section 2).
//
// In every round, each faulty node may send a *different* state to every
// receiver ("including to send different messages to every node"). The
// simulator asks the adversary for the message of each (faulty sender,
// receiver) pair; whatever bit pattern it returns is canonicalised into a
// valid state before delivery, which exactly matches the model where
// Byzantine nodes send arbitrary elements of X.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "counting/algorithm.hpp"

namespace synccount::sim {

using counting::CountingAlgorithm;
using counting::NodeId;
using counting::State;

// One round's worth of forged messages, produced in bulk for the batched
// backends by Adversary::forge_block (Adversary::forge_lanes_idx fills only
// the geometry and writes the states as indices). Rather than one state per
// (sender, receiver) pair, the round is described as `num_profiles` distinct
// receiver views plus a map from receiver to profile: structured equivocators
// send very few distinct values per round (split: two), so the backends
// canonicalise, decompose and vote per *profile* instead of per receiver.
//
// Contract:
//  * states[p * num_faulty + k] is the (possibly raw, uncanonicalised) state
//    profile p receives from faulty sender faulty_ids[k]. Raw patterns are
//    allowed because every consumer reduces them exactly like canonicalize
//    (see the decompose-raw note in composed_runner.cpp).
//  * profile_of[receiver] names the profile each receiver observes; an empty
//    vector means every receiver sees profile 0. Only correct receivers'
//    entries are read.
//  * profile_of must be a pure function of (round, faulty_ids, n) -- never of
//    the rng or the states -- so that all lanes of a batch block share one
//    receiver-to-profile map per round. The batched runners check this, and
//    the map's size and range, in every build type (sim/lanes.hpp).
struct ForgedRound {
  int num_profiles = 0;
  std::vector<State> states;
  std::vector<std::uint16_t> profile_of;
};

class Adversary {
 public:
  virtual ~Adversary() = default;
  Adversary(const Adversary&) = delete;
  Adversary& operator=(const Adversary&) = delete;

  // Called at the start of a round, before any message is queried.
  // `true_states` holds the round-start states of all nodes (faulty nodes
  // carry a nominal state that only the adversary observes/uses). Strategies
  // that plan a whole round at once (e.g. lookahead search) do their work
  // here. The scalar runner calls it every round. The batched backends skip
  // it in rounds where it cannot be observed: when it is passive (see
  // begin_round_passive), and in fault-free blocks whose transitions draw
  // nothing from the lane's rng (flat tables, towers without a
  // fresh-sampling pulling level) -- no message is forged there and nothing
  // reads the rng afterwards. Its draws and its effect on the adversary's
  // own state must therefore matter only through message().
  virtual void begin_round(std::uint64_t round, std::span<const State> true_states,
                           const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                           util::Rng& rng);

  // The state that faulty node `sender` sends to `receiver` this round.
  virtual State message(std::uint64_t round, NodeId sender, NodeId receiver,
                        std::span<const State> true_states, const CountingAlgorithm& algo,
                        util::Rng& rng) = 0;

  // Batched entry point: performs this round's *entire* adversary work --
  // begin_round plus every message query -- and writes the forged messages
  // into `out` as receiver profiles (see ForgedRound). The default
  // implementation delegates to begin_round()/message() in exactly the scalar
  // runner's call order (one query per faulty sender when receiver_oblivious,
  // else the nested (correct receiver, faulty sender) loop), so any adversary
  // runs on the batched backends out of the box; strategies with structure override
  // it to emit few profiles and skip the per-receiver virtual dispatch.
  // Overrides must draw from `rng` in exactly the order the scalar path
  // would, so lanes stay bit-identical to run_execution.
  virtual void forge_block(std::uint64_t round, std::span<const State> true_states,
                           const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                           std::span<const NodeId> correct_ids, util::Rng& rng,
                           ForgedRound& out);

  // Lane-batched index forging: one call forges the whole round for every
  // lane whose bit is set in `active` (word w bit b = lane 64w + b; lane
  // count L = rngs.size()), amortising the virtual dispatch and keeping the
  // draw loop hot. For each active lane l it must draw from rngs[l] exactly
  // as forge_block would for that lane (lanes are independent rng streams,
  // so cross-lane order is free) and write the canonical indices slot-major:
  // out_idx[(p * |faulty_ids| + k) * L + l]. Inactive lanes' entries may be
  // written too; no consumer reads them. The lane-invariant profile geometry
  // (num_profiles, profile_of) is written to `out`; out.states is not
  // touched. With faulty_ids empty there is no slot to write, and the call
  // makes only each active lane's begin_round draws. correct_ids is the
  // ascending complement of faulty_ids.
  //
  // `states_idx` is a read-only view of the block's round-start canonical
  // state indices, node-major: states_idx[node * L + lane] for all n nodes,
  // faulty rows holding their fixed nominal index. It is the index form of
  // forge_block's true_states, so state-reading strategies (mirror,
  // targeted-vote) implement this path too. The batched runner passes it
  // only to adversaries that are not state_oblivious(); state-oblivious
  // ones get an empty span, and a state-reading override must decline on
  // one. The call goes to one lane's instance on behalf of all of them, so
  // per-lane adversary state that outlives a round (lookahead's incumbent
  // profile) lives in the called instance, indexed by lane; the batched
  // runner always calls advs.front().
  //
  // Returns false when the strategy or algorithm does not admit the path
  // (canonical indices need |X| <= 256 and state_bits <= 64). A false
  // return must leave every rng untouched (the caller re-forges every lane
  // through forge_block for the rest of the block), so an override may
  // decline only on its first call in a block. The default returns false.
  virtual bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                               std::span<const NodeId> faulty_ids,
                               std::span<const NodeId> correct_ids,
                               std::span<const std::uint8_t> states_idx,
                               std::span<util::Rng> rngs,
                               std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                               ForgedRound& out);

  // Return true iff message() is independent of `receiver` AND draws nothing
  // from the rng, i.e. within one round every receiver gets the same state
  // from a given sender and querying once has no side effects. The runner
  // then asks each faulty sender once per round and fans the answer out,
  // hoisting the per-receiver forge-and-canonicalize work off the hot path
  // without changing the execution (bit-for-bit, including rng streams).
  virtual bool receiver_oblivious() const noexcept { return false; }

  // Return true iff begin_round()/message() never read the states of
  // *correct* nodes from `true_states` (reading faulty nodes' entries is
  // fine: their nominal states are fixed for the whole execution). The
  // batched backend (sim/batch_runner.hpp) keeps states in an index
  // representation and only materialises the BitVec state vector for
  // adversaries that actually look at it.
  virtual bool state_oblivious() const noexcept { return false; }

  // Return true iff begin_round() is a no-op (the base implementation):
  // neither draws randomness nor mutates adversary state. Skipping a no-op
  // call is unobservable, so the batched backend elides the per-lane virtual
  // dispatch. Strategies that override begin_round() with real work must
  // leave this false.
  virtual bool begin_round_passive() const noexcept { return false; }

  // Return true iff, within one execution, message() returns the same value
  // for a fixed faulty sender across all rounds and receivers and draws no
  // randomness (e.g. silent's constant zero state, echo's replay of the
  // sender's fixed nominal state). The batched backend then forges once per
  // (lane, sender) for the whole execution.
  virtual bool forgery_static() const noexcept { return false; }

  // Return true iff message() never draws from the rng (begin_round may).
  // Forging then contributes nothing to the lane's rng stream, so the
  // composed batch runner may hoist all of a round's forging ahead of the
  // transitions even when the tower itself draws randomness (fresh-sampling
  // pulling levels) without perturbing the draw order.
  virtual bool message_draw_free() const noexcept { return false; }

  virtual std::string name() const = 0;

 protected:
  Adversary() = default;

  // Cached forge_lanes_idx admission check, keyed by the algorithm instance
  // so the per-round fast path costs one pointer compare instead of two
  // virtual queries. Overriders keep one of these per adversary; the batched
  // runners hold the algorithm alive for the whole run, so the key cannot
  // dangle mid-batch.
  struct IdxGuard {
    const CountingAlgorithm* algo = nullptr;
    bool ok = false;           // index path admissible for this algorithm
    std::uint32_t ns = 0;      // |X|
    std::uint64_t mask = 0;    // (1 << state_bits) - 1
    int bits = 0;              // state_bits
  };

  // Refreshes `g` if `algo` changed; returns g.ok. Admissible iff the state
  // space is enumerable with |X| <= 256 and state_bits <= 64: one raw draw
  // chunk per state, so a uniform index is one next_u64() reduced like the
  // table consumers reduce a raw pattern -- low `bits` bits, then mod |X| --
  // and the idx path's rng sequence matches raw_random_state's.
  static bool idx_guard(IdxGuard& g, const CountingAlgorithm& algo);
};

}  // namespace synccount::sim
