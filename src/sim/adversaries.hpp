// A library of Byzantine strategies used for failure injection in tests and
// for the adversary-ablation bench (experiment E10).
//
//  * SilentAdversary      -- always sends the all-zero state (crash-like).
//  * EchoAdversary        -- follows the protocol faithfully (benign fault;
//                            useful as a sanity baseline).
//  * RandomAdversary      -- fresh uniformly random state per (receiver, round).
//  * SplitAdversary       -- picks two random states per round and sends one to
//                            even receivers, the other to odd receivers
//                            (classic equivocation to split majorities).
//  * MirrorAdversary      -- echoes the state of a rotating *correct* node,
//                            maximising confusion with plausible states.
//  * TargetedVoteAdversary-- crafts states that vote for conflicting leader
//                            blocks / phase-king values per receiver half by
//                            permuting received correct states.
//  * LookaheadAdversary   -- 1-round lookahead: simulates K candidate message
//                            profiles and commits to the one minimising
//                            agreement among correct nodes.
//
// Every strategy but the execution-constant silent and echo also forges a
// flat table block's whole round in one forge_lanes_idx call; mirror,
// targeted-vote and lookahead read the block's node-major state-index view
// (states_idx[node * lanes + lane]) instead of per-lane State vectors.
#pragma once

#include <memory>
#include <vector>

#include "sim/adversary.hpp"

namespace synccount::sim {

class SilentAdversary final : public Adversary {
 public:
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  bool receiver_oblivious() const noexcept override { return true; }
  bool state_oblivious() const noexcept override { return true; }
  bool begin_round_passive() const noexcept override { return true; }
  bool forgery_static() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "silent"; }
};

class EchoAdversary final : public Adversary {
 public:
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  bool receiver_oblivious() const noexcept override { return true; }
  // Reads only the (faulty) sender's own nominal state, which is fixed.
  bool state_oblivious() const noexcept override { return true; }
  bool begin_round_passive() const noexcept override { return true; }
  bool forgery_static() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "echo"; }
};

class RandomAdversary final : public Adversary {
 public:
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // Draws the same bit chunks as message() but keeps the raw pattern: the
  // batched consumers reduce it identically to canonicalize, so the per-query
  // canonical decode drops off the hot path.
  void forge_block(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   std::span<const NodeId> correct_ids, util::Rng& rng,
                   ForgedRound& out) override;
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids,
                       std::span<const std::uint8_t> states_idx, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  bool state_oblivious() const noexcept override { return true; }
  bool begin_round_passive() const noexcept override { return true; }
  std::string name() const override { return "random"; }

 private:
  IdxGuard ig_;
};

class SplitAdversary final : public Adversary {
 public:
  void begin_round(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   util::Rng& rng) override;
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // Two profiles (receiver parity), so the batched backends canonicalise and
  // vote twice per round instead of once per correct receiver.
  void forge_block(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   std::span<const NodeId> correct_ids, util::Rng& rng,
                   ForgedRound& out) override;
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids,
                       std::span<const std::uint8_t> states_idx, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  bool state_oblivious() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "split"; }

 private:
  State even_;
  State odd_;
  IdxGuard ig_;
};

class MirrorAdversary final : public Adversary {
 public:
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // Copies each (receiver, sender) slot's victim row of the state view;
  // draws nothing.
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids,
                       std::span<const std::uint8_t> states_idx, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  bool begin_round_passive() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "mirror"; }

 private:
  IdxGuard ig_;
};

class TargetedVoteAdversary final : public Adversary {
 public:
  void begin_round(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   util::Rng& rng) override;
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // Shuffles a permutation of the correct-node positions per lane instead of
  // the harvested states: std::shuffle's draws depend only on the range
  // length and the rng, so the lane's stream matches begin_round's.
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids,
                       std::span<const std::uint8_t> states_idx, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  // message()'s random fallback only fires when pool_ is empty, which cannot
  // happen in a run (there is always at least one correct node to harvest).
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "targeted-vote"; }

 private:
  std::vector<State> pool_;  // plausible states harvested from correct nodes
  IdxGuard ig_;
  std::vector<std::uint32_t> perm_;    // forge_lanes_idx: one lane's shuffled pool order
  std::vector<std::uint32_t> pick_;    // forge_lanes_idx: [correct j] -> pool position
};

class LookaheadAdversary final : public Adversary {
 public:
  // candidates: number of random message profiles evaluated per round.
  // sample_receivers: how many correct receivers each candidate is scored
  // against. Scoring used to simulate every (candidate, correct receiver)
  // pair, which made this adversary dominate experiment wall time; bounding
  // the score to a fixed receiver sample and seeding the search with the
  // previous round's winning profile keeps the attack quality while making
  // the per-round cost O(candidates * sample) instead of O(candidates * n).
  //
  // On a flat table the search runs for a whole block in forge_lanes_idx:
  // candidates are profiles of canonical indices and each is scored with
  // CompiledTable lookups. Towers search per lane through begin_round.
  explicit LookaheadAdversary(int candidates = 4, int sample_receivers = 4);

  void begin_round(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   util::Rng& rng) override;
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // begin_round's search for every active lane, drawing each lane's
  // candidates from its own rng in begin_round's order. Each lane's
  // incumbent lives here, keyed by lane. Declines on a non-table algorithm.
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids,
                       std::span<const std::uint8_t> states_idx, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  // message() replays the profile chosen in begin_round(); its random
  // fallback only fires for non-faulty senders, which the runners never ask
  // about.
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "lookahead"; }

 private:
  int candidates_;
  int sample_receivers_;
  std::vector<NodeId> faulty_;
  std::vector<NodeId> sampled_;  // receiver subset candidates are scored on
  // chosen_[s * n + r] = message of faulty node faulty_[s] to receiver r.
  std::vector<State> chosen_;
  std::vector<State> cached_;  // last round's winner, re-scored as candidate 0
  int n_ = 0;

  // forge_lanes_idx: each lane's incumbent in chosen_'s layout as canonical
  // indices ([lane * |faulty| * n + s * n + r]) and whether it has one yet,
  // plus one lane's scratch.
  IdxGuard ig_;
  std::vector<std::uint8_t> lane_best_;
  std::vector<std::uint8_t> lane_has_best_;
  std::vector<std::uint8_t> cand_;      // one candidate profile
  std::vector<std::uint8_t> col_;       // [node] the lane's state indices
  std::vector<std::uint64_t> fstride_;  // [sample t * |faulty| + k] g stride
  std::vector<std::uint64_t> base_;     // [sample t] correct senders' g part
  std::vector<std::uint64_t> outs_;     // [sample t] output after the round
};

// Factory covering all strategies, keyed by name (for CLI-driven benches).
std::unique_ptr<Adversary> make_adversary(const std::string& name);

// Names accepted by make_adversary.
std::vector<std::string> adversary_names();

}  // namespace synccount::sim
