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
                       std::span<const NodeId> correct_ids, std::span<util::Rng> rngs,
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
                       std::span<const NodeId> correct_ids, std::span<util::Rng> rngs,
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
  bool begin_round_passive() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "mirror"; }

 private:
  std::vector<NodeId> correct_;
};

class TargetedVoteAdversary final : public Adversary {
 public:
  void begin_round(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   util::Rng& rng) override;
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // message()'s random fallback only fires when pool_ is empty, which cannot
  // happen in a run (there is always at least one correct node to harvest).
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "targeted-vote"; }

 private:
  std::vector<State> pool_;  // plausible states harvested from correct nodes
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
  explicit LookaheadAdversary(int candidates = 4, int sample_receivers = 4);

  void begin_round(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   util::Rng& rng) override;
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  bool batchable() const noexcept override { return false; }
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
};

// Factory covering all strategies, keyed by name (for CLI-driven benches).
std::unique_ptr<Adversary> make_adversary(const std::string& name);

// Names accepted by make_adversary.
std::vector<std::string> adversary_names();

}  // namespace synccount::sim
