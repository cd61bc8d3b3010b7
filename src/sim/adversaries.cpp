#include "sim/adversaries.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace synccount::sim {

namespace {

State random_state(const CountingAlgorithm& algo, util::Rng& rng) {
  return counting::arbitrary_state(algo, rng);
}

// Draws exactly the bit chunks of counting::arbitrary_state but skips the
// canonical decode. Every consumer reduces a raw pattern identically to
// canonicalize (the scalar runner canonicalises delivered messages itself;
// the batched runners reduce raw fields directly), so a strategy may hand
// out raw states as long as the rng draw sequence is unchanged -- which it
// is, canonicalize being draw-free.
State raw_random_state(const CountingAlgorithm& algo, util::Rng& rng) {
  State raw;
  const int bits = algo.state_bits();
  for (int off = 0; off < bits; off += 64) {
    raw.set_bits(off, std::min(64, bits - off), rng.next_u64());
  }
  return raw;
}

// Measures how "agreed" a set of outputs is: the count of the most common
// output value. Lower is worse for the system, so the lookahead adversary
// minimises this.
int agreement_score(std::span<const std::uint64_t> outs) {
  int best = 0;
  for (std::size_t a = 0; a < outs.size(); ++a) {
    int cnt = 0;
    for (std::size_t b = 0; b < outs.size(); ++b) {
      if (outs[b] == outs[a]) ++cnt;
    }
    best = std::max(best, cnt);
  }
  return best;
}

}  // namespace

State SilentAdversary::message(std::uint64_t, NodeId, NodeId, std::span<const State>,
                               const CountingAlgorithm& algo, util::Rng&) {
  return algo.canonicalize(State{});
}

State EchoAdversary::message(std::uint64_t, NodeId sender, NodeId, std::span<const State> states,
                             const CountingAlgorithm&, util::Rng&) {
  return states[static_cast<std::size_t>(sender)];
}

State RandomAdversary::message(std::uint64_t, NodeId, NodeId, std::span<const State>,
                               const CountingAlgorithm& algo, util::Rng& rng) {
  return random_state(algo, rng);
}

void SplitAdversary::begin_round(std::uint64_t, std::span<const State>,
                                 const CountingAlgorithm& algo, std::span<const NodeId>,
                                 util::Rng& rng) {
  even_ = raw_random_state(algo, rng);
  odd_ = raw_random_state(algo, rng);
}

State SplitAdversary::message(std::uint64_t, NodeId, NodeId receiver, std::span<const State>,
                              const CountingAlgorithm&, util::Rng&) {
  return receiver % 2 == 0 ? even_ : odd_;
}

void SplitAdversary::forge_block(std::uint64_t round, std::span<const State> true_states,
                                 const CountingAlgorithm& algo,
                                 std::span<const NodeId> faulty_ids,
                                 std::span<const NodeId> /*correct_ids*/, util::Rng& rng,
                                 ForgedRound& out) {
  begin_round(round, true_states, algo, faulty_ids, rng);
  const std::size_t nf = faulty_ids.size();
  out.num_profiles = 2;
  out.states.resize(2 * nf);
  for (std::size_t k = 0; k < nf; ++k) {
    out.states[k] = even_;
    out.states[nf + k] = odd_;
  }
  // The parity map never changes, so fill it only when the size does.
  if (out.profile_of.size() != true_states.size()) {
    out.profile_of.resize(true_states.size());
    for (std::size_t r = 0; r < out.profile_of.size(); ++r) {
      out.profile_of[r] = static_cast<std::uint16_t>(r & 1);
    }
  }
}

void RandomAdversary::forge_block(std::uint64_t, std::span<const State> true_states,
                                  const CountingAlgorithm& algo,
                                  std::span<const NodeId> faulty_ids,
                                  std::span<const NodeId> correct_ids, util::Rng& rng,
                                  ForgedRound& out) {
  // begin_round is passive; the draws happen per (receiver, sender) in the
  // scalar runner's nested query order.
  const std::size_t nf = faulty_ids.size();
  out.num_profiles = static_cast<int>(correct_ids.size());
  out.states.resize(correct_ids.size() * nf);
  out.profile_of.assign(true_states.size(), 0);
  for (std::size_t j = 0; j < correct_ids.size(); ++j) {
    out.profile_of[static_cast<std::size_t>(correct_ids[j])] = static_cast<std::uint16_t>(j);
    for (std::size_t k = 0; k < nf; ++k) {
      out.states[j * nf + k] = raw_random_state(algo, rng);
    }
  }
}

bool SplitAdversary::forge_lanes_idx(std::uint64_t /*round*/, const CountingAlgorithm& algo,
                                     std::span<const NodeId> faulty_ids,
                                     std::span<const NodeId> correct_ids,
                                     std::span<util::Rng> rngs,
                                     std::span<const std::uint64_t> active,
                                     std::uint8_t* out_idx, ForgedRound& out) {
  if (!idx_guard(ig_, algo)) return false;
  const std::size_t nf = faulty_ids.size();
  const std::size_t L = rngs.size();
  const std::size_t n = faulty_ids.size() + correct_ids.size();
  out.num_profiles = 2;
  if (out.profile_of.size() != n) {
    out.profile_of.resize(n);
    for (std::size_t r = 0; r < n; ++r) out.profile_of[r] = static_cast<std::uint16_t>(r & 1);
  }
  if (ig_.bits == 0) {
    std::fill(out_idx, out_idx + 2 * nf * L, std::uint8_t{0});
    return true;
  }
  const std::uint64_t mask = ig_.mask;
  const std::uint64_t ns = ig_.ns;
  for (std::size_t w = 0; w < active.size(); ++w) {
    for (std::uint64_t m = active[w]; m; m &= m - 1) {
      const std::size_t l = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      util::Rng& rng = rngs[l];
      // Same two draws as begin_round: even receivers' value, then odd's.
      // The reductions are branchless -- a data-dependent branch here
      // mispredicts on every non-power-of-two |X|.
      std::uint64_t even = rng.next_u64() & mask;
      even -= ns & -static_cast<std::uint64_t>(even >= ns);
      std::uint64_t odd = rng.next_u64() & mask;
      odd -= ns & -static_cast<std::uint64_t>(odd >= ns);
      for (std::size_t k = 0; k < nf; ++k) {
        out_idx[k * L + l] = static_cast<std::uint8_t>(even);
        out_idx[(nf + k) * L + l] = static_cast<std::uint8_t>(odd);
      }
    }
  }
  return true;
}

bool RandomAdversary::forge_lanes_idx(std::uint64_t /*round*/, const CountingAlgorithm& algo,
                                      std::span<const NodeId> faulty_ids,
                                      std::span<const NodeId> correct_ids,
                                      std::span<util::Rng> rngs,
                                      std::span<const std::uint64_t> active,
                                      std::uint8_t* out_idx, ForgedRound& out) {
  if (!idx_guard(ig_, algo)) return false;
  const std::size_t nf = faulty_ids.size();
  const std::size_t L = rngs.size();
  const std::size_t slots = correct_ids.size() * nf;
  const std::size_t n = faulty_ids.size() + correct_ids.size();
  out.num_profiles = static_cast<int>(correct_ids.size());
  if (out.profile_of.size() != n) {
    out.profile_of.assign(n, 0);
    for (std::size_t j = 0; j < correct_ids.size(); ++j) {
      out.profile_of[static_cast<std::size_t>(correct_ids[j])] = static_cast<std::uint16_t>(j);
    }
  }
  if (ig_.bits == 0) {
    std::fill(out_idx, out_idx + slots * L, std::uint8_t{0});
    return true;
  }
  const std::uint64_t mask = ig_.mask;
  const std::uint64_t ns = ig_.ns;
  for (std::size_t w = 0; w < active.size(); ++w) {
    for (std::uint64_t m = active[w]; m; m &= m - 1) {
      const std::size_t l = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      util::Rng& rng = rngs[l];
      // Scalar draw order: nested (correct receiver, faulty sender).
      // Branchless reduction -- a data-dependent branch mispredicts on every
      // non-power-of-two |X|.
      for (std::size_t s = 0; s < slots; ++s) {
        std::uint64_t v = rng.next_u64() & mask;
        v -= ns & -static_cast<std::uint64_t>(v >= ns);
        out_idx[s * L + l] = static_cast<std::uint8_t>(v);
      }
    }
  }
  return true;
}

State MirrorAdversary::message(std::uint64_t round, NodeId sender, NodeId receiver,
                               std::span<const State> states, const CountingAlgorithm&,
                               util::Rng&) {
  // Echo the round-start state of a rotating peer: a plausible, protocol-
  // consistent value that nevertheless differs per receiver.
  const auto n = static_cast<NodeId>(states.size());
  NodeId victim = static_cast<NodeId>((receiver + round) % static_cast<std::uint64_t>(n));
  if (victim == sender) victim = (victim + 1) % n;
  return states[static_cast<std::size_t>(victim)];
}

void TargetedVoteAdversary::begin_round(std::uint64_t, std::span<const State> states,
                                        const CountingAlgorithm&,
                                        std::span<const NodeId> faulty_ids, util::Rng& rng) {
  // Harvest the correct nodes' states; they encode valid leader pointers and
  // phase-king registers, so replaying them to the "wrong" receivers attacks
  // the majority votes with plausible values.
  pool_.clear();
  for (NodeId i = 0; i < static_cast<NodeId>(states.size()); ++i) {
    if (std::find(faulty_ids.begin(), faulty_ids.end(), i) == faulty_ids.end()) {
      pool_.push_back(states[static_cast<std::size_t>(i)]);
    }
  }
  // Shuffle so different rounds pair receivers with different votes.
  std::shuffle(pool_.begin(), pool_.end(), rng);
}

State TargetedVoteAdversary::message(std::uint64_t, NodeId sender, NodeId receiver,
                                     std::span<const State>, const CountingAlgorithm& algo,
                                     util::Rng& rng) {
  if (pool_.empty()) return random_state(algo, rng);
  // Receiver halves get states from opposite ends of the shuffled pool.
  const std::size_t half = pool_.size() / 2;
  const std::size_t idx =
      (receiver % 2 == 0) ? (static_cast<std::size_t>(receiver) / 2) % std::max<std::size_t>(half, 1)
                          : half + (static_cast<std::size_t>(receiver) / 2) %
                                       std::max<std::size_t>(pool_.size() - half, 1);
  (void)sender;
  return pool_[std::min(idx, pool_.size() - 1)];
}

LookaheadAdversary::LookaheadAdversary(int candidates, int sample_receivers)
    : candidates_(candidates), sample_receivers_(sample_receivers) {
  SC_CHECK(candidates >= 1, "need at least one candidate profile");
  SC_CHECK(sample_receivers >= 1, "need at least one sampled receiver");
}

void LookaheadAdversary::begin_round(std::uint64_t, std::span<const State> states,
                                     const CountingAlgorithm& algo,
                                     std::span<const NodeId> faulty_ids, util::Rng& rng) {
  n_ = static_cast<int>(states.size());
  faulty_.assign(faulty_ids.begin(), faulty_ids.end());
  const std::size_t profile_size = faulty_.size() * static_cast<std::size_t>(n_);

  // The receiver sample candidates are scored against: an even stride over
  // the correct nodes (deterministic, so it costs no rng draws).
  std::vector<NodeId> correct;
  for (NodeId i = 0; i < n_; ++i) {
    if (std::find(faulty_.begin(), faulty_.end(), i) == faulty_.end()) correct.push_back(i);
  }
  const std::size_t m =
      std::min<std::size_t>(static_cast<std::size_t>(sample_receivers_), correct.size());
  sampled_.clear();
  for (std::size_t j = 0; j < m; ++j) sampled_.push_back(correct[j * correct.size() / m]);

  std::vector<State> received(states.begin(), states.end());
  std::vector<std::uint64_t> outs(sampled_.size());

  // Score = agreement among the sampled receivers after one round under the
  // profile; each candidate costs |sample| transitions, not one per correct
  // node, and the scored forgeries are evaluated once per round here rather
  // than per (sender, receiver) query in message().
  const auto score = [&](const std::vector<State>& profile) {
    counting::TransitionContext ctx{&rng};
    for (std::size_t j = 0; j < sampled_.size(); ++j) {
      const NodeId i = sampled_[j];
      for (std::size_t sidx = 0; sidx < faulty_.size(); ++sidx) {
        received[static_cast<std::size_t>(faulty_[sidx])] =
            profile[sidx * static_cast<std::size_t>(n_) + static_cast<std::size_t>(i)];
      }
      outs[j] = algo.output(i, algo.transition(i, received, ctx));
      for (NodeId fj : faulty_) {
        received[static_cast<std::size_t>(fj)] = states[static_cast<std::size_t>(fj)];
      }
    }
    return agreement_score(outs);
  };

  std::vector<State> best_profile;
  int best_score = n_ + 1;

  // Seed the search with the previous round's winner: a profile that split
  // the correct nodes last round usually keeps splitting them, so the random
  // candidates only have to beat a known-good incumbent.
  if (profile_size > 0 && cached_.size() == profile_size) {
    best_score = score(cached_);
    best_profile = cached_;
  }

  for (int cand = 0; cand < candidates_; ++cand) {
    // Draw a candidate profile: a mix of random states and replayed correct
    // states (replays are often more damaging than noise).
    std::vector<State> profile(profile_size);
    for (auto& s : profile) {
      if (rng.next_bool(0.5)) {
        s = random_state(algo, rng);
      } else {
        s = states[rng.next_below(states.size())];
      }
    }
    const int sc = score(profile);
    if (sc < best_score) {
      best_score = sc;
      best_profile = std::move(profile);
    }
  }
  chosen_ = std::move(best_profile);
  cached_ = chosen_;
}

State LookaheadAdversary::message(std::uint64_t, NodeId sender, NodeId receiver,
                                  std::span<const State>, const CountingAlgorithm& algo,
                                  util::Rng& rng) {
  const auto it = std::find(faulty_.begin(), faulty_.end(), sender);
  if (it == faulty_.end() || chosen_.empty()) return random_state(algo, rng);
  const auto sidx = static_cast<std::size_t>(it - faulty_.begin());
  return chosen_[sidx * static_cast<std::size_t>(n_) + static_cast<std::size_t>(receiver)];
}

std::unique_ptr<Adversary> make_adversary(const std::string& name) {
  if (name == "silent") return std::make_unique<SilentAdversary>();
  if (name == "echo") return std::make_unique<EchoAdversary>();
  if (name == "random") return std::make_unique<RandomAdversary>();
  if (name == "split") return std::make_unique<SplitAdversary>();
  if (name == "mirror") return std::make_unique<MirrorAdversary>();
  if (name == "targeted-vote") return std::make_unique<TargetedVoteAdversary>();
  if (name == "lookahead") return std::make_unique<LookaheadAdversary>();
  SC_CHECK(false, "unknown adversary: " + name);
}

std::vector<std::string> adversary_names() {
  return {"silent", "echo", "random", "split", "mirror", "targeted-vote", "lookahead"};
}

}  // namespace synccount::sim
