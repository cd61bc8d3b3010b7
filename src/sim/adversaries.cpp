#include "sim/adversaries.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "counting/table_algorithm.hpp"
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

// One profile per correct receiver, in correct_ids order: the geometry of
// the default forge_block for receiver-dependent strategies. The map only
// changes with the node count, so it is rebuilt only then.
void per_receiver_profiles(std::span<const NodeId> correct_ids, std::size_t n,
                           ForgedRound& out) {
  out.num_profiles = static_cast<int>(correct_ids.size());
  if (out.profile_of.size() != n) {
    out.profile_of.assign(n, 0);
    for (std::size_t j = 0; j < correct_ids.size(); ++j) {
      out.profile_of[static_cast<std::size_t>(correct_ids[j])] = static_cast<std::uint16_t>(j);
    }
  }
}

// The node whose round-start state mirror's `sender` echoes to `receiver`:
// a peer rotating with the round, never the sender itself.
NodeId mirror_victim(std::uint64_t round, NodeId sender, NodeId receiver, NodeId n) {
  NodeId victim = static_cast<NodeId>((receiver + round) % static_cast<std::uint64_t>(n));
  if (victim == sender) victim = (victim + 1) % n;
  return victim;
}

// The position in targeted-vote's shuffled pool (size >= 1) replayed to
// `receiver`: receiver halves get states from opposite ends of the pool.
std::size_t vote_pick(NodeId receiver, std::size_t pool_size) {
  const std::size_t half = pool_size / 2;
  const auto r = static_cast<std::size_t>(receiver);
  const std::size_t idx = (receiver % 2 == 0)
                              ? (r / 2) % std::max<std::size_t>(half, 1)
                              : half + (r / 2) % std::max<std::size_t>(pool_size - half, 1);
  return std::min(idx, pool_size - 1);
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

// The receivers lookahead scores candidates against: an even stride of at
// most `count` over the correct nodes (deterministic, so it costs no draws).
void lookahead_sample(std::span<const NodeId> correct, int count, std::vector<NodeId>& out) {
  const std::size_t m = std::min<std::size_t>(static_cast<std::size_t>(count), correct.size());
  out.clear();
  for (std::size_t j = 0; j < m; ++j) out.push_back(correct[j * correct.size() / m]);
}

// The constants of lookahead's candidate draws on the index path.
struct CandidateDraw {
  std::uint64_t mask;       // random_state: (1 << state_bits) - 1
  std::uint64_t ns;         // |X|
  std::uint64_t threshold;  // replay: next_below(n) redraws below this
  util::Divisor mod_n;      // replay: then reduces mod n
};

// One candidate profile for one lane, drawn exactly as begin_round draws
// it: per entry a next_bool(0.5) coin, then random_state (one raw draw
// reduced like canonicalize; none for a one-state table, kDrawsRaw false)
// or a replay of states[next_below(n)], read from the lane's column `col`.
template <bool kDrawsRaw>
void draw_candidate(util::Rng& lane_rng, const CandidateDraw& d, const std::uint8_t* col,
                    std::uint8_t* cand, std::size_t size) {
  // A local generator stays in registers across the byte stores, which may
  // alias anything.
  util::Rng rng = lane_rng;
  for (std::size_t e = 0; e < size; ++e) {
    // next_bool(0.5) is true iff the draw's top bit is clear: it compares
    // (x >> 11) * 2^-53 against 0.5.
    const bool random = (rng.next_u64() >> 63) == 0;
    if constexpr (!kDrawsRaw) {
      cand[e] = random ? 0 : col[d.mod_n.mod(rng.next_u64())];
      continue;
    }
    // Either arm draws once more: random_state's raw chunk or the replay's
    // first try, which the replay rejects with odds n / 2^64. Both values
    // are formed and one is masked in, with no branch on the coin: it would
    // mispredict half the time (a ?: or && on it compiles to one here).
    const std::uint64_t take_raw = 0 - static_cast<std::uint64_t>(random);
    const std::uint64_t reject_below = d.threshold & ~take_raw;
    std::uint64_t y = rng.next_u64();
    while (y < reject_below) y = rng.next_u64();
    std::uint64_t raw = y & d.mask;
    raw -= d.ns & -static_cast<std::uint64_t>(raw >= d.ns);
    const std::uint64_t replay = col[d.mod_n.mod(y)];
    cand[e] = static_cast<std::uint8_t>((raw & take_raw) | (replay & ~take_raw));
  }
  lane_rng = rng;
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
                                     std::span<const std::uint8_t> /*states_idx*/,
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
                                      std::span<const std::uint8_t> /*states_idx*/,
                                      std::span<util::Rng> rngs,
                                      std::span<const std::uint64_t> active,
                                      std::uint8_t* out_idx, ForgedRound& out) {
  if (!idx_guard(ig_, algo)) return false;
  const std::size_t nf = faulty_ids.size();
  const std::size_t L = rngs.size();
  const std::size_t slots = correct_ids.size() * nf;
  per_receiver_profiles(correct_ids, nf + correct_ids.size(), out);
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
  return states[static_cast<std::size_t>(
      mirror_victim(round, sender, receiver, static_cast<NodeId>(states.size())))];
}

bool MirrorAdversary::forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                                      std::span<const NodeId> faulty_ids,
                                      std::span<const NodeId> correct_ids,
                                      std::span<const std::uint8_t> states_idx,
                                      std::span<util::Rng> rngs,
                                      std::span<const std::uint64_t> /*active*/,
                                      std::uint8_t* out_idx, ForgedRound& out) {
  if (states_idx.empty() || !idx_guard(ig_, algo)) return false;
  const std::size_t nf = faulty_ids.size();
  const std::size_t L = rngs.size();
  const std::size_t n = nf + correct_ids.size();
  SC_REQUIRE(states_idx.size() == n * L, "forge_lanes_idx state view has the wrong size");
  per_receiver_profiles(correct_ids, n, out);
  // Every lane mirrors the same victim in a slot, so each slot is one row
  // copy (inactive lanes included; nothing reads them).
  for (std::size_t j = 0; j < correct_ids.size(); ++j) {
    for (std::size_t k = 0; k < nf; ++k) {
      const auto victim = static_cast<std::size_t>(
          mirror_victim(round, faulty_ids[k], correct_ids[j], static_cast<NodeId>(n)));
      std::copy_n(states_idx.data() + victim * L, L, out_idx + (j * nf + k) * L);
    }
  }
  return true;
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

State TargetedVoteAdversary::message(std::uint64_t, NodeId, NodeId receiver,
                                     std::span<const State>, const CountingAlgorithm& algo,
                                     util::Rng& rng) {
  if (pool_.empty()) return random_state(algo, rng);
  return pool_[vote_pick(receiver, pool_.size())];
}

bool TargetedVoteAdversary::forge_lanes_idx(std::uint64_t /*round*/,
                                            const CountingAlgorithm& algo,
                                            std::span<const NodeId> faulty_ids,
                                            std::span<const NodeId> correct_ids,
                                            std::span<const std::uint8_t> states_idx,
                                            std::span<util::Rng> rngs,
                                            std::span<const std::uint64_t> active,
                                            std::uint8_t* out_idx, ForgedRound& out) {
  if (states_idx.empty() || !idx_guard(ig_, algo)) return false;
  const std::size_t nf = faulty_ids.size();
  const std::size_t nc = correct_ids.size();
  const std::size_t L = rngs.size();
  const std::size_t n = nf + nc;
  SC_REQUIRE(states_idx.size() == n * L, "forge_lanes_idx state view has the wrong size");
  per_receiver_profiles(correct_ids, n, out);
  pick_.resize(nc);
  for (std::size_t j = 0; j < nc; ++j) {
    pick_[j] = static_cast<std::uint32_t>(vote_pick(correct_ids[j], nc));
  }
  perm_.resize(nc);
  for (std::size_t w = 0; w < active.size(); ++w) {
    for (std::uint64_t m = active[w]; m; m &= m - 1) {
      const std::size_t l = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      // begin_round's pool is the correct nodes' states in correct_ids
      // order; shuffling their positions draws exactly what shuffling the
      // states would, and pool slot t then holds correct_ids[perm_[t]].
      std::iota(perm_.begin(), perm_.end(), 0u);
      std::shuffle(perm_.begin(), perm_.end(), rngs[l]);
      for (std::size_t j = 0; j < nc; ++j) {
        const auto src = static_cast<std::size_t>(correct_ids[perm_[pick_[j]]]);
        const std::uint8_t v = states_idx[src * L + l];
        for (std::size_t k = 0; k < nf; ++k) out_idx[(j * nf + k) * L + l] = v;
      }
    }
  }
  return true;
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

  std::vector<NodeId> correct;
  for (NodeId i = 0; i < n_; ++i) {
    if (std::find(faulty_.begin(), faulty_.end(), i) == faulty_.end()) correct.push_back(i);
  }
  lookahead_sample(correct, sample_receivers_, sampled_);

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

bool LookaheadAdversary::forge_lanes_idx(std::uint64_t /*round*/, const CountingAlgorithm& algo,
                                         std::span<const NodeId> faulty_ids,
                                         std::span<const NodeId> correct_ids,
                                         std::span<const std::uint8_t> states_idx,
                                         std::span<util::Rng> rngs,
                                         std::span<const std::uint64_t> active,
                                         std::uint8_t* out_idx, ForgedRound& out) {
  const auto* table = dynamic_cast<const counting::TableAlgorithm*>(&algo);
  if (table == nullptr || states_idx.empty() || !idx_guard(ig_, algo)) return false;
  const counting::CompiledTable& ct = table->compiled();
  const std::size_t nf = faulty_ids.size();
  const std::size_t nc = correct_ids.size();
  const std::size_t L = rngs.size();
  const std::size_t n = nf + nc;
  SC_REQUIRE(nc > 0, "forge_lanes_idx needs a correct receiver");
  SC_REQUIRE(states_idx.size() == n * L, "forge_lanes_idx state view has the wrong size");
  per_receiver_profiles(correct_ids, n, out);
  // Without faults the profiles are empty: begin_round draws nothing.
  const std::size_t psize = nf * n;
  if (psize == 0) return true;
  if (lane_best_.size() != L * psize) {
    lane_best_.assign(L * psize, 0);
    lane_has_best_.assign(L, 0);
  }

  // A candidate reaches sampled receiver i only through the faulty senders'
  // terms of i's g index, so their strides are gathered once per call and
  // the correct senders' part is summed once per lane (base).
  lookahead_sample(correct_ids, sample_receivers_, sampled_);
  const std::size_t m = sampled_.size();
  fstride_.resize(m * nf);
  base_.resize(m);
  outs_.resize(m);
  col_.resize(n);
  cand_.resize(psize);
  for (std::size_t t = 0; t < m; ++t) {
    const auto i = static_cast<std::size_t>(sampled_[t]);
    for (std::size_t k = 0; k < nf; ++k) {
      fstride_[t * nf + k] = ct.stride[i * n + static_cast<std::size_t>(faulty_ids[k])];
    }
  }
  // Raw pointers keep the loop's state in registers across the byte stores.
  const NodeId* sampled = sampled_.data();
  const std::uint64_t* fstride = fstride_.data();
  std::uint64_t* base = base_.data();
  std::uint64_t* outs = outs_.data();
  std::uint8_t* col = col_.data();
  std::uint8_t* cand = cand_.data();
  const auto score = [&](const std::uint8_t* profile) {
    for (std::size_t t = 0; t < m; ++t) {
      const NodeId i = sampled[t];
      std::uint64_t acc = base[t];
      for (std::size_t k = 0; k < nf; ++k) {
        acc += fstride[t * nf + k] * profile[k * n + static_cast<std::size_t>(i)];
      }
      outs[t] = ct.out(i, ct.g[static_cast<std::size_t>(acc)]);
    }
    return agreement_score(std::span<const std::uint64_t>(outs, m));
  };

  const CandidateDraw draw{ig_.mask, ig_.ns, (0 - static_cast<std::uint64_t>(n)) % n,
                           util::Divisor(n)};
  const bool draws_raw = ig_.bits > 0;
  for (std::size_t w = 0; w < active.size(); ++w) {
    for (std::uint64_t msk = active[w]; msk; msk &= msk - 1) {
      const std::size_t l = w * 64 + static_cast<std::size_t>(std::countr_zero(msk));
      for (std::size_t s = 0; s < n; ++s) col[s] = states_idx[s * L + l];
      for (std::size_t t = 0; t < m; ++t) {
        const auto i = static_cast<std::size_t>(sampled[t]);
        std::uint64_t acc = ct.node_base[i];
        for (const NodeId s : correct_ids) {
          const auto su = static_cast<std::size_t>(s);
          acc += ct.stride[i * n + su] * col[su];
        }
        base[t] = acc;
      }
      std::uint8_t* best = lane_best_.data() + l * psize;
      int best_score = static_cast<int>(n) + 1;
      if (lane_has_best_[l] != 0) best_score = score(best);
      for (int c = 0; c < candidates_; ++c) {
        if (draws_raw) {
          draw_candidate<true>(rngs[l], draw, col, cand, psize);
        } else {
          draw_candidate<false>(rngs[l], draw, col, cand, psize);
        }
        const int sc = score(cand);
        if (sc < best_score) {
          best_score = sc;
          std::copy_n(cand, psize, best);
        }
      }
      lane_has_best_[l] = 1;
      for (std::size_t j = 0; j < nc; ++j) {
        const auto r = static_cast<std::size_t>(correct_ids[j]);
        for (std::size_t k = 0; k < nf; ++k) out_idx[(j * nf + k) * L + l] = best[k * n + r];
      }
    }
  }
  return true;
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
