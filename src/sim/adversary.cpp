#include "sim/adversary.hpp"

namespace synccount::sim {

void Adversary::begin_round(std::uint64_t /*round*/, std::span<const State> /*true_states*/,
                            const CountingAlgorithm& /*algo*/,
                            std::span<const NodeId> /*faulty_ids*/, util::Rng& /*rng*/) {}

void Adversary::forge_block(std::uint64_t round, std::span<const State> true_states,
                            const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                            std::span<const NodeId> correct_ids, util::Rng& rng,
                            ForgedRound& out) {
  begin_round(round, true_states, algo, faulty_ids, rng);
  const std::size_t nf = faulty_ids.size();
  if (receiver_oblivious()) {
    // One profile, queried once per sender against the first correct
    // receiver -- the scalar runner's hoisted forge loop.
    out.num_profiles = 1;
    out.states.resize(nf);
    out.profile_of.clear();
    for (std::size_t k = 0; k < nf; ++k) {
      out.states[k] = message(round, faulty_ids[k], correct_ids.front(), true_states, algo, rng);
    }
    return;
  }
  // One profile per correct receiver, queried in the scalar runner's nested
  // (receiver, sender) order.
  out.num_profiles = static_cast<int>(correct_ids.size());
  out.states.resize(correct_ids.size() * nf);
  out.profile_of.assign(true_states.size(), 0);
  for (std::size_t j = 0; j < correct_ids.size(); ++j) {
    out.profile_of[static_cast<std::size_t>(correct_ids[j])] = static_cast<std::uint16_t>(j);
    for (std::size_t k = 0; k < nf; ++k) {
      out.states[j * nf + k] =
          message(round, faulty_ids[k], correct_ids[j], true_states, algo, rng);
    }
  }
}

bool Adversary::idx_guard(IdxGuard& g, const CountingAlgorithm& algo) {
  if (g.algo != &algo) {
    g.algo = &algo;
    const auto ns = algo.state_count();
    const int bits = algo.state_bits();
    g.ok = ns && *ns >= 1 && *ns <= 256 && bits <= 64;
    g.ns = g.ok ? static_cast<std::uint32_t>(*ns) : 0;
    g.bits = bits;
    g.mask = bits == 0 ? 0 : (~std::uint64_t{0} >> (64 - bits));
  }
  return g.ok;
}

bool Adversary::forge_lanes_idx(std::uint64_t /*round*/, const CountingAlgorithm& /*algo*/,
                                std::span<const NodeId> /*faulty_ids*/,
                                std::span<const NodeId> /*correct_ids*/,
                                std::span<util::Rng> /*rngs*/,
                                std::span<const std::uint64_t> /*active*/,
                                std::uint8_t* /*out_idx*/, ForgedRound& /*out*/) {
  return false;
}

}  // namespace synccount::sim
