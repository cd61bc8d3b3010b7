#include "sim/composed_runner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <span>

#include "boosting/boosted_counter.hpp"
#include "counting/trivial.hpp"
#include "phaseking/phase_king.hpp"
#include "pulling/pulling_counter.hpp"
#include "sim/lanes.hpp"
#include "util/check.hpp"

namespace synccount::sim {

namespace {

using counting::NodeId;
using phaseking::kInfinity;

constexpr std::size_t kLanesPerWord = 64;

ComposedLevel make_level(ComposedLevel::Kind kind, int n, int N, int k, int m, int tau,
                         std::uint64_t C, int F, const counting::CountingAlgorithm& inner) {
  ComposedLevel lv;
  lv.kind = kind;
  lv.n = n;
  lv.copies = N / n;
  lv.n_inner = inner.num_nodes();
  lv.k = k;
  lv.m = m;
  lv.tau = tau;
  lv.C = C;
  lv.pk = phaseking::Params{n, F, C};
  lv.a_offset = inner.state_bits();
  lv.a_bits = phaseking::a_bits(C);
  for (int u = 0; u < N; ++u) {
    lv.copy_of.push_back(static_cast<std::uint32_t>(u / n));
    lv.block_of.push_back(static_cast<std::uint32_t>(u % n / lv.n_inner));
  }
  std::uint64_t unit = static_cast<std::uint64_t>(tau);  // τ(2m)^blk
  for (int blk = 0; blk < k; ++blk) {
    lv.block_div.emplace_back(unit);
    unit *= static_cast<std::uint64_t>(2 * m);
  }
  lv.tau_div = util::Divisor(static_cast<std::uint64_t>(tau));
  lv.m_div = util::Divisor(static_cast<std::uint64_t>(m));
  lv.pick_in_block = util::BoundedDraw(static_cast<std::uint64_t>(lv.n_inner));
  lv.pick_in_copy = util::BoundedDraw(static_cast<std::uint64_t>(n));
  return lv;
}

}  // namespace

std::shared_ptr<const ComposedCompiledTable> ComposedCompiledTable::compile(
    const counting::AlgorithmPtr& algo) {
  if (algo == nullptr) return nullptr;
  auto cc = std::make_shared<ComposedCompiledTable>();
  cc->algo = algo;
  cc->N = algo->num_nodes();
  cc->state_bits = algo->state_bits();
  cc->modulus = algo->modulus();

  // Walk the tower top-down, collecting one ComposedLevel per wrapper.
  std::vector<ComposedLevel> top_down;
  const counting::CountingAlgorithm* cur = algo.get();
  for (;;) {
    if (const auto* b = dynamic_cast<const boosting::BoostedCounter*>(cur)) {
      top_down.push_back(make_level(ComposedLevel::Kind::kBoosted, b->num_nodes(), cc->N,
                                    b->k(), b->m(), b->tau(), b->modulus(), b->resilience(),
                                    b->inner()));
      cur = &b->inner();
    } else if (const auto* p = dynamic_cast<const pulling::PullingBoostedCounter*>(cur)) {
      ComposedLevel lv = make_level(ComposedLevel::Kind::kPulling, p->num_nodes(), cc->N,
                                    p->k(), p->m(), p->tau(), p->modulus(), p->resilience(),
                                    p->inner());
      lv.sample_size = p->sample_size();
      lv.fixed_sampling = p->mode() == pulling::SamplingMode::kFixed;
      lv.sampling_seed = p->sampling_seed();
      top_down.push_back(std::move(lv));
      cur = &p->inner();
    } else {
      break;
    }
  }
  if (top_down.empty()) return nullptr;  // flat algorithms go to the table path

  if (const auto* t = dynamic_cast<const counting::TrivialCounter*>(cur)) {
    cc->base.kind = ComposedBase::Kind::kTrivial;
    cc->base.n = 1;
    cc->base.num_states = t->modulus();
  } else if (const auto* t2 = dynamic_cast<const counting::TableAlgorithm*>(cur)) {
    cc->base.kind = ComposedBase::Kind::kTable;
    cc->base.n = t2->num_nodes();
    cc->base.num_states = t2->table().num_states;
    cc->base.table = &t2->compiled();
  } else {
    return nullptr;  // unknown base: stay on the scalar runner
  }
  // Wider table bases would overflow the fixed per-block index scratch; such
  // towers fall back to the scalar runner rather than failing at run time.
  if (cc->base.n > 256) return nullptr;
  cc->base.copies = cc->N / cc->base.n;
  cc->base.bits = cur->state_bits();
  if (cc->base.kind == ComposedBase::Kind::kTable) {
    for (int u = 0; u < cc->N; ++u) {
      cc->base.slot.push_back(static_cast<std::uint8_t>(u % cc->base.n));
    }
  }

  cc->levels.assign(top_down.rbegin(), top_down.rend());

  // The field layout must tile the flat state exactly: base bits, then one
  // (a, d) register pair per level.
  int bits = cc->base.bits;
  for (const ComposedLevel& lv : cc->levels) {
    SC_CHECK(lv.a_offset == bits, "composed state layout mismatch");
    bits += lv.a_bits + 1;
  }
  SC_CHECK(bits == cc->state_bits, "composed state width mismatch");
  return cc;
}

namespace {

// One block of up to 64 lanes advanced in round lockstep (the engine picks
// the width, see Engine::run). Master state lives decomposed:
// base_[lane*N + node] holds the base field and a_[lvl] / d_[lvl] the
// per-level phase-king registers; BitVec states are materialised only for
// adversaries that read them and for record_states. All scratch is allocated
// once here, so the round loop is allocation-free.
//
// Each lane-round builds the received view once: the fields, plus every
// level's vote digits (dg_b_ / dg_r_) computed once per correct sender
// rather than once per reader. The faulty senders' slots are written after,
// per profile (apply_profile) or per receiver (forge_into). Vote sampling
// and the per-copy votes read the digits; each receiver's phase-king step
// reads a tally shared by its (level copy, profile).
//
// Rounds run in one of two modes, picked once per block from the adversary's
// declared traits:
//
//  * Profiled (the default). Each forging lane calls Adversary::forge_block
//    once per round, yielding a handful of receiver profiles plus a
//    lane-invariant receiver-to-profile map. The round then splits into two
//    passes: pass 1 does the per-lane summary / adversary work and decomposes
//    the forged profiles, and pass 2 applies each receiver's profile to the
//    received view and runs the base kernel and the vote / phase-king glue,
//    with votes and tallies cached per (level copy, profile) -- copies
//    without faulty senders collapse to one profile-independent entry. Valid
//    whenever hoisting every adversary query before the transitions
//    preserves the lane's rng draw sequence: always for faultless lanes and
//    receiver-oblivious adversaries (the scalar runner hoists those itself),
//    and otherwise when the adversary's message() is draw-free or the tower
//    has no fresh-sampling pulling level.
//  * Interleaved (the remaining case: a receiver-dependent, drawing adversary
//    under a fresh-sampling pulling tower). Forging and transitions alternate
//    per receiver exactly like the scalar loop, with votes and tallies
//    memoized per (level, copy) keyed on the forged field tuple they read.
class ComposedBlock {
 public:
  ComposedBlock(const BatchConfig& cfg, const ComposedCompiledTable& cc,
                std::span<const std::uint64_t> seeds)
      : cfg_(cfg),
        cc_(cc),
        algo_(*cfg.algo),
        N_(cc.N),
        L_(cc.levels.size()),
        W_(seeds.size()),
        lanes_(cfg, algo_, seeds) {
    const auto nn = static_cast<std::size_t>(N_);
    const std::vector<NodeId>& correct = lanes_.correct;

    // Master fields and scratch.
    base_.assign(nn * W_, 0);
    a_.assign(L_, std::vector<std::uint64_t>(nn * W_, 0));
    d_.assign(L_, std::vector<std::uint8_t>(nn * W_, 0));
    rv_base_.assign(nn, 0);
    rv_a_.assign(L_, std::vector<std::uint64_t>(nn, 0));
    rv_d_.assign(L_, std::vector<std::uint8_t>(nn, 0));
    rp_a_.assign(L_, nullptr);
    rp_d_.assign(L_, nullptr);
    dg_b_.assign(L_, std::vector<std::uint64_t>(nn, 0));
    dg_r_.assign(L_, std::vector<std::uint64_t>(nn, 0));
    nb_base_.assign(nn, 0);
    nb_a_.assign(L_, std::vector<std::uint64_t>(nn, 0));
    nb_d_.assign(L_, std::vector<std::uint8_t>(nn, 0));
    int max_k = 0;
    int max_m = 0;
    total_copies_ = 0;
    for (const ComposedLevel& lv : cc_.levels) {
      max_k = std::max(max_k, lv.k);
      max_m = std::max(max_m, lv.sample_size);
      copy_base_.push_back(total_copies_);
      total_copies_ += static_cast<std::size_t>(lv.copies);
      // Faulty senders inside each copy of this level: the only received
      // fields the copy's votes see that can differ across receivers.
      for (int c = 0; c < lv.copies; ++c) {
        std::vector<NodeId> in_copy;
        for (const NodeId u : lanes_.faulty_ids) {
          if (u >= c * lv.n && u < (c + 1) * lv.n) in_copy.push_back(u);
        }
        copy_faulty_.push_back(std::move(in_copy));
      }
    }
    vote_memo_.resize(total_copies_);
    vote_memo_used_.assign(total_copies_, 0);
    leader_.assign(static_cast<std::size_t>(max_k), 0);
    const auto mm = static_cast<std::size_t>(max_m);
    sample_.assign(static_cast<std::size_t>(max_k) * mm, 0);
    mvals_.assign(mm, 0);
    sampled_a_.assign(mm, 0);
    outs_.assign(correct.size(), 0);

    for (std::size_t l = 0; l < W_; ++l) {
      const std::vector<State>& states = lanes_.cold[l].states;
      for (std::size_t i = 0; i < nn; ++i) decompose(states[i], l * nn + i, base_, a_, d_);
      active_ |= 1ULL << l;
    }
    for (const ComposedLevel& lv : cc_.levels) {
      if (lv.kind == ComposedLevel::Kind::kPulling && !lv.fixed_sampling) tower_draws_ = true;
    }
    const Adversary& probe = lanes_.probe();
    interleaved_ = !lanes_.faultless && !probe.receiver_oblivious() &&
                   !probe.message_draw_free() && tower_draws_;
    // A fault-free lane forges nothing, so its begin_round draws are
    // observable only through a transition that reads the lane's rng.
    idle_rounds_ = lanes_.passive_rounds || (lanes_.faultless && !tower_draws_);

    // Profile state starts in the 1-profile shape shared by faultless lanes
    // and receiver-oblivious adversaries; set_profiles regrows on demand.
    prof_node_.assign(nn, 0);
    order_ = correct;
    frs_.resize(W_);
    resize_profiles(1);
  }

  std::vector<RunResult> run() {
    const bool recording = cfg_.record_outputs || cfg_.record_states;
    for (std::uint64_t round = 0; round < cfg_.max_rounds && active_ != 0; ++round) {
      const bool will_forge = lanes_.will_forge();
      if (interleaved_) {
        round_interleaved(round, recording);
      } else {
        round_profiled(round, recording, will_forge);
      }
      if (will_forge) lanes_.static_forged = lanes_.static_forge;
    }
    return lanes_.finish();
  }

 private:
  // --- Round summary: outputs + agreement (from the master fields) ----------
  // Returns false if the lane early-exited (stop_after_stable reached).
  bool observe_lane(std::size_t l, bool recording) {
    const std::vector<NodeId>& correct = lanes_.correct;
    const std::vector<std::uint64_t>& top_a = a_[L_ - 1];
    const std::size_t lane_off = l * static_cast<std::size_t>(N_);
    bool agreed = true;
    std::uint64_t first = 0;
    for (std::size_t j = 0; j < correct.size(); ++j) {
      const std::uint64_t a = top_a[lane_off + static_cast<std::size_t>(correct[j])];
      outs_[j] = a == kInfinity ? 0 : a;
      if (j == 0) {
        first = outs_[0];
      } else if (outs_[j] != first) {
        agreed = false;
      }
    }
    const bool stop = lanes_.observe(l, agreed, first);
    if (recording) record_lane(l);
    if (stop) {
      active_ &= ~(1ULL << l);
      return false;
    }
    return true;
  }

  // --- Profiled rounds ------------------------------------------------------

  void round_profiled(std::uint64_t round, bool recording, bool will_forge) {
    // Pass 1: per-lane summary + adversary work. Lane-internal call order
    // matches the scalar runner exactly (forge_block runs begin_round before
    // its message queries).
    const ForgedRound* first = nullptr;
    for (std::uint64_t msk = active_; msk; msk &= msk - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(msk));
      if (!observe_lane(l, recording)) continue;
      if (will_forge) {
        if (!lanes_.state_oblivious) refresh_states(l);
        ForgedRound& fr = frs_[l];
        lanes_.forge_block(l, round, algo_, fr);
        if (first == nullptr) {
          first = &fr;
          set_profiles(fr);
        }
        lanes_.check_lane(fr, *first);
        decompose_lane_profiles(l);
      } else if (!idle_rounds_) {
        if (!lanes_.state_oblivious) refresh_states(l);
        lanes_.begin_round(l, round, algo_);
      }
    }
    if (active_ == 0) return;

    // Pass 2: received views, votes, phase-king glue, commit.
    for (std::uint64_t msk = active_; msk; msk &= msk - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(msk));
      load_received(l);
      std::fill(vote_valid_.begin(), vote_valid_.end(), 0);
      if (lanes_.faultless) {
        for (const NodeId v : lanes_.correct) transition_node(l, v, 0, /*memo=*/false);
      } else {
        int cur = -1;
        for (const NodeId v : order_) {
          const int pv = nprof_ == 1 ? 0 : prof_node_[static_cast<std::size_t>(v)];
          if (pv != cur) {
            apply_profile(l, pv);
            cur = pv;
          }
          transition_node(l, v, pv, /*memo=*/false);
        }
      }
      commit(l);
    }
  }

  // --- Interleaved rounds (receiver-dependent drawing adversary over a
  // fresh-sampling pulling tower) ---------------------------------------------

  void round_interleaved(std::uint64_t round, bool recording) {
    for (std::uint64_t msk = active_; msk; msk &= msk - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(msk));
      if (!observe_lane(l, recording)) continue;
      if (!lanes_.state_oblivious) refresh_states(l);
      if (!lanes_.passive_rounds) {
        lanes_.begin_round(l, round, algo_);
      }
      load_received(l);
      std::fill(vote_memo_used_.begin(), vote_memo_used_.end(), 0);
      for (const NodeId v : lanes_.correct) {
        for (const NodeId u : lanes_.faulty_ids) forge_into(l, round, u, v);
        transition_node(l, v, 0, /*memo=*/true);
      }
      commit(l);
    }
  }

  // --- Field <-> BitVec -----------------------------------------------------

  // Writes the decomposed fields of (canonical or raw) state `s` into slot
  // `idx` of the given field arrays. Decomposing a raw pattern directly
  // equals decomposing canonicalize(s): the base index reduces modulo the
  // state count and the a register decodes by clamping, exactly as the
  // scalar construction's canonicalize does.
  void decompose(const State& s, std::size_t idx, std::vector<std::uint64_t>& base,
                 std::vector<std::vector<std::uint64_t>>& a,
                 std::vector<std::vector<std::uint8_t>>& d) const {
    base[idx] = s.get_bits(0, cc_.base.bits) % cc_.base.num_states;
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      const ComposedLevel& lv = cc_.levels[lvl];
      a[lvl][idx] = phaseking::decode_a(s.get_bits(lv.a_offset, lv.a_bits), lv.C);
      d[lvl][idx] = s.get_bit(lv.a_offset + lv.a_bits) ? 1 : 0;
    }
  }

  State encode(std::size_t lane, NodeId node) const {
    const std::size_t idx = lane * static_cast<std::size_t>(N_) + static_cast<std::size_t>(node);
    State s;
    s.set_bits(0, cc_.base.bits, base_[idx]);
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      const ComposedLevel& lv = cc_.levels[lvl];
      s.set_bits(lv.a_offset, lv.a_bits, phaseking::encode_a(a_[lvl][idx], lv.C));
      s.set_bit(lv.a_offset + lv.a_bits, d_[lvl][idx] != 0);
    }
    return s;
  }

  void refresh_states(std::size_t lane) {
    std::vector<State>& states = lanes_.cold[lane].states;
    for (const NodeId i : lanes_.correct) states[static_cast<std::size_t>(i)] = encode(lane, i);
  }

  void record_lane(std::size_t lane) {
    detail::Lanes::Cold& ln = lanes_.cold[lane];
    if (cfg_.record_outputs) {
      ln.result.outputs.emplace_back(outs_.begin(), outs_.end());
    }
    if (cfg_.record_states) {
      refresh_states(lane);
      ln.result.states.push_back(ln.states);
    }
  }

  // --- Vote digits ----------------------------------------------------------

  // The inner output level `lvl` reads from node u (what block_view / the
  // vote sampling read): the base output at level 0, else the level-below
  // a register with ∞ read as 0. `base` and `a_below` are u's fields.
  std::uint64_t inner_out(std::size_t lvl, NodeId u, std::uint64_t base,
                          std::uint64_t a_below) const {
    if (lvl > 0) return a_below == kInfinity ? 0 : a_below;
    if (cc_.base.kind == ComposedBase::Kind::kTrivial) return base;
    return cc_.base.table->out(cc_.base.slot[static_cast<std::size_t>(u)],
                               static_cast<std::uint8_t>(base));
  }

  // Every level's digits of node u, from the received view into dg_.
  void view_digits(NodeId u) {
    const auto uu = static_cast<std::size_t>(u);
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      const ComposedLevel& lv = cc_.levels[lvl];
      const std::uint64_t out = inner_out(lvl, u, rp_base_[uu], lvl > 0 ? rp_a_[lvl - 1][uu] : 0);
      dg_b_[lvl][uu] = lv.block_digit(u, out);
      dg_r_[lvl][uu] = lv.round_digit(out);
    }
  }

  // --- Forged profiles ------------------------------------------------------

  // Grows the per-(profile, faulty sender) storage to `nprof` profiles. The
  // profile slot stride is S_ = nprof * |faulty|; per-lane decomposed fields
  // live at [lane * S_ + slot] so one lane's profiles stay contiguous.
  void resize_profiles(int nprof) {
    nprof_ = nprof;
    S_ = static_cast<std::size_t>(nprof_) * lanes_.faulty_ids.size();
    pf_base_.assign(S_ * W_, 0);
    pf_a_.assign(L_, std::vector<std::uint64_t>(S_ * W_, 0));
    pf_d_.assign(L_, std::vector<std::uint8_t>(S_ * W_, 0));
    vote_T_.assign(total_copies_ * static_cast<std::size_t>(nprof_), {});
    vote_valid_.assign(total_copies_ * static_cast<std::size_t>(nprof_), 0);
  }

  // Establishes this round's profile geometry from the first forging lane:
  // the profile count, the receiver-to-profile map, and (when reordering is
  // draw-safe) the profile-grouped receiver order.
  void set_profiles(const ForgedRound& fr) {
    lanes_.check_profiles(fr);
    if (fr.num_profiles != nprof_) resize_profiles(fr.num_profiles);
    if (fr.profile_of.empty()) {
      std::fill(prof_node_.begin(), prof_node_.end(), std::uint16_t{0});
    } else {
      std::copy(fr.profile_of.begin(), fr.profile_of.end(), prof_node_.begin());
    }
    const std::vector<NodeId>& correct = lanes_.correct;
    if (!tower_draws_ && nprof_ > 1) {
      // Counting sort of the correct receivers by profile: transitions are
      // draw-free here, so grouping rebuilds the received view once per
      // profile without changing any per-node result.
      count_scratch_.assign(static_cast<std::size_t>(nprof_) + 1, 0);
      for (const NodeId v : correct) {
        ++count_scratch_[static_cast<std::size_t>(prof_node_[static_cast<std::size_t>(v)]) + 1];
      }
      for (std::size_t p = 1; p < count_scratch_.size(); ++p) {
        count_scratch_[p] += count_scratch_[p - 1];
      }
      for (const NodeId v : correct) {
        order_[count_scratch_[prof_node_[static_cast<std::size_t>(v)]]++] = v;
      }
    } else {
      std::copy(correct.begin(), correct.end(), order_.begin());
    }
  }

  // Decomposes lane `lane`'s forged states into its profile field slots.
  // Persists across rounds, so static forgers pay this once.
  void decompose_lane_profiles(std::size_t lane) {
    const ForgedRound& fr = frs_[lane];
    for (std::size_t s = 0; s < S_; ++s) {
      decompose(fr.states[s], lane * S_ + s, pf_base_, pf_a_, pf_d_);
    }
  }

  // Overwrites the received view's faulty entries with profile `pv`'s
  // fields and digits.
  void apply_profile(std::size_t lane, int pv) {
    const std::vector<NodeId>& faulty_ids = lanes_.faulty_ids;
    const std::size_t off = lane * S_ + static_cast<std::size_t>(pv) * faulty_ids.size();
    for (std::size_t k = 0; k < faulty_ids.size(); ++k) {
      const auto dst = static_cast<std::size_t>(faulty_ids[k]);
      rv_base_[dst] = pf_base_[off + k];
      for (std::size_t lvl = 0; lvl < L_; ++lvl) {
        rv_a_[lvl][dst] = pf_a_[lvl][off + k];
        rv_d_[lvl][dst] = pf_d_[lvl][off + k];
      }
      view_digits(faulty_ids[k]);
    }
  }

  // --- Adversary messages (interleaved mode) --------------------------------

  // Queries the adversary for (sender -> receiver) and writes the raw
  // answer's fields and digits into the sender's slot of the received view.
  void forge_into(std::size_t lane, std::uint64_t round, NodeId sender, NodeId receiver) {
    const State raw = lanes_.message(lane, round, sender, receiver, algo_);
    decompose(raw, static_cast<std::size_t>(sender), rv_base_, rv_a_, rv_d_);
    view_digits(sender);
  }

  // Builds the received view of this lane: the master fields copied into the
  // rv buffers and the correct senders' digits, with the faulty entries
  // written afterwards (apply_profile in profiled mode, per-receiver
  // forge_into in interleaved mode).
  // Fault-free lanes deliver the round-start states verbatim, so the read
  // pointers alias the master slice directly -- no copy, exactly like the
  // scalar runner's faultless shortcut (the transitions write only to the
  // nb_ buffers, so there is no aliasing hazard).
  void load_received(std::size_t lane) {
    const auto nn = static_cast<std::size_t>(N_);
    const std::size_t off = lane * nn;
    if (lanes_.faultless) {
      rp_base_ = base_.data() + off;
      for (std::size_t lvl = 0; lvl < L_; ++lvl) {
        rp_a_[lvl] = a_[lvl].data() + off;
        rp_d_[lvl] = d_[lvl].data() + off;
      }
    } else {
      std::copy_n(base_.begin() + static_cast<std::ptrdiff_t>(off), nn, rv_base_.begin());
      for (std::size_t lvl = 0; lvl < L_; ++lvl) {
        std::copy_n(a_[lvl].begin() + static_cast<std::ptrdiff_t>(off), nn, rv_a_[lvl].begin());
        std::copy_n(d_[lvl].begin() + static_cast<std::ptrdiff_t>(off), nn, rv_d_[lvl].begin());
      }
      rp_base_ = rv_base_.data();
      for (std::size_t lvl = 0; lvl < L_; ++lvl) {
        rp_a_[lvl] = rv_a_[lvl].data();
        rp_d_[lvl] = rv_d_[lvl].data();
      }
    }
    for (const NodeId u : lanes_.correct) view_digits(u);
  }

  // --- Level kernels --------------------------------------------------------

  // Full majority votes of one copy of a boosted level (paper step 3),
  // mirroring BoostedCounter::votes on the received view's digits, and the
  // phase-king tally of the copy's received a registers under the voted
  // instruction set: all a receiver's step reads from the copy.
  phaseking::Tally copy_tally(std::size_t lvl, int copy) {
    const ComposedLevel& lv = cc_.levels[lvl];
    const std::size_t first = static_cast<std::size_t>(copy) * static_cast<std::size_t>(lv.n);
    const auto ni = static_cast<std::size_t>(lv.n_inner);
    const auto k = static_cast<std::size_t>(lv.k);
    const auto m = static_cast<std::uint64_t>(lv.m);
    const std::uint64_t* b = dg_b_[lvl].data() + first;
    for (std::size_t blk = 0; blk < k; ++blk) {
      leader_[blk] = boosting::strict_majority(std::span<const std::uint64_t>(b + blk * ni, ni),
                                               m, ni / 2, scratch_);
    }
    const std::uint64_t B = boosting::strict_majority(
        std::span<const std::uint64_t>(leader_.data(), k), m, k / 2, scratch_);
    const std::uint64_t R = boosting::strict_majority(
        std::span<const std::uint64_t>(dg_r_[lvl].data() + first + B * ni, ni),
        static_cast<std::uint64_t>(lv.tau), ni / 2, scratch_);
    return phaseking::tally(
        lv.pk, static_cast<int>(R),
        std::span<const std::uint64_t>(rp_a_[lvl] + first, static_cast<std::size_t>(lv.n)),
        scratch_);
  }

  // Profiled-mode tally lookup: direct-indexed per (level copy, profile).
  // Copies without faulty senders read the same fields under every profile,
  // so they collapse onto the profile-0 entry.
  const phaseking::Tally& tally_profiled(std::size_t lvl, int copy, std::size_t slot, int pv) {
    const int p_eff = copy_faulty_[slot].empty() ? 0 : pv;
    const std::size_t cidx =
        slot * static_cast<std::size_t>(nprof_) + static_cast<std::size_t>(p_eff);
    if (!vote_valid_[cidx]) {
      vote_T_[cidx] = copy_tally(lvl, copy);
      vote_valid_[cidx] = 1;
    }
    return vote_T_[cidx];
  }

  // Interleaved-mode tally lookup. Per-receiver forging changes only the
  // faulty senders' fields, and structured equivocators send few distinct
  // values per round, so this round's tallies are memoized per (level, copy)
  // keyed on the forged fields they read: the votes' input (the base index
  // for level 0, the level-below a register otherwise) and the level's own
  // a register. A full key match implies identical inputs, so the hit path
  // is bit-identical to recomputing.
  const phaseking::Tally& tally_memo(std::size_t lvl, int copy, std::size_t slot) {
    key_scratch_.clear();
    for (const NodeId u : copy_faulty_[slot]) {
      const auto uu = static_cast<std::size_t>(u);
      key_scratch_.push_back(lvl == 0 ? rp_base_[uu] : rp_a_[lvl - 1][uu]);
      key_scratch_.push_back(rp_a_[lvl][uu]);
    }
    auto& entries = vote_memo_[slot];
    std::size_t& used = vote_memo_used_[slot];
    for (std::size_t e = 0; e < used; ++e) {
      if (entries[e].key == key_scratch_) return entries[e].tally;
    }
    if (used == entries.size()) entries.emplace_back();
    VoteMemoEntry& entry = entries[used++];
    entry.key = key_scratch_;  // assignment reuses capacity
    entry.tally = copy_tally(lvl, copy);
    return entry.tally;
  }

  void boosted_step(std::size_t lvl, NodeId v, int pv, bool memo) {
    const ComposedLevel& lv = cc_.levels[lvl];
    const auto vv = static_cast<std::size_t>(v);
    const auto copy = static_cast<int>(lv.copy_of[vv]);
    const std::size_t slot = copy_base_[lvl] + static_cast<std::size_t>(copy);
    const phaseking::Tally& t = memo ? tally_memo(lvl, copy, slot)
                                     : tally_profiled(lvl, copy, slot, pv);
    const phaseking::Registers next =
        phaseking::step_tallied(lv.pk, t, {rp_a_[lvl][vv], rp_d_[lvl][vv] != 0});
    nb_a_[lvl][vv] = next.a;
    nb_d_[lvl][vv] = next.d ? 1 : 0;
  }

  // Sampled votes + sampled phase king of one pulling level (Section 5),
  // mirroring PullingBoostedCounter::transition field for field and draw for
  // draw (block samples in block order, then the network sample).
  void pulling_step(std::size_t lane, std::size_t lvl, NodeId v, std::uint64_t& pulled) {
    const ComposedLevel& lv = cc_.levels[lvl];
    const auto vv = static_cast<std::size_t>(v);
    const std::size_t first = lv.copy_of[vv] * static_cast<std::size_t>(lv.n);
    const std::size_t v_local = vv - first;
    const auto M = static_cast<std::size_t>(lv.sample_size);
    const auto ni = static_cast<std::size_t>(lv.n_inner);
    const auto m = static_cast<std::uint64_t>(lv.m);

    std::optional<util::Rng> fixed_rng;
    if (lv.fixed_sampling) fixed_rng.emplace(util::hash_combine(lv.sampling_seed, v_local));
    util::Rng& rng = fixed_rng ? *fixed_rng : lanes_.rngs[lane];

    pulled += static_cast<std::uint64_t>(lv.n_inner);  // the own-block pull (step 1)

    for (std::size_t blk = 0; blk < static_cast<std::size_t>(lv.k); ++blk) {
      std::uint32_t* sample = sample_.data() + blk * M;
      for (std::size_t t = 0; t < M; ++t) {
        sample[t] = static_cast<std::uint32_t>(lv.pick_in_block(rng));
      }
      pulled += M;
      const std::uint64_t* b = dg_b_[lvl].data() + first + blk * ni;
      for (std::size_t t = 0; t < M; ++t) mvals_[t] = b[sample[t]];
      leader_[blk] =
          pulling::sampled_majority(std::span<const std::uint64_t>(mvals_.data(), M), m, scratch_);
    }
    const std::uint64_t B = pulling::sampled_majority(
        std::span<const std::uint64_t>(leader_.data(), static_cast<std::size_t>(lv.k)), m,
        scratch_);

    // R: reuse block B's samples, reading the r digit this time.
    {
      const std::uint32_t* sample = sample_.data() + B * M;
      const std::uint64_t* r = dg_r_[lvl].data() + first + B * ni;
      for (std::size_t t = 0; t < M; ++t) mvals_[t] = r[sample[t]];
    }
    const std::uint64_t R = pulling::sampled_majority(
        std::span<const std::uint64_t>(mvals_.data(), M), static_cast<std::uint64_t>(lv.tau),
        scratch_);

    const std::uint64_t* copy_a = rp_a_[lvl] + first;
    for (std::size_t t = 0; t < M; ++t) sampled_a_[t] = copy_a[lv.pick_in_copy(rng)];
    pulled += M;
    const std::uint64_t king_a = copy_a[R / 3];
    pulled += 1;

    const phaseking::Registers next = phaseking::step_sampled(
        lv.pk, static_cast<int>(R), {rp_a_[lvl][vv], rp_d_[lvl][vv] != 0},
        std::span<const std::uint64_t>(sampled_a_.data(), M), king_a);
    nb_a_[lvl][vv] = next.a;
    nb_d_[lvl][vv] = next.d ? 1 : 0;
  }

  void transition_node(std::size_t lane, NodeId v, int pv, bool memo) {
    // Base kernel (step 1 of the construction, recursed to the bottom): the
    // trivial increment, or one lookup in the shared compiled base table.
    const auto vv = static_cast<std::size_t>(v);
    if (cc_.base.kind == ComposedBase::Kind::kTrivial) {
      const std::uint64_t next = rp_base_[vv] + 1;  // base indices are < num_states
      nb_base_[vv] = next == cc_.base.num_states ? 0 : next;
    } else {
      const int slot = cc_.base.slot[vv];
      const std::size_t first = vv - static_cast<std::size_t>(slot);
      for (std::size_t s = 0; s < static_cast<std::size_t>(cc_.base.n); ++s) {
        base_idx_[s] = static_cast<std::uint8_t>(rp_base_[first + s]);
      }
      nb_base_[vv] = cc_.base.table->next(slot, base_idx_.data());
    }
    // Boosting levels bottom-up: the level order matches the scalar call
    // chain (each wrapper runs its inner transition before its own votes and
    // phase-king step), which keeps the pulling levels' Rng draws in order.
    std::uint64_t pulled = 0;
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      if (cc_.levels[lvl].kind == ComposedLevel::Kind::kBoosted) {
        boosted_step(lvl, v, pv, memo);
      } else {
        pulling_step(lane, lvl, v, pulled);
      }
    }
    detail::Lanes::Cold& ln = lanes_.cold[lane];
    ln.total_pulls += pulled;
    ++ln.pull_samples;
    ln.result.max_pulls_per_round = std::max(ln.result.max_pulls_per_round, pulled);
  }

  void commit(std::size_t lane) {
    const std::size_t off = lane * static_cast<std::size_t>(N_);
    for (const NodeId v : lanes_.correct) {
      const auto vv = static_cast<std::size_t>(v);
      base_[off + vv] = nb_base_[vv];
      for (std::size_t lvl = 0; lvl < L_; ++lvl) {
        a_[lvl][off + vv] = nb_a_[lvl][vv];
        d_[lvl][off + vv] = nb_d_[lvl][vv];
      }
    }
  }

  const BatchConfig& cfg_;
  const ComposedCompiledTable& cc_;
  const counting::CountingAlgorithm& algo_;
  const int N_;
  const std::size_t L_;  // number of boosting levels
  const std::size_t W_;

  detail::Lanes lanes_;
  bool interleaved_ = false;
  bool tower_draws_ = false;  // a fresh-sampling pulling level reads the lane rng
  bool idle_rounds_ = false;  // non-forging rounds skip begin_round
  std::uint64_t active_ = 0;  // bitmask of lanes still running

  // Master field representation, [lane * N + node].
  std::vector<std::uint64_t> base_;
  std::vector<std::vector<std::uint64_t>> a_;  // [level][lane * N + node]
  std::vector<std::vector<std::uint8_t>> d_;

  // Received view of the lane/receiver currently being advanced, [node]:
  // reads go through the rp_ pointers, which alias the master slice on
  // fault-free runs and the rv_ copy-with-forgeries buffers otherwise.
  // dg_b_ / dg_r_ are the view's vote digits, [level][node].
  std::vector<std::uint64_t> rv_base_;
  std::vector<std::vector<std::uint64_t>> rv_a_;
  std::vector<std::vector<std::uint8_t>> rv_d_;
  const std::uint64_t* rp_base_ = nullptr;
  std::vector<const std::uint64_t*> rp_a_;
  std::vector<const std::uint8_t*> rp_d_;
  std::vector<std::vector<std::uint64_t>> dg_b_, dg_r_;

  // Next-state fields of the lane currently being advanced, [node].
  std::vector<std::uint64_t> nb_base_;
  std::vector<std::vector<std::uint64_t>> nb_a_;
  std::vector<std::vector<std::uint8_t>> nb_d_;

  // Forged profiles (profiled mode). frs_ is each lane's ForgedRound storage
  // (reused across rounds); pf_* are the decomposed per-lane profile fields,
  // [lane * S_ + profile * |faulty| + k]; prof_node_ maps receivers to
  // profiles and order_ is the (possibly profile-grouped) receiver order.
  int nprof_ = 1;
  std::size_t S_ = 0;  // profile slot stride: nprof_ * |faulty|
  std::vector<ForgedRound> frs_;
  std::vector<std::uint64_t> pf_base_;
  std::vector<std::vector<std::uint64_t>> pf_a_;
  std::vector<std::vector<std::uint8_t>> pf_d_;
  std::vector<std::uint16_t> prof_node_;
  std::vector<NodeId> order_;
  std::vector<std::size_t> count_scratch_;

  // Per-(level copy, profile) tally cache, valid within one profiled lane
  // round; [slot * nprof_ + p_eff].
  std::size_t total_copies_ = 0;
  std::vector<std::size_t> copy_base_;  // [level] -> first slot of its copies
  std::vector<phaseking::Tally> vote_T_;
  std::vector<std::uint8_t> vote_valid_;

  // Per-receiver tally memo (interleaved mode), [slot]: tallies computed
  // this lane-round keyed on the copy's forged field tuple; entry storage
  // persists across rounds so the round loop stays allocation-free once
  // warm.
  struct VoteMemoEntry {
    std::vector<std::uint64_t> key;
    phaseking::Tally tally;
  };
  std::vector<std::vector<NodeId>> copy_faulty_;  // [slot] -> faulty ids in the copy
  std::vector<std::vector<VoteMemoEntry>> vote_memo_;
  std::vector<std::size_t> vote_memo_used_;
  std::vector<std::uint64_t> key_scratch_;

  // Vote / sampling scratch.
  std::vector<std::uint64_t> leader_, mvals_, sampled_a_, outs_;
  std::vector<std::uint32_t> sample_;
  std::vector<std::uint32_t> scratch_;
  std::array<std::uint8_t, 256> base_idx_{};
};

}  // namespace

std::vector<RunResult> run_composed_batch(const BatchConfig& cfg,
                                          const ComposedCompiledTable& cc) {
  std::vector<RunResult> results;
  results.reserve(cfg.seeds.size());
  for (std::size_t start = 0; start < cfg.seeds.size(); start += kLanesPerWord) {
    const std::size_t count = std::min(kLanesPerWord, cfg.seeds.size() - start);
    ComposedBlock block(cfg, cc,
                        std::span<const std::uint64_t>(cfg.seeds).subspan(start, count));
    for (auto& r : block.run()) results.push_back(std::move(r));
  }
  return results;
}

}  // namespace synccount::sim
