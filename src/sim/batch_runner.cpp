#include "sim/batch_runner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>

#include "sim/composed_runner.hpp"
#include "sim/lanes.hpp"
#include "util/check.hpp"

namespace synccount::sim {

namespace {

using counting::CompiledTable;
using counting::NodeId;

constexpr std::size_t kLanesPerWord = 64;
constexpr auto kWords = static_cast<std::size_t>(default_batch_words());
constexpr std::size_t kBlockLanes = kLanesPerWord * kWords;

// Transposes `count` (<= 64) contiguous 2-bit state indices, one byte each,
// into a pair of bitplane words: bit b of byte i lands at bit i of plane b.
// Eight lanes per multiply: masking bit b of every byte of a little-endian
// word and multiplying by 0x0102040810204080 gathers the eight bits, free of
// carries, into the top byte of the product. A byte loop takes the tail.
inline void planes_from_bytes(const std::uint8_t* src, std::size_t count, std::uint64_t& b0,
                              std::uint64_t& b1) noexcept {
  constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
  constexpr std::uint64_t kGather = 0x0102040810204080ULL;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::size_t b = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; b + 8 <= count; b += 8) {
      std::uint64_t x;
      std::memcpy(&x, src + b, sizeof(x));
      lo |= (((x & kLowBits) * kGather) >> 56) << b;
      hi |= ((((x >> 1) & kLowBits) * kGather) >> 56) << b;
    }
  }
  for (; b < count; ++b) {
    const auto v = static_cast<std::uint64_t>(src[b]);
    lo |= (v & 1) << b;
    hi |= ((v >> 1) & 1) << b;
  }
  b0 = lo;
  b1 = hi;
}

// One block of up to 512 lanes advanced in lockstep. Every bitplane is an
// array of kWords uint64_t, so the word-wise loops below auto-vectorise; a
// short block leaves its spare lanes inactive, and every plane consumer
// masks with active_. The layout-independent per-lane state (rng, adversary,
// checker, materialised states) lives in the shared lane harness.
class Block {
 public:
  using Mask = std::array<std::uint64_t, kWords>;

  Block(const BatchConfig& cfg, const counting::TableAlgorithm& algo,
        std::span<const std::uint64_t> seeds)
      : cfg_(cfg),
        algo_(algo),
        ct_(algo.compiled()),
        n_(ct_.n),
        ns_(ct_.num_states),
        W_(seeds.size()),
        bit_sliced_(ns_ <= 4),
        lanes_(cfg, algo, seeds) {
    SC_REQUIRE(W_ <= kBlockLanes, "batch block overflow");
    const auto nn = static_cast<std::size_t>(n_);
    const std::vector<NodeId>& correct = lanes_.correct;
    sender_kind_.assign(nn, -1);
    for (std::size_t k = 0; k < lanes_.faulty_ids.size(); ++k) {
      sender_kind_[static_cast<std::size_t>(lanes_.faulty_ids[k])] = static_cast<int>(k);
    }
    prof_.assign(correct.size(), 0);

    if (bit_sliced_) {
      p_.assign(nn, {});
      np_.assign(nn, {});
      eqc_.assign(nn, {});
      eqp_.assign(nn, nullptr);
      // Output planes: hv_[j][b] is the set of state values whose output has
      // bit b set for correct node j; ORing their equality masks yields the
      // node's output bitplane.
      std::uint64_t max_out = 0;
      for (const NodeId i : correct) {
        for (std::uint64_t v = 0; v < ns_; ++v) {
          max_out = std::max<std::uint64_t>(max_out, ct_.out(i, static_cast<std::uint8_t>(v)));
        }
      }
      out_bits_ = static_cast<int>(std::bit_width(max_out));
      hv_.assign(correct.size() * static_cast<std::size_t>(out_bits_), 0);
      ob_.assign(correct.size() * static_cast<std::size_t>(out_bits_), Mask{});
      for (std::size_t j = 0; j < correct.size(); ++j) {
        for (int b = 0; b < out_bits_; ++b) {
          std::uint8_t mask = 0;
          for (std::uint64_t v = 0; v < ns_; ++v) {
            if ((ct_.out(correct[j], static_cast<std::uint8_t>(v)) >> b) & 1) {
              mask |= static_cast<std::uint8_t>(1u << v);
            }
          }
          hv_[j * static_cast<std::size_t>(out_bits_) + static_cast<std::size_t>(b)] = mask;
        }
      }
    } else {
      SC_CHECK(ct_.g.size() < (1ULL << 31), "table too large for the SoA kernel");
      cur_.assign(nn * W_, 0);
      nxt_.assign(nn * W_, 0);
      acc_.assign(W_, 0);
    }

    for (std::size_t l = 0; l < W_; ++l) {
      const std::vector<State>& states = lanes_.cold[l].states;
      for (int i = 0; i < n_; ++i) {
        set_idx(i, l, static_cast<std::uint8_t>(
                          algo_.state_to_index(states[static_cast<std::size_t>(i)])));
      }
      active_[l / kLanesPerWord] |= 1ULL << (l % kLanesPerWord);
    }
    frs_.resize(W_);
  }

  std::vector<RunResult> run() {
    const bool recording = cfg_.record_outputs || cfg_.record_states;
    const std::vector<NodeId>& correct = lanes_.correct;
    for (std::uint64_t round = 0; round < cfg_.max_rounds && mask_any(active_); ++round) {
      // --- Round summary: outputs + agreement --------------------------------
      // Bit-sliced kernel: one pass over the state bitplanes yields, for all
      // lanes at once, each correct node's output planes and the "all correct
      // outputs equal" mask; the per-lane work collapses to one
      // observe_summary call. The SoA kernel summarises per lane from the
      // byte rows.
      Mask agreed;
      agreed.fill(~0ULL);
      if (bit_sliced_) {
        for (const NodeId i : correct) {
          eqc_[static_cast<std::size_t>(i)] = eq_masks(p_[static_cast<std::size_t>(i)]);
        }
        const auto ob = static_cast<std::size_t>(out_bits_);
        for (std::size_t j = 0; j < correct.size(); ++j) {
          const auto& eq = eqc_[static_cast<std::size_t>(correct[j])];
          for (std::size_t b = 0; b < ob; ++b) {
            const std::uint8_t states_with_bit = hv_[j * ob + b];
            Mask plane{};
            for (std::uint64_t v = 0; v < ns_; ++v) {
              if ((states_with_bit >> v) & 1) {
                for (std::size_t w = 0; w < kWords; ++w) plane[w] |= eq[v][w];
              }
            }
            ob_[j * ob + b] = plane;
          }
        }
        for (std::size_t j = 1; j < correct.size(); ++j) {
          for (std::size_t b = 0; b < ob; ++b) {
            for (std::size_t w = 0; w < kWords; ++w) {
              agreed[w] &= ~(ob_[j * ob + b][w] ^ ob_[b][w]);
            }
          }
        }
      }

      const bool will_forge = lanes_.will_forge();

      // --- Per-lane pass: checker, recording, early exit, adversary ----------
      // Lane-internal order matches the scalar runner exactly: observe,
      // record, early-exit check, then the adversary's whole round (forged
      // below, begin_round plus every message query in the scalar call
      // order).
      for (std::size_t w = 0; w < kWords; ++w) {
        for (std::uint64_t m = active_[w]; m; m &= m - 1) {
          const auto bit = static_cast<std::size_t>(std::countr_zero(m));
          const std::size_t l = w * kLanesPerWord + bit;
          bool stop;
          if (bit_sliced_) {
            std::uint64_t value = 0;
            for (int b = 0; b < out_bits_; ++b) {
              value |= ((ob_[static_cast<std::size_t>(b)][w] >> bit) & 1) << b;
            }
            stop = lanes_.observe(l, ((agreed[w] >> bit) & 1) != 0, value);
          } else {
            bool lane_agreed = true;
            const std::uint64_t first = ct_.out(correct.front(), idx_of(correct.front(), l));
            for (std::size_t j = 1; j < correct.size(); ++j) {
              if (ct_.out(correct[j], idx_of(correct[j], l)) != first) {
                lane_agreed = false;
                break;
              }
            }
            stop = lanes_.observe(l, lane_agreed, first);
          }
          if (recording) record_lane(l);
          if (stop) {
            active_[w] &= ~(1ULL << bit);
            continue;
          }
          if (will_forge || lanes_.passive_rounds) continue;
          if (!lanes_.state_oblivious) refresh_states(l);
          lanes_.begin_round(l, round, algo_);
        }
      }
      // Forging runs below the per-lane pass so that one lane-batched
      // adversary call can serve the whole block. The deferral is
      // unobservable: nothing between a lane's observe and its forging draws
      // from its rng, and lanes are independent streams.
      if (will_forge) {
        forge_lanes(round);
        lanes_.static_forged = lanes_.static_forge;
      }
      if (!mask_any(active_)) break;

      // --- Transition: all lanes in one pass ---------------------------------
      if (bit_sliced_) {
        transition_bit_sliced();
      } else {
        transition_soa();
      }
    }
    return lanes_.finish();
  }

 private:
  static bool mask_any(const Mask& m) noexcept {
    std::uint64_t r = 0;
    for (std::size_t w = 0; w < kWords; ++w) r |= m[w];
    return r != 0;
  }

  std::uint8_t idx_of(int node, std::size_t lane) const noexcept {
    if (bit_sliced_) {
      const auto& p = p_[static_cast<std::size_t>(node)];
      const std::size_t w = lane / kLanesPerWord;
      const std::size_t bit = lane % kLanesPerWord;
      return static_cast<std::uint8_t>(((p[0][w] >> bit) & 1) | (((p[1][w] >> bit) & 1) << 1));
    }
    return cur_[static_cast<std::size_t>(node) * W_ + lane];
  }

  // Scatter a 2-bit state index into the lane's slot of a bitplane pair.
  static void set_planes(std::array<Mask, 2>& p, std::size_t lane, std::uint8_t v) noexcept {
    const std::size_t w = lane / kLanesPerWord;
    const std::size_t bit = lane % kLanesPerWord;
    p[0][w] = (p[0][w] & ~(1ULL << bit)) | (static_cast<std::uint64_t>(v & 1) << bit);
    p[1][w] = (p[1][w] & ~(1ULL << bit)) | (static_cast<std::uint64_t>((v >> 1) & 1) << bit);
  }

  void set_idx(int node, std::size_t lane, std::uint8_t v) noexcept {
    if (bit_sliced_) {
      set_planes(p_[static_cast<std::size_t>(node)], lane, v);
    } else {
      cur_[static_cast<std::size_t>(node) * W_ + lane] = v;
    }
  }

  // Establishes this round's profile geometry from the first forging lane:
  // the profile count, the correct-receiver-to-profile map, and the forged
  // plane / byte-row storage ((profile, sender) slots).
  void set_profiles(const ForgedRound& fr) {
    lanes_.check_profiles(fr);
    nprof_ = fr.num_profiles;
    const std::size_t slots = static_cast<std::size_t>(nprof_) * lanes_.faulty_ids.size();
    if (bit_sliced_) {
      if (fpp_.size() < slots) {
        fpp_.resize(slots);
        eqf_.resize(slots);
      }
    } else if (fbp_.size() < slots * W_) {
      fbp_.resize(slots * W_);
    }
    const std::vector<NodeId>& correct = lanes_.correct;
    for (std::size_t j = 0; j < correct.size(); ++j) {
      prof_[j] = fr.profile_of.empty() ? 0 : fr.profile_of[static_cast<std::size_t>(correct[j])];
    }
  }

  // Forges the round for every lane still in active_. Tries the lane-batched
  // index entry point first -- one virtual call and one flat slot-major index
  // buffer for the whole block -- and falls back to per-lane forge_block the
  // first time the adversary declines.
  void forge_lanes(std::uint64_t round) {
    const std::vector<NodeId>& faulty_ids = lanes_.faulty_ids;
    const std::size_t nf = faulty_ids.size();
    if (lanes_batched_) {
      if (fidx_.empty()) fidx_.assign(lanes_.correct.size() * nf * W_, 0);
      ForgedRound& fr = frs_.front();
      if (lanes_.advs.front()->forge_lanes_idx(
              round, algo_, faulty_ids, lanes_.correct, std::span<util::Rng>(lanes_.rngs),
              std::span<const std::uint64_t>(active_), fidx_.data(), fr)) {
        set_profiles(fr);
        scatter_forged(static_cast<std::size_t>(nprof_) * nf);
        return;
      }
      // Declining is rng-neutral (see the contract), so the per-lane
      // fallback below re-forges from an untouched stream.
      lanes_batched_ = false;
    }
    const ForgedRound* first = nullptr;
    for (std::size_t w = 0; w < kWords; ++w) {
      for (std::uint64_t m = active_[w]; m; m &= m - 1) {
        const std::size_t l = w * kLanesPerWord + static_cast<std::size_t>(std::countr_zero(m));
        if (!lanes_.state_oblivious) refresh_states(l);
        ForgedRound& fr = frs_[l];
        lanes_.forge_block(l, round, algo_, fr);
        if (first == nullptr) {
          first = &fr;
          set_profiles(fr);
        }
        lanes_.check_lane(fr, *first);
        for (std::size_t s = 0; s < fr.states.size(); ++s) {
          // bits = ceil_log2(ns) keeps the raw field below 2*ns, so the
          // canonical reduction is a conditional subtract, not a divide.
          std::uint64_t v = fr.states[s].get_bits(0, ct_.bits);
          if (v >= ns_) v -= ns_;
          store_forged(s, l, static_cast<std::uint8_t>(v));
        }
      }
    }
  }

  // Moves the lane-batched index buffer (fidx_, slot-major: [slot * W + lane])
  // into the kernel's forged storage. The SoA rows ARE that layout, so the
  // buffer is copied row-wise. Bit-sliced planes are rebuilt one whole word
  // at a time from 64 contiguous bytes -- per-lane set_planes would
  // read-modify-write the same plane word 64 times in a serial dependency
  // chain. Inactive lanes contribute stale bits; that is fine, every plane
  // consumer masks with active_.
  void scatter_forged(std::size_t slots) {
    if (!bit_sliced_) {
      std::copy_n(fidx_.data(), slots * W_, fbp_.data());
      return;
    }
    for (std::size_t s = 0; s < slots; ++s) {
      const std::uint8_t* row = fidx_.data() + s * W_;
      for (std::size_t w = 0; w < kWords; ++w) {
        const std::size_t base = w * kLanesPerWord;
        if (base >= W_) break;
        planes_from_bytes(row + base, std::min(kLanesPerWord, W_ - base), fpp_[s][0][w],
                          fpp_[s][1][w]);
      }
    }
  }

  void store_forged(std::size_t slot, std::size_t lane, std::uint8_t v) noexcept {
    if (bit_sliced_) {
      set_planes(fpp_[slot], lane, v);
    } else {
      fbp_[slot * W_ + lane] = v;
    }
  }

  void refresh_states(std::size_t lane) {
    std::vector<State>& states = lanes_.cold[lane].states;
    for (const NodeId i : lanes_.correct) {
      State s;
      s.set_bits(0, ct_.bits, idx_of(i, lane));
      states[static_cast<std::size_t>(i)] = s;
    }
  }

  void record_lane(std::size_t lane) {
    const std::vector<NodeId>& correct = lanes_.correct;
    RunResult& result = lanes_.cold[lane].result;
    if (cfg_.record_outputs) {
      std::vector<std::uint64_t> outs(correct.size());
      for (std::size_t j = 0; j < correct.size(); ++j) {
        outs[j] = ct_.out(correct[j], idx_of(correct[j], lane));
      }
      result.outputs.push_back(std::move(outs));
    }
    if (cfg_.record_states) {
      refresh_states(lane);
      result.states.push_back(lanes_.cold[lane].states);
    }
  }

  // eq[v] = mask of lanes whose 2-bit plane value equals v.
  static std::array<Mask, 4> eq_masks(const std::array<Mask, 2>& p) noexcept {
    std::array<Mask, 4> e;
    for (std::size_t w = 0; w < kWords; ++w) {
      e[0][w] = ~p[0][w] & ~p[1][w];
      e[1][w] = p[0][w] & ~p[1][w];
      e[2][w] = ~p[0][w] & p[1][w];
      e[3][w] = p[0][w] & p[1][w];
    }
    return e;
  }

  void transition_bit_sliced() {
    const auto nn = static_cast<std::size_t>(n_);
    const std::size_t nf = lanes_.faulty_ids.size();
    const std::vector<NodeId>& correct = lanes_.correct;
    // eqc_ (equality bitplanes of the true states, shared by every receiver
    // because correct senders broadcast) was computed by the round summary;
    // each (profile, sender) forgery gets its own planes, shared by all
    // receivers mapped to that profile.
    for (std::size_t s = 0; s < static_cast<std::size_t>(nprof_) * nf; ++s) {
      eqf_[s] = eq_masks(fpp_[s]);
    }
    for (std::size_t j = 0; j < correct.size(); ++j) {
      const NodeId i = correct[j];
      const std::uint64_t* st = ct_.stride.data() + static_cast<std::size_t>(i) * nn;
      // Per-sender equality masks as seen by this receiver's profile.
      const std::size_t pbase = static_cast<std::size_t>(prof_[j]) * nf;
      for (std::size_t s = 0; s < nn; ++s) {
        const int k = sender_kind_[s];
        eqp_[s] = k < 0 ? &eqc_[s] : &eqf_[pbase + static_cast<std::size_t>(k)];
      }
      // Depth-first enumeration of the live part of the index space: a
      // branch dies as soon as no active lane matches its value prefix, so
      // after stabilisation (all lanes agreeing) a round costs O(n) words.
      Mask np0{};
      Mask np1{};
      const auto dfs = [&](auto&& self, std::size_t s, const Mask& mask,
                           std::uint64_t off) -> void {
        if (s == nn) {
          const std::uint8_t t = ct_.g[off];
          if (t & 1) {
            for (std::size_t w = 0; w < kWords; ++w) np0[w] |= mask[w];
          }
          if (t & 2) {
            for (std::size_t w = 0; w < kWords; ++w) np1[w] |= mask[w];
          }
          return;
        }
        const auto& e = *eqp_[s];
        for (std::uint64_t v = 0; v < ns_; ++v) {
          Mask sub;
          std::uint64_t alive = 0;
          for (std::size_t w = 0; w < kWords; ++w) {
            sub[w] = mask[w] & e[v][w];
            alive |= sub[w];
          }
          if (alive != 0) self(self, s + 1, sub, off + st[s] * v);
        }
      };
      dfs(dfs, 0, active_, ct_.node_base[static_cast<std::size_t>(i)]);
      np_[static_cast<std::size_t>(i)] = {np0, np1};
    }
    for (const NodeId i : correct) {
      p_[static_cast<std::size_t>(i)] = np_[static_cast<std::size_t>(i)];
    }
  }

  void transition_soa() {
    const auto nn = static_cast<std::size_t>(n_);
    const std::size_t nf = lanes_.faulty_ids.size();
    const std::vector<NodeId>& correct = lanes_.correct;
    for (std::size_t j = 0; j < correct.size(); ++j) {
      const NodeId i = correct[j];
      const std::uint64_t* st = ct_.stride.data() + static_cast<std::size_t>(i) * nn;
      const std::size_t pbase = static_cast<std::size_t>(prof_[j]) * nf;
      std::fill(acc_.begin(), acc_.end(),
                static_cast<std::uint32_t>(ct_.node_base[static_cast<std::size_t>(i)]));
      for (std::size_t s = 0; s < nn; ++s) {
        const int k = sender_kind_[s];
        const std::uint8_t* src =
            k < 0 ? cur_.data() + s * W_
                  : fbp_.data() + (pbase + static_cast<std::size_t>(k)) * W_;
        const auto sv = static_cast<std::uint32_t>(st[s]);
        for (std::size_t l = 0; l < W_; ++l) acc_[l] += sv * src[l];
      }
      std::uint8_t* dst = nxt_.data() + static_cast<std::size_t>(i) * W_;
      for (std::size_t l = 0; l < W_; ++l) dst[l] = ct_.g[acc_[l]];
    }
    for (const NodeId i : correct) {
      std::copy_n(nxt_.data() + static_cast<std::size_t>(i) * W_, W_,
                  cur_.data() + static_cast<std::size_t>(i) * W_);
    }
  }

  const BatchConfig& cfg_;
  const counting::TableAlgorithm& algo_;
  const CompiledTable& ct_;
  const int n_;
  const std::uint64_t ns_;
  const std::size_t W_;
  const bool bit_sliced_;  // num_states <= 4: bitplanes, else SoA byte rows

  detail::Lanes lanes_;
  std::vector<int> sender_kind_;  // -1 = correct, else index into faulty_ids
  Mask active_{};                 // bitmask of lanes still running
  std::vector<ForgedRound> frs_;  // per-lane forgery scratch (persists across rounds)

  // Lane-batched forging: the slot-major [slot * W + lane] index buffer the
  // adversary fills, and whether the lane-batched entry point is still worth
  // trying (cleared on its first decline).
  std::vector<std::uint8_t> fidx_;
  bool lanes_batched_ = true;

  // This round's profile geometry (persists across rounds for static
  // forgers): profile count, per-correct-receiver profile index, and the
  // forged (profile, sender) slots.
  int nprof_ = 1;
  std::vector<std::uint16_t> prof_;  // [correct j] -> profile index

  // Bit-sliced representation: [node] -> {bit0 plane, bit1 plane}.
  std::vector<std::array<Mask, 2>> p_, np_;
  std::vector<std::array<Mask, 2>> fpp_;         // [profile * |faulty| + k]
  std::vector<std::array<Mask, 4>> eqc_;         // [node] true-state equality planes
  std::vector<std::array<Mask, 4>> eqf_;         // [profile * |faulty| + k]
  std::vector<const std::array<Mask, 4>*> eqp_;  // [sender] view of the current receiver
  int out_bits_ = 0;              // planes per output value
  std::vector<std::uint8_t> hv_;  // [correct j * out_bits_ + b] state-value mask
  std::vector<Mask> ob_;          // [correct j * out_bits_ + b] output bitplane

  // SoA representation: [node * W + lane] canonical state indices; forged
  // rows are [(profile * |faulty| + k) * W + lane].
  std::vector<std::uint8_t> cur_, nxt_, fbp_;
  std::vector<std::uint32_t> acc_;
};

}  // namespace

std::vector<RunResult> run_batch(const BatchConfig& cfg) {
  SC_CHECK(cfg.algo != nullptr, "no algorithm given");
  SC_CHECK(cfg.adversary != nullptr, "no adversary factory given");

  const auto table = std::dynamic_pointer_cast<const counting::TableAlgorithm>(cfg.algo);
  if (table == nullptr) {
    SC_CHECK(cfg.composed == nullptr || cfg.composed->algo.get() == cfg.algo.get(),
             "BatchConfig::composed was compiled from a different algorithm");
    const auto composed =
        cfg.composed != nullptr ? cfg.composed : ComposedCompiledTable::compile(cfg.algo);
    SC_CHECK(composed != nullptr,
             "run_batch: unsupported algorithm (need a TableAlgorithm or a "
             "boosted/pulling tower over a trivial or table base): " +
                 cfg.algo->name());
    return run_composed_batch(cfg, *composed);
  }

  std::vector<RunResult> results;
  results.reserve(cfg.seeds.size());
  for (std::size_t start = 0; start < cfg.seeds.size(); start += kBlockLanes) {
    const std::size_t count = std::min(kBlockLanes, cfg.seeds.size() - start);
    Block block(cfg, *table, std::span<const std::uint64_t>(cfg.seeds).subspan(start, count));
    for (auto& r : block.run()) results.push_back(std::move(r));
  }
  return results;
}

}  // namespace synccount::sim
