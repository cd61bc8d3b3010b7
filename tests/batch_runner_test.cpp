// Tests for the bit-parallel batched execution backend: every lane of
// run_batch must be bit-identical to run_execution on the same seed -- across
// tables (cyclic / uniform / per-node / wide, so both the bit-sliced and the
// SoA kernel), adversaries, fault placements, batch widths and early-exit
// patterns -- and the engine's batched dispatch must leave aggregates
// bit-identical to the forced-scalar backend for any thread count.
#include <gtest/gtest.h>

#include "boosting/planner.hpp"
#include "counting/table_algorithm.hpp"
#include "sim/adversaries.hpp"
#include "sim/batch_runner.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "synthesis/known_tables.hpp"

namespace {

using namespace synccount;

using TablePtr = std::shared_ptr<const counting::TableAlgorithm>;

TablePtr table3() {
  return std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
}

TablePtr table4() {
  return std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_4states());
}

// A per-node table (the symmetry branch the known tables don't cover).
// Behaviour is arbitrary; the tests only compare backends against each other.
TablePtr per_node_table(std::uint64_t num_states) {
  counting::TransitionTable t;
  t.n = 3;
  t.f = 0;
  t.num_states = num_states;
  t.modulus = 2;
  t.symmetry = counting::Symmetry::kPerNode;
  t.g.resize(3 * num_states * num_states * num_states);
  for (std::size_t i = 0; i < t.g.size(); ++i) {
    t.g[i] = static_cast<std::uint8_t>((i * 5 + 1) % num_states);
  }
  t.h.resize(3 * num_states);
  for (std::size_t i = 0; i < t.h.size(); ++i) {
    t.h[i] = static_cast<std::uint8_t>((i + 1) / 2 % 2);
  }
  t.label = "per-node-test";
  return std::make_shared<counting::TableAlgorithm>(std::move(t));
}

// num_states > 4: runs on the SoA kernel.
TablePtr wide_table() {
  counting::TransitionTable t;
  t.n = 3;
  t.f = 0;
  t.num_states = 5;
  t.modulus = 2;
  t.symmetry = counting::Symmetry::kUniform;
  t.g.resize(125);
  for (std::size_t i = 0; i < t.g.size(); ++i) t.g[i] = static_cast<std::uint8_t>((i * 7 + 3) % 5);
  t.h = {0, 1, 0, 1, 1};
  t.label = "wide-test";
  return std::make_shared<counting::TableAlgorithm>(std::move(t));
}

// An n = 4, f = 1 table with 5 states: the SoA kernel under a Byzantine
// fault. Behaviour is arbitrary, as above.
TablePtr table5() {
  counting::TransitionTable t;
  t.n = 4;
  t.f = 1;
  t.num_states = 5;
  t.modulus = 3;
  t.symmetry = counting::Symmetry::kUniform;
  t.g.resize(625);
  for (std::size_t i = 0; i < t.g.size(); ++i) {
    t.g[i] = static_cast<std::uint8_t>((i * 7 + i / 25 + 3) % 5);
  }
  t.h = {0, 1, 2, 1, 0};
  t.label = "5states-test";
  return std::make_shared<counting::TableAlgorithm>(std::move(t));
}

// An n = 7, f = 2 table: with two faults a mirror sender's rotating victim
// can be the other faulty node, so the forgers read nominal (faulty) rows.
// 3 states run bit-sliced, 5 states SoA. Behaviour is arbitrary, as above.
TablePtr table7(std::uint64_t num_states) {
  counting::TransitionTable t;
  t.n = 7;
  t.f = 2;
  t.num_states = num_states;
  t.modulus = 2;
  t.symmetry = counting::Symmetry::kUniform;
  t.g.resize(t.expected_g_size());
  for (std::size_t i = 0; i < t.g.size(); ++i) {
    t.g[i] = static_cast<std::uint8_t>((i * 7 + i / 49 + 1) % num_states);
  }
  t.h.resize(num_states);
  for (std::size_t v = 0; v < num_states; ++v) t.h[v] = static_cast<std::uint8_t>(v % 2);
  t.label = "7nodes-test";
  return std::make_shared<counting::TableAlgorithm>(std::move(t));
}

// A one-state n = 4, f = 1 table: state_bits == 0, so a random state costs
// no draw. Outputs are constant; only the rng streams are of interest.
TablePtr one_state_table() {
  counting::TransitionTable t;
  t.n = 4;
  t.f = 1;
  t.num_states = 1;
  t.modulus = 2;
  t.symmetry = counting::Symmetry::kUniform;
  t.g = {0};
  t.h = {0};
  t.label = "1state-test";
  return std::make_shared<counting::TableAlgorithm>(std::move(t));
}

struct RunOpts {
  std::vector<bool> faulty;
  std::uint64_t max_rounds = 200;
  std::uint64_t margin = 30;
  std::uint64_t stop_after_stable = 0;
  bool record_outputs = false;
  bool record_states = false;
  std::vector<sim::State> initial;
};

sim::RunResult scalar_run(const TablePtr& algo, const std::string& adversary,
                          std::uint64_t seed, const RunOpts& opt) {
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.faulty = opt.faulty;
  cfg.max_rounds = opt.max_rounds;
  cfg.seed = seed;
  cfg.stop_after_stable = opt.stop_after_stable;
  cfg.record_outputs = opt.record_outputs;
  cfg.record_states = opt.record_states;
  cfg.initial = opt.initial;
  auto adv = sim::make_adversary(adversary);
  return sim::run_execution(cfg, *adv, opt.margin);
}

std::vector<sim::RunResult> batch_run(const TablePtr& algo, const std::string& adversary,
                                      const std::vector<std::uint64_t>& seeds,
                                      const RunOpts& opt) {
  sim::BatchConfig bc;
  bc.algo = algo;
  bc.faulty = opt.faulty;
  bc.max_rounds = opt.max_rounds;
  bc.margin = opt.margin;
  bc.stop_after_stable = opt.stop_after_stable;
  bc.record_outputs = opt.record_outputs;
  bc.record_states = opt.record_states;
  bc.initial = opt.initial;
  bc.adversary = [&adversary] { return sim::make_adversary(adversary); };
  bc.seeds = seeds;
  return sim::run_batch(bc);
}

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b,
                     const std::string& context) {
  EXPECT_EQ(a.rounds, b.rounds) << context;
  EXPECT_EQ(a.stabilisation_round, b.stabilisation_round) << context;
  EXPECT_EQ(a.suffix_length, b.suffix_length) << context;
  EXPECT_EQ(a.max_window, b.max_window) << context;
  EXPECT_EQ(a.stabilised, b.stabilised) << context;
  EXPECT_EQ(a.max_pulls_per_round, b.max_pulls_per_round) << context;
  EXPECT_EQ(a.avg_pulls_per_round, b.avg_pulls_per_round) << context;
  EXPECT_EQ(a.correct_ids, b.correct_ids) << context;
  EXPECT_EQ(a.outputs, b.outputs) << context;
  EXPECT_EQ(a.states, b.states) << context;
}

TEST(BatchRunner, MatchesScalarAcrossAdversariesPlacementsAndKernels) {
  // The 3- and 4-state tables run bit-sliced, the 5-state table SoA.
  const std::vector<std::pair<std::string, TablePtr>> tables = {
      {"3states", table3()}, {"4states", table4()}, {"5states", table5()}};
  const std::vector<std::string> adversaries = {"silent", "echo",          "random",   "split",
                                                "mirror", "targeted-vote", "lookahead"};
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 12345, 0xDEAD};
  for (const auto& [tname, algo] : tables) {
    for (const auto& adv : adversaries) {
      for (const bool with_fault : {false, true}) {
        RunOpts opt;
        if (with_fault) opt.faulty = sim::faults_spread(4, 1);
        const auto batch = batch_run(algo, adv, seeds, opt);
        ASSERT_EQ(batch.size(), seeds.size());
        for (std::size_t i = 0; i < seeds.size(); ++i) {
          const auto scalar = scalar_run(algo, adv, seeds[i], opt);
          expect_same_run(batch[i], scalar,
                          tname + "/" + adv + (with_fault ? "/f1" : "/f0") +
                              "/seed=" + std::to_string(seeds[i]));
        }
      }
    }
  }
}

TEST(BatchRunner, WidthsDoNotChangeResults) {
  // Lanes stabilise (and early-exit) at different rounds within one batch;
  // widths 1, 7, 64 and 100 cover partial and multi-word single blocks
  // (MultiWordWidthsMatchScalar covers batches of more than one block).
  const auto algo = table3();
  RunOpts opt;
  opt.faulty = sim::faults_spread(4, 1);
  opt.max_rounds = 400;
  opt.stop_after_stable = 35;
  std::vector<std::uint64_t> seeds(100);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xB000 + i * 17;

  std::vector<sim::RunResult> reference;
  for (const auto s : seeds) reference.push_back(scalar_run(algo, "random", s, opt));

  for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{100}}) {
    const std::vector<std::uint64_t> sub(seeds.begin(), seeds.begin() + width);
    const auto batch = batch_run(algo, "random", sub, opt);
    ASSERT_EQ(batch.size(), width);
    std::uint64_t distinct_rounds = 0;
    for (std::size_t i = 0; i < width; ++i) {
      expect_same_run(batch[i], reference[i], "width=" + std::to_string(width) +
                                                  "/seed=" + std::to_string(sub[i]));
      if (i > 0 && batch[i].rounds != batch[0].rounds) ++distinct_rounds;
    }
    if (width >= 64) {
      EXPECT_GT(distinct_rounds, 0u)
          << "expected lanes to early-exit at different rounds";
    }
  }
}

TEST(BatchRunner, MultiWordWidthsMatchScalar) {
  // Lane counts past one 64-bit word and past one 512-lane block (65, 128,
  // 257, 511, 513, 1025) on both kernels: the multi-word planes, the short
  // final block and the lane-batched adversary forging must stay
  // bit-identical to run_execution regardless of how many executions share a
  // table pass, for the state-oblivious (split, random) and the
  // state-reading (mirror, targeted-vote, lookahead) index forgers. 65, 257 and 513
  // leave one lane in the last plane word; 128 is two full words with the
  // rest of the block inactive; 511 ends the block in a 63-lane partial
  // word; 1025 is two full blocks plus a one-lane tail block.
  RunOpts opt;
  opt.faulty = sim::faults_spread(4, 1);
  opt.max_rounds = 48;
  std::vector<std::uint64_t> seeds(1025);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xC000 + i * 13;

  for (const auto& [tname, algo] :
       std::vector<std::pair<std::string, TablePtr>>{{"3states", table3()},
                                                     {"5states", table5()}}) {
    for (const std::string adv : {"split", "random", "mirror", "targeted-vote", "lookahead"}) {
      std::vector<sim::RunResult> reference;
      reference.reserve(seeds.size());
      for (const auto s : seeds) reference.push_back(scalar_run(algo, adv, s, opt));
      for (const std::size_t width : {std::size_t{65}, std::size_t{128}, std::size_t{257},
                                      std::size_t{511}, std::size_t{513}, std::size_t{1025}}) {
        const std::vector<std::uint64_t> sub(seeds.begin(), seeds.begin() + width);
        const auto batch = batch_run(algo, adv, sub, opt);
        ASSERT_EQ(batch.size(), width);
        for (std::size_t i = 0; i < width; ++i) {
          expect_same_run(batch[i], reference[i],
                          tname + "/" + adv + "/width=" + std::to_string(width) +
                              "/seed=" + std::to_string(sub[i]));
        }
      }
    }
  }
}

TEST(BatchRunner, StateReadingForgersMatchScalarWithFaultyVictims) {
  // Two faults on seven nodes: mirror's victim rotation reaches the other
  // faulty node, so its fixed nominal row of the state view is read, and
  // lookahead scores two faulty senders' terms and replays nominal states.
  // The fault-free placement forges nothing. Widths 65 and 513 end in a
  // one-lane word.
  std::vector<std::uint64_t> seeds(513);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xD000 + i * 11;
  const std::vector<std::pair<std::string, std::vector<bool>>> placements = {
      {"prefix", sim::faults_prefix(7, 2)}, {"spread", sim::faults_spread(7, 2)}, {"none", {}}};
  for (const std::uint64_t num_states : {3, 5}) {
    const auto algo = table7(num_states);
    for (const auto& [pname, faulty] : placements) {
      for (const std::string adv : {"mirror", "targeted-vote", "lookahead"}) {
        RunOpts opt;
        opt.faulty = faulty;
        opt.max_rounds = 40;
        for (const std::size_t width : {std::size_t{65}, std::size_t{513}}) {
          const std::vector<std::uint64_t> sub(seeds.begin(), seeds.begin() + width);
          const auto batch = batch_run(algo, adv, sub, opt);
          ASSERT_EQ(batch.size(), width);
          for (std::size_t i = 0; i < width; ++i) {
            expect_same_run(batch[i], scalar_run(algo, adv, sub[i], opt),
                            "|X|=" + std::to_string(num_states) + "/" + pname + "/" + adv +
                                "/width=" + std::to_string(width) +
                                "/seed=" + std::to_string(sub[i]));
          }
        }
      }
    }
  }
}

TEST(BatchRunner, RecordedTracesMatchScalar) {
  const auto algo = table4();
  RunOpts opt;
  opt.faulty = sim::faults_prefix(4, 1);
  opt.max_rounds = 60;
  opt.record_outputs = true;
  opt.record_states = true;
  const std::vector<std::uint64_t> seeds = {5, 6, 7};
  const auto batch = batch_run(algo, "split", seeds, opt);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto scalar = scalar_run(algo, "split", seeds[i], opt);
    ASSERT_EQ(batch[i].outputs.size(), scalar.outputs.size());
    ASSERT_EQ(batch[i].states.size(), scalar.states.size());
    expect_same_run(batch[i], scalar, "traces/seed=" + std::to_string(seeds[i]));
  }
}

TEST(BatchRunner, PerNodeSymmetryMatchesScalar) {
  // 2 states run bit-sliced, 5 states SoA.
  for (const std::uint64_t num_states : {2, 5}) {
    const auto algo = per_node_table(num_states);
    RunOpts opt;
    opt.max_rounds = 80;
    const std::vector<std::uint64_t> seeds = {11, 22, 33, 44};
    const auto batch = batch_run(algo, "split", seeds, opt);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      expect_same_run(batch[i], scalar_run(algo, "split", seeds[i], opt),
                      "per-node/|X|=" + std::to_string(num_states) +
                          "/seed=" + std::to_string(seeds[i]));
    }
  }
}

TEST(BatchRunner, WideTableFallsBackToSoA) {
  const auto algo = wide_table();
  RunOpts opt;
  opt.max_rounds = 80;
  const std::vector<std::uint64_t> seeds = {9, 10, 11};
  const auto batch = batch_run(algo, "split", seeds, opt);  // 5 states: SoA
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_same_run(batch[i], scalar_run(algo, "split", seeds[i], opt),
                    "wide/seed=" + std::to_string(seeds[i]));
  }
}

TEST(BatchRunner, FixedInitialStatesMatchScalar) {
  const auto algo = table3();
  RunOpts opt;
  opt.faulty = sim::faults_spread(4, 1);
  opt.max_rounds = 50;
  opt.initial.resize(4);
  for (int i = 0; i < 4; ++i) opt.initial[static_cast<std::size_t>(i)].set_bits(0, 8, 0xA5u + i);
  const std::vector<std::uint64_t> seeds = {71, 72};
  const auto batch = batch_run(algo, "mirror", seeds, opt);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_same_run(batch[i], scalar_run(algo, "mirror", seeds[i], opt),
                    "initial/seed=" + std::to_string(seeds[i]));
  }
}

// A forge_block override that breaks the ForgedRound contract: either a
// receiver map shorter than n, or a correct receiver mapped past the last
// profile.
class BadGeometryAdversary final : public sim::Adversary {
 public:
  explicit BadGeometryAdversary(bool short_map) : short_map_(short_map) {}
  sim::State message(std::uint64_t, sim::NodeId, sim::NodeId, std::span<const sim::State>,
                     const sim::CountingAlgorithm&, util::Rng&) override {
    return {};
  }
  void forge_block(std::uint64_t, std::span<const sim::State> true_states,
                   const sim::CountingAlgorithm&, std::span<const sim::NodeId> faulty_ids,
                   std::span<const sim::NodeId>, util::Rng&, sim::ForgedRound& out) override {
    out.num_profiles = 2;
    out.states.assign(2 * faulty_ids.size(), sim::State{});
    out.profile_of.assign(short_map_ ? 1 : true_states.size(), 0);
    if (!short_map_) out.profile_of.back() = 7;  // node n-1 is correct below
  }
  std::string name() const override { return "bad-geometry"; }

 private:
  bool short_map_;
};

TEST(BatchRunner, RejectsBadForgedProfileGeometry) {
  // Both blocks validate the geometry in every build type: a flat table and
  // a boosted tower (N = 4) over the same fault placement.
  const std::vector<counting::AlgorithmPtr> algos = {
      table3(), boosting::build_plan(boosting::plan_practical(1, 10))};
  for (const auto& algo : algos) {
    ASSERT_EQ(algo->num_nodes(), 4);
    for (const bool short_map : {true, false}) {
      sim::BatchConfig bc;
      bc.algo = algo;
      bc.faulty = sim::faults_prefix(4, 1);
      bc.max_rounds = 10;
      bc.adversary = [short_map] { return std::make_unique<BadGeometryAdversary>(short_map); };
      bc.seeds = {1, 2, 3};
      EXPECT_THROW(sim::run_batch(bc), std::logic_error)
          << algo->name() << "/short_map=" << short_map;
    }
  }
}

// --- Lane-batched index forging contract -----------------------------------

// Whether two generators are in the same state: equal copies draw equal
// sequences.
bool same_stream(util::Rng a, util::Rng b) {
  for (int i = 0; i < 4; ++i) {
    if (a.next_u64() != b.next_u64()) return false;
  }
  return true;
}

TEST(BatchRunner, StateReadingForgeLanesIdxMatchesForgeBlock) {
  // A random state view over 512 lanes, some inactive: for every active lane
  // the index path writes exactly the canonical indices of that lane's
  // forge_block on the same states and leaves its rng where forge_block
  // does; inactive lanes' rngs are not touched.
  constexpr std::size_t L = 512;
  std::vector<std::uint64_t> active(L / 64, ~0ULL);
  for (std::size_t l = 0; l < L; ++l) {
    if (l % 7 == 3 || l >= 500) active[l / 64] &= ~(1ULL << (l % 64));
  }
  const std::vector<std::pair<TablePtr, std::vector<bool>>> cases = {
      {table3(), sim::faults_prefix(4, 1)},
      {table5(), sim::faults_spread(4, 1)},
      {table7(3), sim::faults_prefix(7, 2)},
      {table7(5), {}}};
  for (const auto& [algo, faulty_vec] : cases) {
    const auto n = static_cast<std::size_t>(algo->num_nodes());
    const std::vector<bool> faulty = faulty_vec.empty() ? std::vector<bool>(n) : faulty_vec;
    const std::vector<sim::NodeId> faulty_ids = sim::fault_ids(faulty);
    std::vector<sim::NodeId> correct;
    for (std::size_t i = 0; i < n; ++i) {
      if (!faulty[i]) correct.push_back(static_cast<sim::NodeId>(i));
    }
    const std::uint64_t ns = *algo->state_count();
    util::Rng gen(0xFEED + n * 31 + ns);
    std::vector<std::uint8_t> view(n * L);
    for (auto& v : view) v = static_cast<std::uint8_t>(gen.next_below(ns));
    for (const std::string adv : {"mirror", "targeted-vote"}) {
      for (const std::uint64_t round : {0, 1, 6}) {
        const std::string ctx = algo->name() + "/f=" + std::to_string(faulty_ids.size()) +
                                "/" + adv + "/round=" + std::to_string(round);
        std::vector<util::Rng> rngs;
        for (std::size_t l = 0; l < L; ++l) rngs.emplace_back(0x5000 + l);
        const std::vector<util::Rng> before = rngs;
        std::vector<std::uint8_t> idx(correct.size() * faulty_ids.size() * L, 0xFF);
        sim::ForgedRound out;
        ASSERT_TRUE(sim::make_adversary(adv)->forge_lanes_idx(round, *algo, faulty_ids, correct,
                                                              view, rngs, active, idx.data(),
                                                              out))
            << ctx;
        for (std::size_t l = 0; l < L; ++l) {
          if (((active[l / 64] >> (l % 64)) & 1) == 0) {
            EXPECT_TRUE(same_stream(rngs[l], before[l])) << ctx << "/inactive lane " << l;
            continue;
          }
          std::vector<sim::State> states(n);
          for (std::size_t i = 0; i < n; ++i) states[i] = algo->state_from_index(view[i * L + l]);
          util::Rng rng = before[l];
          sim::ForgedRound fr;
          sim::make_adversary(adv)->forge_block(round, states, *algo, faulty_ids, correct, rng,
                                                fr);
          ASSERT_EQ(fr.num_profiles, out.num_profiles) << ctx;
          ASSERT_EQ(fr.profile_of, out.profile_of) << ctx;
          for (std::size_t s = 0; s < fr.states.size(); ++s) {
            ASSERT_EQ(idx[s * L + l], algo->state_to_index(fr.states[s]))
                << ctx << "/lane " << l << "/slot " << s;
          }
          EXPECT_TRUE(same_stream(rngs[l], rng)) << ctx << "/lane " << l;
        }
      }
    }
  }
}

TEST(BatchRunner, LookaheadForgeLanesIdxMatchesForgeBlock) {
  // Rounds 0-6 on one lane-path instance against one forge_block instance
  // per lane, so every round after the first re-scores each lane's
  // incumbent: for every active lane the written indices are that lane's
  // forge_block indices and the rngs end in the same state; inactive lanes'
  // rngs are not touched. Table 1, an n = 7 f = 2 table (two faulty
  // senders, nominal replays) and a one-state table (random states draw
  // nothing).
  constexpr std::size_t L = 512;
  std::vector<std::uint64_t> active(L / 64, ~0ULL);
  for (std::size_t l = 0; l < L; ++l) {
    if (l % 5 == 2 || l >= 509) active[l / 64] &= ~(1ULL << (l % 64));
  }
  const std::vector<std::pair<TablePtr, std::vector<bool>>> cases = {
      {table3(), sim::faults_spread(4, 1)},
      {table7(3), sim::faults_prefix(7, 2)},
      {one_state_table(), sim::faults_prefix(4, 1)}};
  for (const auto& [algo, faulty] : cases) {
    const auto n = static_cast<std::size_t>(algo->num_nodes());
    const std::vector<sim::NodeId> faulty_ids = sim::fault_ids(faulty);
    std::vector<sim::NodeId> correct;
    for (std::size_t i = 0; i < n; ++i) {
      if (!faulty[i]) correct.push_back(static_cast<sim::NodeId>(i));
    }
    const std::uint64_t ns = *algo->state_count();
    util::Rng gen(0xBEEF + n * 31 + ns);
    std::vector<util::Rng> rngs;
    for (std::size_t l = 0; l < L; ++l) rngs.emplace_back(0x7000 + l);
    std::vector<util::Rng> ref_rngs = rngs;
    std::vector<std::unique_ptr<sim::Adversary>> refs;
    for (std::size_t l = 0; l < L; ++l) refs.push_back(sim::make_adversary("lookahead"));
    const auto lanes = sim::make_adversary("lookahead");
    std::vector<std::uint8_t> view(n * L);
    for (std::uint64_t round = 0; round <= 6; ++round) {
      const std::string ctx = algo->name() + "/round=" + std::to_string(round);
      for (auto& v : view) v = static_cast<std::uint8_t>(gen.next_below(ns));
      const std::vector<util::Rng> before = rngs;
      std::vector<std::uint8_t> idx(correct.size() * faulty_ids.size() * L, 0xFF);
      sim::ForgedRound out;
      ASSERT_TRUE(lanes->forge_lanes_idx(round, *algo, faulty_ids, correct, view, rngs, active,
                                         idx.data(), out))
          << ctx;
      for (std::size_t l = 0; l < L; ++l) {
        if (((active[l / 64] >> (l % 64)) & 1) == 0) {
          EXPECT_TRUE(same_stream(rngs[l], before[l])) << ctx << "/inactive lane " << l;
          continue;
        }
        std::vector<sim::State> states(n);
        for (std::size_t i = 0; i < n; ++i) states[i] = algo->state_from_index(view[i * L + l]);
        sim::ForgedRound fr;
        refs[l]->forge_block(round, states, *algo, faulty_ids, correct, ref_rngs[l], fr);
        ASSERT_EQ(fr.num_profiles, out.num_profiles) << ctx;
        ASSERT_EQ(fr.profile_of, out.profile_of) << ctx;
        for (std::size_t s = 0; s < fr.states.size(); ++s) {
          ASSERT_EQ(idx[s * L + l], algo->state_to_index(fr.states[s]))
              << ctx << "/lane " << l << "/slot " << s;
        }
        ASSERT_TRUE(same_stream(rngs[l], ref_rngs[l])) << ctx << "/lane " << l;
      }
    }
  }
}

TEST(BatchRunner, StateReadingForgeLanesIdxDeclinesWithoutDrawing) {
  // Without a state view, or on an algorithm whose states have no canonical
  // index (a boosted tower), the state-reading forgers decline and every
  // lane's rng stays bit-identical. Lookahead also declines on a tower with
  // a state view: its search needs a compiled table.
  constexpr std::size_t L = 512;
  const std::vector<std::uint64_t> active(L / 64, ~0ULL);
  const std::vector<counting::AlgorithmPtr> algos = {
      table3(), boosting::build_plan(boosting::plan_practical(1, 10))};
  for (const auto& algo : algos) {
    ASSERT_EQ(algo->num_nodes(), 4);
    const bool enumerable = algo->state_count().has_value();
    const std::vector<sim::NodeId> faulty_ids = {0};
    const std::vector<sim::NodeId> correct = {1, 2, 3};
    const std::vector<std::uint8_t> view(enumerable ? 0 : 4 * L, 0);
    for (const std::string adv : {"mirror", "targeted-vote", "lookahead"}) {
      std::vector<util::Rng> rngs;
      for (std::size_t l = 0; l < L; ++l) rngs.emplace_back(0x6000 + l);
      const std::vector<util::Rng> before = rngs;
      std::vector<std::uint8_t> idx(correct.size() * L, 0);
      sim::ForgedRound out;
      EXPECT_FALSE(sim::make_adversary(adv)->forge_lanes_idx(3, *algo, faulty_ids, correct, view,
                                                             rngs, active, idx.data(), out))
          << algo->name() << "/" << adv;
      for (std::size_t l = 0; l < L; ++l) {
        EXPECT_TRUE(same_stream(rngs[l], before[l])) << algo->name() << "/" << adv << "/" << l;
      }
    }
  }
}

// --- Engine dispatch ---------------------------------------------------------

void expect_same_aggregate(const sim::AggregateResult& a, const sim::AggregateResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.stabilised, b.stabilised);
  EXPECT_EQ(a.max_pulls, b.max_pulls);
  EXPECT_EQ(a.stabilisation.count(), b.stabilisation.count());
  EXPECT_EQ(a.stabilisation.mean(), b.stabilisation.mean());
  EXPECT_EQ(a.stabilisation.stddev(), b.stabilisation.stddev());
  EXPECT_EQ(a.stabilisation.min(), b.stabilisation.min());
  EXPECT_EQ(a.stabilisation.max(), b.stabilisation.max());
  EXPECT_EQ(a.stabilisation.quantile(0.5), b.stabilisation.quantile(0.5));
  EXPECT_EQ(a.stabilisation.quantile(0.95), b.stabilisation.quantile(0.95));
  EXPECT_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_EQ(a.avg_pulls.mean(), b.avg_pulls.mean());
}

sim::ExperimentSpec table_grid_spec() {
  sim::ExperimentSpec spec;
  spec.algo = table3();
  spec.adversaries = {"silent", "split", "random", "lookahead"};
  spec.placements = {{"none", {}}, {"spread", sim::faults_spread(4, 1)}};
  spec.seeds = 70;  // crosses the 64-lane chunk boundary
  spec.stop_after_stable = 40;
  spec.margin = 30;
  return spec;
}

TEST(Engine, BatchedBackendIsBitIdenticalToScalarBackend) {
  auto spec = table_grid_spec();
  const sim::Engine engine(1);

  const auto batched = engine.run(spec);
  spec.backend = sim::Backend::kScalar;
  const auto scalar = engine.run(spec);

  // Every adversary, lookahead included, batches over both placements.
  EXPECT_EQ(batched.batched_cells, 4u * 2u * 70u);
  EXPECT_EQ(scalar.batched_cells, 0u);

  ASSERT_EQ(batched.cells.size(), scalar.cells.size());
  for (std::size_t i = 0; i < batched.cells.size(); ++i) {
    EXPECT_EQ(batched.cells[i].seed, scalar.cells[i].seed);
    EXPECT_EQ(batched.cells[i].adversary, scalar.cells[i].adversary);
    EXPECT_EQ(batched.cells[i].placement, scalar.cells[i].placement);
    expect_same_run(batched.cells[i].result, scalar.cells[i].result,
                    "cell=" + std::to_string(i));
  }
  expect_same_aggregate(batched.total, scalar.total);
  for (std::size_t a = 0; a < spec.adversaries.size(); ++a) {
    for (std::size_t p = 0; p < spec.placements.size(); ++p) {
      expect_same_aggregate(batched.aggregate(a, p), scalar.aggregate(a, p));
    }
  }
}

TEST(Engine, BatchedBackendIsThreadCountIndependent) {
  const auto spec = table_grid_spec();
  const sim::Engine serial(1);
  const sim::Engine parallel4(4);
  const auto a = serial.run(spec);
  const auto b = parallel4.run(spec);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].result.rounds, b.cells[i].result.rounds);
    EXPECT_EQ(a.cells[i].result.stabilisation_round, b.cells[i].result.stabilisation_round);
  }
  expect_same_aggregate(a.total, b.total);
}

}  // namespace
