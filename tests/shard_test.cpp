// Distributed-sweep tests: the serializable AlgorithmSpec / ExperimentSpec /
// AggregateResult codecs round-trip exactly, and sharded execution + merge
// is bit-identical to the single-process engine run -- across shard counts
// 1..5, uneven group splits, and grids on every execution backend
// (bit-sliced table cells, composed boosted/pulling cells, and the same
// grids forced onto the scalar runner).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "boosting/planner.hpp"
#include "counting/algorithm_spec.hpp"
#include "counting/randomized.hpp"
#include "counting/table_algorithm.hpp"
#include "counting/table_io.hpp"
#include "counting/trivial.hpp"
#include "pulling/pulling_counter.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "synthesis/known_tables.hpp"
#include "util/json.hpp"

namespace {

using namespace synccount;

// --- AlgorithmSpec describe/build round-trip ---------------------------------

// A short execution fingerprint: the per-round outputs of every correct node
// under a fixed seed and adversary. Two algorithms with equal fingerprints
// (and equal static parameters) are behaviourally interchangeable for the
// engine.
std::vector<std::vector<std::uint64_t>> fingerprint(const counting::AlgorithmPtr& algo,
                                                    const std::string& adversary) {
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.faulty = sim::faults_spread(algo->num_nodes(), algo->resilience());
  cfg.max_rounds = 40;
  cfg.seed = 0xfeed;
  cfg.record_outputs = true;
  auto adv = sim::make_adversary(adversary);
  return sim::run_execution(cfg, *adv, 5).outputs;
}

void expect_roundtrip(const counting::AlgorithmPtr& algo) {
  const auto spec = counting::describe(algo);
  ASSERT_TRUE(spec.has_value()) << algo->name();

  // Struct -> JSON -> struct is lossless.
  const util::Json j = to_json(*spec);
  const counting::AlgorithmSpec parsed =
      counting::algorithm_spec_from_json(util::Json::parse(j.dump()));
  EXPECT_TRUE(parsed == *spec) << j.dump();
  EXPECT_EQ(to_json(parsed).dump(), j.dump());

  // build() reconstructs the same algorithm: static parameters and dynamic
  // behaviour (bit-identical execution under the same seed).
  const counting::AlgorithmPtr rebuilt = counting::build(parsed);
  EXPECT_EQ(rebuilt->name(), algo->name());
  EXPECT_EQ(rebuilt->num_nodes(), algo->num_nodes());
  EXPECT_EQ(rebuilt->resilience(), algo->resilience());
  EXPECT_EQ(rebuilt->modulus(), algo->modulus());
  EXPECT_EQ(rebuilt->state_bits(), algo->state_bits());
  EXPECT_EQ(rebuilt->stabilisation_bound(), algo->stabilisation_bound());
  EXPECT_EQ(fingerprint(rebuilt, "split"), fingerprint(algo, "split"));
}

TEST(AlgorithmSpec, TrivialRoundTrip) {
  expect_roundtrip(std::make_shared<counting::TrivialCounter>(48));
}

TEST(AlgorithmSpec, KnownTableDescribedByName) {
  const auto algo = std::make_shared<counting::TableAlgorithm>(
      synthesis::known_table_4_1_3states());
  const auto spec = counting::describe(algo);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->kind, counting::AlgorithmSpec::Kind::kTable);
  EXPECT_EQ(spec->table_name, "3states");  // registry name, not an inline dump
  EXPECT_TRUE(spec->table_text.empty());
  expect_roundtrip(algo);
}

TEST(AlgorithmSpec, UnknownTableDescribedInline) {
  // Perturb the output map so the table no longer matches the registry.
  counting::TransitionTable t = synthesis::known_table_4_1_4states();
  t.label = "tweaked";
  t.verified_time.reset();
  std::swap(t.h[0], t.h[2]);
  const auto algo = std::make_shared<counting::TableAlgorithm>(t);
  const auto spec = counting::describe(algo);
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->table_name.empty());
  EXPECT_FALSE(spec->table_text.empty());
  expect_roundtrip(algo);
}

TEST(AlgorithmSpec, BoostedTowerRoundTrip) {
  expect_roundtrip(boosting::build_plan(boosting::plan_practical(2, 10)));
  expect_roundtrip(boosting::build_plan(boosting::plan_corollary1(1, 8)));
}

TEST(AlgorithmSpec, TowerOverTableBaseRoundTrip) {
  // One boosted level over a synthetic table base (same shape as the
  // composed-backend differential tests): the base modulus satisfies
  // Theorem 1's constraint c = 3(F+2)(2m)^k for k = 3, F = 1, and the table
  // is not in the registry, so the spec must carry it inline.
  counting::TransitionTable t;
  t.n = 2;
  t.f = 0;
  t.num_states = 4;
  t.modulus = boosting::required_input_modulus(3, 1);
  t.symmetry = counting::Symmetry::kCyclic;
  t.g.resize(16);
  for (std::size_t i = 0; i < t.g.size(); ++i) {
    t.g[i] = static_cast<std::uint8_t>((i * 5 + 1) % 4);
  }
  t.h = {3, 100, 200, 50};
  t.label = "table-base-test";
  auto base = std::make_shared<counting::TableAlgorithm>(std::move(t));
  const auto tower =
      std::make_shared<boosting::BoostedCounter>(base, boosting::BoostParams{3, 1, 10});
  const auto spec = counting::describe(tower);
  ASSERT_TRUE(spec.has_value());
  ASSERT_TRUE(spec->base != nullptr);
  EXPECT_FALSE(spec->base->table_text.empty());
  expect_roundtrip(tower);
}

TEST(AlgorithmSpec, PullingTowerRoundTripBothModes) {
  expect_roundtrip(pulling::build_pulling_practical(2, 10, 8,
                                                    pulling::SamplingMode::kFresh, 0xabc));
  expect_roundtrip(pulling::build_pulling_practical(2, 10, 8,
                                                    pulling::SamplingMode::kFixed, 0xdef));
}

TEST(AlgorithmSpec, UndescribableReturnsNullopt) {
  // RandomizedCounter-style algorithms are outside the family; a null
  // pointer is too.
  EXPECT_FALSE(counting::describe(nullptr).has_value());
}

TEST(AlgorithmSpec, BuildRejectsBadSpecs) {
  counting::AlgorithmSpec two_sources;
  two_sources.kind = counting::AlgorithmSpec::Kind::kTable;
  two_sources.table_name = "3states";
  two_sources.table_text = "also inline";
  EXPECT_THROW(counting::build(two_sources), std::invalid_argument);

  counting::AlgorithmSpec unknown_name;
  unknown_name.kind = counting::AlgorithmSpec::Kind::kTable;
  unknown_name.table_name = "no-such-table";
  EXPECT_THROW(counting::build(unknown_name), std::invalid_argument);

  counting::AlgorithmSpec no_base;
  no_base.kind = counting::AlgorithmSpec::Kind::kTower;
  no_base.levels.push_back({});
  EXPECT_THROW(counting::build(no_base), std::invalid_argument);
}

TEST(AlgorithmSpec, RegistryMatchRequiresBehaviouralEquality) {
  // Same g/h as the registry table but without the certified time: must be
  // described inline, because verified_time feeds stabilisation_bound() and
  // hence the engine's default horizon.
  counting::TransitionTable t = synthesis::known_table_4_1_3states();
  t.verified_time.reset();
  EXPECT_FALSE(synthesis::known_table_name_of(t).has_value());
  const auto algo = std::make_shared<counting::TableAlgorithm>(t);
  const auto spec = counting::describe(algo);
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->table_name.empty());
  EXPECT_FALSE(spec->table_text.empty());
  expect_roundtrip(algo);
}

TEST(KnownTables, RegistryLookups) {
  const auto names = synthesis::known_table_names();
  ASSERT_EQ(names.size(), 2u);
  for (const auto& name : names) {
    const auto table = synthesis::known_table_by_name(name);
    ASSERT_TRUE(table.has_value()) << name;
    EXPECT_EQ(synthesis::known_table_name_of(*table), name);
  }
  EXPECT_FALSE(synthesis::known_table_by_name("nope").has_value());
}

// --- ExperimentSpec / AggregateResult codecs ---------------------------------

sim::ExperimentSpec table_grid_spec() {
  sim::ExperimentSpec spec;
  spec.algo = std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
  // Every group runs bit-sliced, lookahead's search included.
  spec.adversaries = {"split", "lookahead", "silent"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = 17;  // odd, so uneven chunking is exercised too
  spec.base_seed = 0xc0ffee;
  spec.max_rounds = 64;
  spec.margin = 8;
  spec.stop_after_stable = 16;
  return spec;
}

sim::ExperimentSpec composed_grid_spec() {
  sim::ExperimentSpec spec;
  spec.algo = boosting::build_plan(boosting::plan_practical(2, 10));
  const int n = spec.algo->num_nodes();
  spec.adversaries = {"split", "lookahead"};  // both composed
  spec.placements = {{"spread", sim::faults_spread(n, 2)},
                     {"blocks", sim::faults_block_concentrated(3, n / 3, 0, 2)}};
  spec.seeds = 5;
  spec.base_seed = 0xbeef;
  spec.stop_after_stable = 60;
  spec.margin = 50;
  return spec;
}

sim::ExperimentSpec pulling_grid_spec() {
  sim::ExperimentSpec spec;
  spec.algo = pulling::build_pulling_practical(2, 10, 10, pulling::SamplingMode::kFresh);
  spec.adversaries = {"split", "silent"};
  spec.placements = {{"spread", sim::faults_spread(spec.algo->num_nodes(), 2)}};
  spec.seeds = 4;
  spec.base_seed = 0xfee1;
  spec.stop_after_stable = 60;
  spec.margin = 50;
  return spec;
}

TEST(ExperimentSpecCodec, RoundTripPreservesEveryField) {
  sim::ExperimentSpec spec = table_grid_spec();
  spec.explicit_seeds = {1, 2, 3};
  spec.seeds = 3;
  spec.extra_rounds = 123;
  spec.horizon_override = 9999;
  spec.backend = sim::Backend::kScalar;
  spec.sinks.push_back({sim::SinkConfig::Kind::kTrace, "t.bin", "bin", false});
  spec.sinks.push_back({sim::SinkConfig::Kind::kProgress, "", "jsonl", false});
  spec.sinks.push_back({sim::SinkConfig::Kind::kCheckpoint, "ck.jsonl", "jsonl", false});
  spec.initial.resize(4);
  for (int i = 0; i < 4; ++i) {
    spec.initial[static_cast<std::size_t>(i)].set_bits(0, 2, static_cast<std::uint64_t>(i % 3));
  }

  const util::Json j = sim::experiment_spec_to_json(spec);
  const sim::ExperimentSpec back =
      sim::experiment_spec_from_json(util::Json::parse(j.dump()));
  // Re-serialisation is byte-stable ...
  EXPECT_EQ(sim::experiment_spec_to_json(back).dump(), j.dump());
  // ... and the round-tripped spec matches field by field.
  EXPECT_EQ(back.adversaries, spec.adversaries);
  ASSERT_EQ(back.placements.size(), spec.placements.size());
  for (std::size_t i = 0; i < spec.placements.size(); ++i) {
    EXPECT_EQ(back.placements[i].name, spec.placements[i].name);
    EXPECT_EQ(back.placements[i].faulty, spec.placements[i].faulty);
  }
  EXPECT_EQ(back.seeds, spec.seeds);
  EXPECT_EQ(back.base_seed, spec.base_seed);
  EXPECT_EQ(back.explicit_seeds, spec.explicit_seeds);
  EXPECT_EQ(back.max_rounds, spec.max_rounds);
  EXPECT_EQ(back.extra_rounds, spec.extra_rounds);
  EXPECT_EQ(back.horizon_override, spec.horizon_override);
  EXPECT_EQ(back.margin, spec.margin);
  EXPECT_EQ(back.stop_after_stable, spec.stop_after_stable);
  EXPECT_EQ(back.backend, spec.backend);
  ASSERT_EQ(back.sinks.size(), spec.sinks.size());
  for (std::size_t i = 0; i < spec.sinks.size(); ++i) {
    EXPECT_EQ(back.sinks[i].kind, spec.sinks[i].kind);
    EXPECT_EQ(back.sinks[i].path, spec.sinks[i].path);
    EXPECT_EQ(back.sinks[i].format, spec.sinks[i].format);
    EXPECT_EQ(back.sinks[i].outputs, spec.sinks[i].outputs);
  }
  ASSERT_EQ(back.initial.size(), spec.initial.size());
  for (std::size_t i = 0; i < spec.initial.size(); ++i) {
    EXPECT_EQ(back.initial[i], spec.initial[i]);
  }
}

TEST(ExperimentSpecCodec, RejectsNonDeclarativeSpecs) {
  // Custom adversary factories have no serialized form.
  sim::ExperimentSpec spec = table_grid_spec();
  spec.adversary_factory = [](const std::string& name) { return sim::make_adversary(name); };
  EXPECT_THROW(sim::experiment_spec_to_json(spec), std::invalid_argument);

  // An `algo` pointer outside the describable family cannot travel either.
  sim::ExperimentSpec spec2 = table_grid_spec();
  spec2.algo = std::make_shared<counting::RandomizedCounter>(4, 1, 2);
  EXPECT_THROW(sim::experiment_spec_to_json(spec2), std::invalid_argument);

  // ... and exactly one algorithm source must be set.
  sim::ExperimentSpec spec3 = table_grid_spec();
  spec3.algorithm = *counting::describe(spec3.algo);
  EXPECT_THROW(sim::experiment_spec_to_json(spec3), std::invalid_argument);
}

TEST(ExperimentSpecCodec, VariantAxisRoundTrips) {
  sim::ExperimentSpec spec;
  spec.variants = counting::sweep_u64(
      *counting::describe(pulling::build_pulling_practical(
          1, 8, 6, pulling::SamplingMode::kFixed, 0)),
      "sampling_seed", {7, 8, 9});
  spec.adversaries = {"split"};
  spec.seeds = 3;
  spec.max_rounds = 32;
  const util::Json j = sim::experiment_spec_to_json(spec);
  const sim::ExperimentSpec back =
      sim::experiment_spec_from_json(util::Json::parse(j.dump()));
  EXPECT_EQ(sim::experiment_spec_to_json(back).dump(), j.dump());
  ASSERT_EQ(back.variants.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(back.variants[i] == spec.variants[i]) << i;
  }
  EXPECT_FALSE(back.algorithm.has_value());
}

TEST(AggregateCodec, RoundTripIsBitIdentical) {
  const sim::Engine engine(1);
  const auto result = engine.run(table_grid_spec());
  const util::Json j = sim::aggregate_to_json(result.total);
  const sim::AggregateResult back = sim::aggregate_from_json(util::Json::parse(j.dump()));
  EXPECT_EQ(sim::aggregate_to_json(back).dump(), j.dump());
  EXPECT_EQ(back.runs, result.total.runs);
  EXPECT_EQ(back.stabilised, result.total.stabilised);
  EXPECT_EQ(back.max_pulls, result.total.max_pulls);
  EXPECT_EQ(back.stabilisation.mean(), result.total.stabilisation.mean());
  EXPECT_EQ(back.rounds.quantile(0.95), result.total.rounds.quantile(0.95));
}

// --- plan_shards -------------------------------------------------------------

TEST(ShardPlan, PartitionsWholeGroupsContiguously) {
  const sim::ExperimentSpec spec = table_grid_spec();  // 3 x 2 = 6 groups
  EXPECT_EQ(sim::group_count(spec), 6u);
  for (int K = 1; K <= 8; ++K) {
    std::size_t next = 0;
    for (int i = 0; i < K; ++i) {
      const auto plan = sim::plan_shards(spec, K, i);
      EXPECT_EQ(plan.shards, K);
      EXPECT_EQ(plan.shard, i);
      EXPECT_EQ(plan.group_begin, next);
      EXPECT_LE(plan.groups(), (6 + static_cast<std::size_t>(K) - 1) / K);
      next = plan.group_end;
    }
    EXPECT_EQ(next, 6u);  // exact cover, in order
  }
  EXPECT_THROW(sim::plan_shards(spec, 0, 0), std::invalid_argument);
  EXPECT_THROW(sim::plan_shards(spec, 3, 3), std::invalid_argument);
}

// --- Sharded execution + merge: bit-identity to the single process -----------

void expect_aggregates_identical(const sim::AggregateResult& a,
                                 const sim::AggregateResult& b) {
  // Byte-level equality of the serialised form covers every field,
  // including the exact double samples behind the quantiles.
  EXPECT_EQ(sim::aggregate_to_json(a).dump(), sim::aggregate_to_json(b).dump());
}

void expect_sharding_bit_identical(const sim::ExperimentSpec& spec, int threads) {
  const sim::Engine engine(threads);
  const auto full = engine.run(spec);
  const auto full_partial = make_partial(spec, sim::plan_shards(spec, 1, 0), full);

  std::ostringstream reference;
  write_partial(reference, full_partial);

  // The scalar oracle's groups write the same bytes under the same header.
  sim::ExperimentSpec scalar_spec = spec;
  scalar_spec.backend = sim::Backend::kScalar;
  const auto scalar = engine.run(scalar_spec);
  EXPECT_EQ(scalar.batched_cells, 0u);
  std::ostringstream scalar_wire;
  write_partial(scalar_wire, make_partial(spec, sim::plan_shards(spec, 1, 0), scalar));
  EXPECT_EQ(scalar_wire.str(), reference.str());

  for (int K = 1; K <= 5; ++K) {
    // Run every shard, round-tripping each partial through the wire format.
    std::vector<sim::ShardPartial> parts;
    std::vector<sim::AggregateResult> partial_totals;
    for (int i = 0; i < K; ++i) {
      const auto plan = sim::plan_shards(spec, K, i);
      const auto result = engine.run(spec, plan);
      EXPECT_EQ(result.cells.size(), plan.groups() * static_cast<std::size_t>(spec.seeds));
      std::ostringstream wire;
      write_partial(wire, make_partial(spec, plan, result));
      std::istringstream in(wire.str());
      parts.push_back(sim::read_partial(in, "shard" + std::to_string(i)));
      partial_totals.push_back(result.total);
    }

    // merge_aggregates over the engine partials reproduces the full fold.
    // Exact mode: bit-identical (merge replays samples, so association is
    // irrelevant). Sketch mode: each shard total has already collapsed its
    // groups into one moment set, so Chan's moment merge runs in a coarser
    // association than the per-group left fold -- counts are exact, moments
    // agree only to rounding. (The wire paths below refold from group lines
    // and ARE bit-identical in both modes.)
    const sim::AggregateResult refolded = sim::merge_aggregates(partial_totals);
    if (spec.stats == util::StatsMode::kExact) {
      expect_aggregates_identical(refolded, full.total);
    } else {
      EXPECT_EQ(refolded.runs, full.total.runs);
      EXPECT_EQ(refolded.stabilised, full.total.stabilised);
      EXPECT_EQ(refolded.max_pulls, full.total.max_pulls);
      EXPECT_NEAR(refolded.rounds.mean(), full.total.rounds.mean(), 1e-9);
      EXPECT_NEAR(refolded.rounds.stddev(), full.total.rounds.stddev(), 1e-9);
    }

    // The file-level merge (shuffled input order) is byte-identical to the
    // single-process emit.
    std::rotate(parts.begin(), parts.begin() + (K > 1 ? 1 : 0), parts.end());
    const auto merged = sim::merge_partials(std::move(parts));
    std::ostringstream merged_wire;
    write_partial(merged_wire, merged);
    EXPECT_EQ(merged_wire.str(), reference.str()) << "K=" << K;
    expect_aggregates_identical(merged.total(), full.total);
  }
}

TEST(ShardedSweep, TableGridBitIdentical) {
  // 6 groups over K=1..5: K=4 and K=5 force uneven splits (2,2,1,1 / ...).
  expect_sharding_bit_identical(table_grid_spec(), 2);
}

TEST(ShardedSweep, TableGridBitIdenticalSingleThread) {
  expect_sharding_bit_identical(table_grid_spec(), 1);
}

TEST(ShardedSweep, ComposedGridBitIdentical) {
  expect_sharding_bit_identical(composed_grid_spec(), 2);
}

TEST(ShardedSweep, PullingGridBitIdentical) {
  expect_sharding_bit_identical(pulling_grid_spec(), 2);
}

// Sketch mode rides the same contract: shards fold per-group KLL sketches in
// group order, so sharded + merged wire bytes equal the single-process emit
// even though the sketch merge operator is not associative in general.
TEST(ShardedSweep, SketchModeBitIdentical) {
  sim::ExperimentSpec spec = table_grid_spec();
  spec.stats = util::StatsMode::kSketch;
  expect_sharding_bit_identical(spec, 2);
}

TEST(ShardedSweep, SketchModeComposedGridBitIdentical) {
  sim::ExperimentSpec spec = composed_grid_spec();
  spec.stats = util::StatsMode::kSketch;
  expect_sharding_bit_identical(spec, 2);
}

TEST(ShardedSweep, SketchModeWireCarriesSketchesNotSamples) {
  sim::ExperimentSpec spec = table_grid_spec();
  spec.stats = util::StatsMode::kSketch;
  const auto plan = sim::plan_shards(spec, 1, 0);
  std::ostringstream wire;
  write_partial(wire, make_partial(spec, plan, sim::Engine(1).run(spec, plan)));
  const std::string text = wire.str();
  // v4 header, sketch-tagged spec, compacted sketch levels -- and no raw
  // sample vectors anywhere (the whole point of the mode is to keep the wire
  // and the accumulators bounded).
  EXPECT_NE(text.find("\"version\":4"), std::string::npos);
  EXPECT_NE(text.find("\"stats\":\"sketch\""), std::string::npos);
  EXPECT_NE(text.find("\"mode\":\"sketch\""), std::string::npos);
  EXPECT_EQ(text.find("\"samples\""), std::string::npos);
}

TEST(ShardedSweep, ShardRunMatchesFullRunCellForCell) {
  const sim::ExperimentSpec spec = table_grid_spec();
  const sim::Engine engine(1);
  const auto full = engine.run(spec);
  const auto plan = sim::plan_shards(spec, 3, 1);  // a middle shard
  const auto part = engine.run(spec, plan);
  const std::size_t offset = plan.group_begin * static_cast<std::size_t>(spec.seeds);
  for (std::size_t i = 0; i < part.cells.size(); ++i) {
    const auto& a = part.cells[i];
    const auto& b = full.cells[offset + i];
    EXPECT_EQ(a.cell_index, b.cell_index);
    EXPECT_EQ(a.adversary, b.adversary);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.result.rounds, b.result.rounds);
    EXPECT_EQ(a.result.stabilised, b.result.stabilised);
    EXPECT_EQ(a.result.stabilisation_round, b.result.stabilisation_round);
  }
}

TEST(ReadPartial, RejectsGroupLinesPastTheDeclaredRange) {
  const sim::ExperimentSpec spec = table_grid_spec();
  const sim::Engine engine(1);
  const auto partial = make_partial(spec, sim::plan_shards(spec, 1, 0), engine.run(spec));
  std::ostringstream wire;
  write_partial(wire, partial);
  // A stray extra group line after the declared range must fail loudly (it
  // used to index the grid echo out of bounds), whatever its group index.
  const std::string text = wire.str();
  const std::size_t last_nl = text.rfind('\n', text.size() - 2);
  for (const char* bump : {"", "\"group\":6,"}) {
    std::string last_line = text.substr(last_nl + 1);
    if (*bump != '\0') last_line.replace(last_line.find("\"group\":5,"), 10, bump);
    std::istringstream in(text + last_line);
    EXPECT_THROW(sim::read_partial(in, "stray"), std::invalid_argument);
  }
}

TEST(MergePartials, RejectsInconsistentInputs) {
  const sim::ExperimentSpec spec = table_grid_spec();
  const sim::Engine engine(1);
  const auto make = [&](int K, int i) {
    const auto plan = sim::plan_shards(spec, K, i);
    return make_partial(spec, plan, engine.run(spec, plan));
  };

  // Missing shard.
  EXPECT_THROW(sim::merge_partials({make(3, 0), make(3, 2)}), std::invalid_argument);
  // Duplicate shard.
  EXPECT_THROW(sim::merge_partials({make(3, 0), make(3, 0), make(3, 1)}),
               std::invalid_argument);
  // Mixed shard counts.
  EXPECT_THROW(sim::merge_partials({make(2, 0), make(3, 1), make(3, 2)}),
               std::invalid_argument);

  // Different specs.
  sim::ExperimentSpec other = table_grid_spec();
  other.base_seed = 1;
  const auto other_plan = sim::plan_shards(other, 2, 1);
  auto other_part = make_partial(other, other_plan, engine.run(other, other_plan));
  EXPECT_THROW(sim::merge_partials({make(2, 0), std::move(other_part)}),
               std::invalid_argument);
}

}  // namespace
