// Sink-layer tests: deterministic delivery order (cells in cell order,
// groups in group order, any thread count), the built-in sinks, and the
// checkpoint/resume contract -- a resumed run's files are byte-identical to
// an uninterrupted run's, across execution backends.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "boosting/planner.hpp"
#include "counting/table_algorithm.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "sim/sink.hpp"
#include "synthesis/known_tables.hpp"
#include "util/json.hpp"

namespace {

using namespace synccount;

std::string temp_path(const std::string& tag) {
  static int counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("synccount-sink-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
           std::to_string(counter++)))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  explicit TempFile(const std::string& tag) : path(temp_path(tag)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// A grid of composed batched groups (silent, split, and lookahead searching
// per lane through forge_block), with several groups per run. Tests that
// need scalar cells force the same spec onto Backend::kScalar.
sim::ExperimentSpec mixed_backend_spec() {
  sim::ExperimentSpec spec;
  spec.algorithm = *counting::describe(boosting::build_plan(boosting::plan_practical(1, 2)));
  spec.adversaries = {"silent", "split", "lookahead"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = 5;
  spec.stop_after_stable = 60;
  spec.margin = 50;
  return spec;
}

sim::ExperimentSpec table_spec() {
  sim::ExperimentSpec spec;
  spec.algo = std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
  spec.adversaries = {"silent", "split", "random"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = 70;  // crosses the 64-lane chunk boundary
  spec.stop_after_stable = 40;
  spec.margin = 30;
  return spec;
}

// Records the exact delivery sequence.
class SequenceSink final : public sim::Sink {
 public:
  std::vector<std::string> events;
  void on_start(const sim::ExperimentSpec&, const sim::ShardPlan&) override {
    events.push_back("start");
  }
  void on_cell(const sim::CellOutcome& cell) override {
    events.push_back("cell:" + std::to_string(cell.cell_index));
  }
  void on_group(std::size_t group, const sim::AggregateResult& agg) override {
    events.push_back("group:" + std::to_string(group) + ":" +
                     std::to_string(agg.runs));
  }
  void on_done(const sim::ExperimentResult&) override { events.push_back("done"); }
};

TEST(Sink, DeliveryOrderIsDeterministicAcrossThreadCounts) {
  const auto spec = mixed_backend_spec();
  SequenceSink serial_seq, parallel_seq, scalar_seq;
  const sim::Engine serial(1);
  const sim::Engine parallel4(4);
  serial.run(spec, {&serial_seq});
  parallel4.run(spec, {&parallel_seq});
  // Per-cell scalar tasks deliver in the same order as batched blocks.
  sim::ExperimentSpec scalar_spec = spec;
  scalar_spec.backend = sim::Backend::kScalar;
  parallel4.run(scalar_spec, {&scalar_seq});

  // The canonical sequence: start, then per group g its cells in order
  // followed by the group event, then done.
  std::vector<std::string> expected = {"start"};
  for (std::size_t g = 0; g < sim::group_count(spec); ++g) {
    for (int s = 0; s < spec.seeds; ++s) {
      expected.push_back("cell:" + std::to_string(g * spec.seeds + s));
    }
    expected.push_back("group:" + std::to_string(g) + ":" + std::to_string(spec.seeds));
  }
  expected.push_back("done");
  EXPECT_EQ(serial_seq.events, expected);
  EXPECT_EQ(parallel_seq.events, expected);
  EXPECT_EQ(scalar_seq.events, expected);
}

// Throws from on_group of one global group.
class ThrowingSink final : public sim::Sink {
 public:
  explicit ThrowingSink(std::size_t group) : group_(group) {}
  void on_group(std::size_t group, const sim::AggregateResult&) override {
    if (group == group_) throw std::runtime_error("sink failed on group " + std::to_string(group));
  }

 private:
  std::size_t group_;
};

// A sink failure stops delivery: the other sinks see each cell and group at
// most once, in order, up to the failing call -- never a replay of the
// failed group -- and Engine::run rethrows the sink's exception.
TEST(Sink, ThrowingSinkStopsDeliveryWithoutReplay) {
  const auto spec = mixed_backend_spec();
  SequenceSink seq;
  ThrowingSink thrower(1);
  const sim::Engine engine(4);
  EXPECT_THROW(engine.run(spec, {&seq, &thrower}), std::runtime_error);

  std::vector<std::string> expected = {"start"};
  for (std::size_t g = 0; g <= 1; ++g) {
    for (int s = 0; s < spec.seeds; ++s) {
      expected.push_back("cell:" + std::to_string(g * spec.seeds + s));
    }
    expected.push_back("group:" + std::to_string(g) + ":" + std::to_string(spec.seeds));
  }
  EXPECT_EQ(seq.events, expected);
}

TEST(Sink, MemorySinkMatchesReturnedResult) {
  const auto spec = mixed_backend_spec();
  sim::MemorySink mem;
  const sim::Engine engine(4);
  const auto result = engine.run(spec, {&mem});

  ASSERT_EQ(mem.cells().size(), result.cells.size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    EXPECT_EQ(mem.cells()[i].cell_index, result.cells[i].cell_index);
    EXPECT_EQ(mem.cells()[i].seed, result.cells[i].seed);
    EXPECT_EQ(mem.cells()[i].result.stabilisation_round,
              result.cells[i].result.stabilisation_round);
  }
  ASSERT_EQ(mem.groups().size(), sim::group_count(spec));
  // Merging the per-group aggregates in group order is bit-identical to the
  // engine's cell-order fold.
  EXPECT_EQ(sim::aggregate_to_json(mem.total()).dump(),
            sim::aggregate_to_json(result.total).dump());
}

TEST(Sink, ShardDeliveryCoversOnlyTheShard) {
  const auto spec = mixed_backend_spec();
  const auto plan = sim::plan_shards(spec, 3, 1);
  SequenceSink seq;
  const sim::Engine engine(2);
  engine.run(spec, plan, {&seq});
  ASSERT_GE(seq.events.size(), 2u);
  EXPECT_EQ(seq.events.front(), "start");
  EXPECT_EQ(seq.events.back(), "done");
  // First delivered cell is the shard's first global cell; groups are global.
  EXPECT_EQ(seq.events[1], "cell:" + std::to_string(plan.group_begin * spec.seeds));
  EXPECT_EQ(seq.events[1 + static_cast<std::size_t>(spec.seeds)],
            "group:" + std::to_string(plan.group_begin) + ":" + std::to_string(spec.seeds));
}

TEST(Sink, RecordSinkRetainsTracesAndTraceSinkAloneDoesNot) {
  auto spec = mixed_backend_spec();
  const sim::Engine engine(1);

  // A trace sink wants outputs but does not retain them: the returned cells
  // must come back trace-free (streamed to disk, not buffered).
  {
    TempFile trace("trace-noretain");
    sim::TraceSink sink(trace.path, "jsonl", /*outputs=*/true);
    const auto result = engine.run(spec, {&sink});
    for (const auto& cell : result.cells) {
      EXPECT_TRUE(cell.result.outputs.empty());
    }
  }
  // Adding a RecordSink keeps them.
  {
    TempFile trace("trace-retain");
    sim::TraceSink sink(trace.path, "jsonl", /*outputs=*/true);
    sim::RecordSink record(/*outputs=*/true);
    const auto result = engine.run(spec, {&sink, &record});
    for (const auto& cell : result.cells) {
      EXPECT_FALSE(cell.result.outputs.empty());
    }
  }
  // No sink at all: nothing recorded in the first place.
  {
    const auto result = engine.run(spec);
    for (const auto& cell : result.cells) {
      EXPECT_TRUE(cell.result.outputs.empty());
      EXPECT_TRUE(cell.result.states.empty());
    }
  }
}

void expect_trace_invariant(const sim::ExperimentSpec& base, const std::string& format,
                            bool outputs) {
  // The trace file must be bit-identical across thread counts AND execution
  // backends (auto = batched where eligible vs forced scalar).
  std::string reference;
  for (const int threads : {1, 4}) {
    for (const sim::Backend backend : {sim::Backend::kAuto, sim::Backend::kScalar}) {
      sim::ExperimentSpec spec = base;
      spec.backend = backend;
      TempFile trace("trace-bitid");
      sim::TraceSink sink(trace.path, format, outputs);
      const sim::Engine engine(threads);
      const auto result = engine.run(spec, {&sink});
      if (backend == sim::Backend::kAuto) {
        EXPECT_GT(result.batched_cells, 0u);  // the comparison spans backends
      } else {
        EXPECT_EQ(result.batched_cells, 0u);
      }
      const std::string bytes = slurp(trace.path);
      EXPECT_FALSE(bytes.empty());
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference)
            << "threads=" << threads << " backend=" << (backend == sim::Backend::kAuto);
      }
    }
  }
}

TEST(TraceSink, BitIdenticalAcrossBackendsAndThreads_ComposedJsonl) {
  expect_trace_invariant(mixed_backend_spec(), "jsonl", /*outputs=*/true);
}

TEST(TraceSink, BitIdenticalAcrossBackendsAndThreads_BitSlicedJsonl) {
  expect_trace_invariant(table_spec(), "jsonl", /*outputs=*/false);
}

TEST(TraceSink, BitIdenticalAcrossBackendsAndThreads_ComposedBin) {
  expect_trace_invariant(mixed_backend_spec(), "bin", /*outputs=*/false);
}

TEST(TraceSink, BitIdenticalAcrossBackendsAndThreads_BitSlicedBin) {
  expect_trace_invariant(table_spec(), "bin", /*outputs=*/false);
}

TEST(TraceSink, BinDecodesBackToTheCellRows) {
  const auto spec = table_spec();
  TempFile trace("trace-bin");
  sim::TraceSink sink(trace.path, "bin");
  const sim::Engine engine(2);
  const auto result = engine.run(spec, {&sink});

  const sim::BinaryTrace decoded = sim::read_binary_trace(slurp(trace.path));
  EXPECT_EQ(decoded.header.adversaries, spec.adversaries);
  ASSERT_EQ(decoded.header.placements.size(), spec.placements.size());
  for (std::size_t i = 0; i < spec.placements.size(); ++i) {
    EXPECT_EQ(decoded.header.placements[i], spec.placements[i].name);
  }
  EXPECT_EQ(decoded.blocks, 1 + sim::group_count(spec));
  ASSERT_EQ(decoded.rows.size(), result.cells.size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const auto& cell = result.cells[i];
    const sim::TraceRow& row = decoded.rows[i];
    EXPECT_EQ(row.cell, cell.cell_index);
    EXPECT_EQ(row.adversary, cell.adversary);
    EXPECT_EQ(row.placement, cell.placement);
    EXPECT_EQ(row.seed_index, cell.seed_index);
    EXPECT_EQ(row.seed, cell.seed);
    EXPECT_EQ(row.rounds, cell.result.rounds);
    EXPECT_EQ(row.stabilised, cell.result.stabilised);
    EXPECT_EQ(row.stabilisation_round, cell.result.stabilisation_round);
    EXPECT_EQ(row.suffix_length, cell.result.suffix_length);
    EXPECT_EQ(row.max_window, cell.result.max_window);
    EXPECT_EQ(row.max_pulls, cell.result.max_pulls_per_round);
    // Bit-exact double round-trip, not approximate.
    EXPECT_EQ(row.avg_pulls, cell.result.avg_pulls_per_round);
  }
}

TEST(TraceSink, BinRejectsTornTailsAndBitFlips) {
  const auto spec = mixed_backend_spec();
  TempFile trace("trace-bin-damage");
  {
    sim::TraceSink sink(trace.path, "bin");
    sim::Engine(1).run(spec, {&sink});
  }
  const std::string bytes = slurp(trace.path);
  EXPECT_NO_THROW(sim::read_binary_trace(bytes));
  // A torn tail (mid-block cut) and a flipped payload byte both fail loudly.
  EXPECT_THROW(sim::read_binary_trace(bytes.substr(0, bytes.size() - 3)),
               std::invalid_argument);
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x20;
  EXPECT_THROW(sim::read_binary_trace(flipped), std::invalid_argument);
  // Trailing garbage after the last whole block is not silently ignored.
  EXPECT_THROW(sim::read_binary_trace(bytes + "x"), std::invalid_argument);
}

TEST(TraceSink, BinResumeProducesByteIdenticalFiles) {
  const auto spec = mixed_backend_spec();
  const auto plan = sim::plan_shards(spec, 1, 0);
  const std::size_t G = sim::group_count(spec);

  TempFile full("bin-ref");
  {
    sim::TraceSink sink(full.path, "bin");
    sim::Engine(2).run(spec, plan, {&sink});
  }
  const std::string reference = slurp(full.path);

  // Die after every possible prefix (0..G-1 finished groups), trim to whole
  // blocks (header + one block per finished group), resume the remaining
  // groups: bytes must match the uninterrupted run exactly.
  for (std::size_t done = 0; done < G; ++done) {
    TempFile trace("bin-resume");
    {
      sim::TraceSink sink(trace.path, "bin");
      sim::Engine(1).run(spec, plan, {&sink});
    }
    sim::truncate_to_blocks(trace.path, 1 + done);

    sim::ShardPlan rest = plan;
    rest.group_begin = done;
    sim::TraceSink sink(trace.path, "bin", /*outputs=*/false, /*resume=*/true);
    sim::Engine(2).run(spec, rest, {&sink});
    EXPECT_EQ(slurp(trace.path), reference) << "resumed after " << done << " groups";
  }

  // Asking for more whole blocks than the file holds is an error, not
  // silent data loss.
  TempFile trace("bin-overask");
  {
    sim::TraceSink sink(trace.path, "bin");
    sim::Engine(1).run(spec, plan, {&sink});
  }
  EXPECT_THROW(sim::truncate_to_blocks(trace.path, 2 + G), std::invalid_argument);
}

TEST(TraceSink, RejectsUnknownFormatsAndBinWithOutputs) {
  EXPECT_THROW(sim::TraceSink("x.bin", "bin", /*outputs=*/true), std::invalid_argument);
  EXPECT_THROW(sim::TraceSink("x", "xml"), std::invalid_argument);
  // CSV traces were retired: the error names the file that asked for one.
  try {
    sim::TraceSink("x.csv", "csv");
    ADD_FAILURE() << "csv trace format accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("x.csv"), std::string::npos) << e.what();
  }
}

// --- Checkpoint / resume -----------------------------------------------------

TEST(CheckpointSink, CompletedCheckpointEqualsEmittedPartial) {
  const auto spec = mixed_backend_spec();
  const auto plan = sim::plan_shards(spec, 1, 0);
  TempFile ck("ck-full");
  sim::CheckpointSink sink(ck.path);
  const sim::Engine engine(2);
  const auto result = engine.run(spec, plan, {&sink});

  std::ostringstream emitted;
  write_partial(emitted, make_partial(spec, plan, result));
  EXPECT_EQ(slurp(ck.path), emitted.str());
}

TEST(CheckpointSink, ResumeProducesByteIdenticalFiles) {
  const auto spec = mixed_backend_spec();
  const auto plan = sim::plan_shards(spec, 1, 0);
  const std::size_t G = sim::group_count(spec);
  ASSERT_GE(G, 3u);

  // Reference: one uninterrupted run.
  TempFile full_ck("ck-ref");
  {
    sim::CheckpointSink sink(full_ck.path);
    sim::Engine(2).run(spec, plan, {&sink});
  }
  const std::string reference = slurp(full_ck.path);

  // Interrupt after every possible prefix length (0 groups .. G-1 groups),
  // then resume; the completed file must match the reference byte for byte.
  for (std::size_t done = 0; done < G; ++done) {
    // "The worker died after `done` groups": run the full plan (its header
    // carries the full plan, as an interrupted worker's would) and truncate
    // the file to header + `done` group lines.
    TempFile ck("ck-resume");
    {
      sim::CheckpointSink sink(ck.path);
      sim::Engine(1).run(spec, plan, {&sink});
    }
    sim::truncate_to_lines(ck.path, 1 + done);

    const auto state = sim::read_checkpoint(ck.path, spec, plan);
    ASSERT_TRUE(state.header_present);
    EXPECT_EQ(state.next_group, done);
    std::filesystem::resize_file(ck.path, state.valid_bytes);

    sim::ShardPlan rest = plan;
    rest.group_begin = state.next_group;
    sim::CheckpointSink sink(ck.path, /*resume=*/true);
    sim::Engine(2).run(spec, rest, {&sink});
    EXPECT_EQ(slurp(ck.path), reference) << "resumed after " << done << " groups";
  }
}

TEST(CheckpointSink, ResumeToleratesTruncatedLastLine) {
  const auto spec = table_spec();
  const auto plan = sim::plan_shards(spec, 1, 0);
  TempFile full_ck("ck-ref2");
  {
    sim::CheckpointSink sink(full_ck.path);
    sim::Engine(1).run(spec, plan, {&sink});
  }
  const std::string reference = slurp(full_ck.path);

  // Cut the file mid-way through a group line (a mid-write kill).
  TempFile ck("ck-cut");
  {
    std::ofstream out(ck.path, std::ios::binary);
    const std::size_t second_line = reference.find('\n') + 1;
    const std::size_t cut = reference.find('\n', second_line) + 20;
    out.write(reference.data(), static_cast<std::streamsize>(cut));
  }
  const auto state = sim::read_checkpoint(ck.path, spec, plan);
  ASSERT_TRUE(state.header_present);
  EXPECT_EQ(state.next_group, 1u);  // one complete group line survived
  std::filesystem::resize_file(ck.path, state.valid_bytes);

  sim::ShardPlan rest = plan;
  rest.group_begin = state.next_group;
  sim::CheckpointSink sink(ck.path, /*resume=*/true);
  sim::Engine(1).run(spec, rest, {&sink});
  EXPECT_EQ(slurp(ck.path), reference);
}

TEST(Checkpoint, ReadRejectsForeignCheckpoints) {
  const auto spec = mixed_backend_spec();
  const auto plan = sim::plan_shards(spec, 1, 0);
  TempFile ck("ck-foreign");
  {
    sim::CheckpointSink sink(ck.path);
    sim::Engine(1).run(spec, plan, {&sink});
  }
  // Same file, different spec: refuse to resume.
  sim::ExperimentSpec other = spec;
  other.base_seed ^= 1;
  EXPECT_THROW(sim::read_checkpoint(ck.path, other, plan), std::invalid_argument);
  // Different plan: refuse too.
  EXPECT_THROW(sim::read_checkpoint(ck.path, spec, sim::plan_shards(spec, 2, 0)),
               std::invalid_argument);
  // Missing file: a fresh start, not an error.
  const auto state = sim::read_checkpoint(ck.path + ".nope", spec, plan);
  EXPECT_FALSE(state.header_present);
  EXPECT_EQ(state.valid_bytes, 0u);
}

// --- make_sinks --------------------------------------------------------------

TEST(MakeSinks, InstantiatesConfigsWithCheckpointLast) {
  TempFile trace("cfg-trace");
  TempFile ck("cfg-ck");
  sim::ExperimentSpec spec = table_spec();
  spec.sinks.push_back({sim::SinkConfig::Kind::kCheckpoint, ck.path, "jsonl", false});
  spec.sinks.push_back({sim::SinkConfig::Kind::kTrace, trace.path, "bin", false});

  const auto plan = sim::plan_shards(spec, 1, 0);
  const auto sinks = sim::make_sinks(spec, plan);
  ASSERT_EQ(sinks.size(), 2u);
  // Checkpoints are ordered last even when configured first, so the trace
  // flush precedes the checkpoint line at every group boundary.
  EXPECT_NE(dynamic_cast<sim::TraceSink*>(sinks[0].get()), nullptr);
  EXPECT_NE(dynamic_cast<sim::CheckpointSink*>(sinks[1].get()), nullptr);

  const auto result = sim::Engine(2).run(spec, plan, sim::sink_list(sinks));
  EXPECT_EQ(result.total.runs, static_cast<std::uint64_t>(spec.seeds) * 6);
  EXPECT_FALSE(slurp(trace.path).empty());
  std::ostringstream emitted;
  write_partial(emitted, make_partial(spec, plan, result));
  EXPECT_EQ(slurp(ck.path), emitted.str());
}

TEST(MakeSinks, ShardedPathsGetAShardSuffix) {
  sim::SinkConfig cfg{sim::SinkConfig::Kind::kCheckpoint, "ck.jsonl", "jsonl", false};
  sim::ShardPlan one;
  EXPECT_EQ(sim::sink_path(cfg, one), "ck.jsonl");
  sim::ShardPlan many;
  many.shards = 3;
  many.shard = 2;
  EXPECT_EQ(sim::sink_path(cfg, many), "ck.jsonl.shard2");
}

}  // namespace
