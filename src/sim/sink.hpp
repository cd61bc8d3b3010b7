// Pluggable result sinks for the experiment engine.
//
// The engine's one job is running the grid; everything downstream of a
// finished execution -- aggregation, tracing, progress, checkpoints -- is an
// observer. A Sink receives the run in a deterministic order regardless of
// thread count or execution backend:
//
//   on_start(spec, plan)            once, before any cell runs
//   on_cell(cell)                   every cell, in global cell order
//   on_group(group, aggregate)      after a group's cells, in group order
//   on_done(result)                 once, after the final fold
//
// Cell-groups are delivered as soon as every preceding group has finished,
// not at the end of the run, so a streaming sink's file is a valid prefix of
// the final output at every instant -- which is what makes checkpoints
// resumable and trace files bit-identical across thread counts. Calls come
// from one thread at a time (not necessarily the same one), so sinks need
// not be thread-safe; after a sink throws, nothing more is delivered.
//
// Built-in sinks:
//   MemorySink      in-memory cells + per-group + total aggregates (the
//                   classic "collect everything" behaviour, as an observer)
//   RecordSink      records per-round outputs/states into the returned
//                   ExperimentResult cells (replaces the old
//                   ExperimentSpec::record_outputs/record_states flags)
//   TraceSink       streams one row per execution (JSONL or columnar bin)
//                   to disk; stabilisation-time distributions of huge grids
//                   plot from the file instead of from buffered RunResults
//   ProgressSink    one line per finished group on a stream (stderr)
//   CheckpointSink  appends shard-partial lines (the experiment_io wire
//                   format) as groups complete and flushes each one, so a
//                   preempted worker resumes from the last finished group;
//                   a completed checkpoint file IS the worker's partial file
//
// make_sinks() instantiates a spec's declarative SinkConfig list, which is
// how `synccount_cli sweep --spec=FILE` reproduces an in-process observer
// setup on a worker.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace_format.hpp"

namespace synccount::sim {

class AtomicAppender;  // sim/experiment_io.hpp

class Sink {
 public:
  virtual ~Sink() = default;

  // What the runner must record per execution for this sink's benefit. The
  // engine ORs these over all sinks and forwards them to RunConfig.
  virtual bool wants_outputs() const { return false; }
  virtual bool wants_states() const { return false; }

  // True to keep recorded outputs/states in the returned ExperimentResult
  // cells; when no sink retains, the engine drops them after delivery.
  virtual bool retain_traces() const { return false; }

  virtual void on_start(const ExperimentSpec& spec, const ShardPlan& plan) {
    (void)spec;
    (void)plan;
  }
  virtual void on_cell(const CellOutcome& cell) { (void)cell; }
  virtual void on_group(std::size_t group, const AggregateResult& aggregate) {
    (void)group;
    (void)aggregate;
  }
  virtual void on_done(const ExperimentResult& result) { (void)result; }
};

// --- Built-in sinks ----------------------------------------------------------

// Collects the run in memory: cells in cell order, one aggregate per group,
// and the total folded in delivery order -- bit-identical to
// ExperimentResult::total by the merge contract.
class MemorySink : public Sink {
 public:
  struct Group {
    std::size_t group = 0;
    AggregateResult aggregate;
  };

  void on_cell(const CellOutcome& cell) override;
  void on_group(std::size_t group, const AggregateResult& aggregate) override;

  const std::vector<CellOutcome>& cells() const noexcept { return cells_; }
  const std::vector<Group>& groups() const noexcept { return groups_; }
  AggregateResult total() const;

 private:
  std::vector<CellOutcome> cells_;
  std::vector<Group> groups_;
};

// Requests output/state recording and retains it in the returned cells; the
// migration path for callers of the retired record_outputs/record_states
// spec flags.
class RecordSink final : public Sink {
 public:
  explicit RecordSink(bool outputs = true, bool states = false)
      : outputs_(outputs), states_(states) {}

  bool wants_outputs() const override { return outputs_; }
  bool wants_states() const override { return states_; }
  bool retain_traces() const override { return true; }

 private:
  bool outputs_;
  bool states_;
};

// The one list of trace formats TraceSink writes: "jsonl" and "bin", with
// per-round `outputs` in jsonl only. Returns "" when (`format`, `outputs`)
// is accepted, else the reason; TraceSink, the spec decoder and the CLI and
// bench flag parsers all check through here.
std::string trace_format_error(const std::string& format, bool outputs);

// Streams one row per execution. JSONL lines carry the full RunResult
// summary (and the per-round outputs when `outputs` is set); "bin" writes
// the summary in the columnar binary format of sim/trace_format.hpp (one
// CRC-framed block per group, ~10x smaller than JSONL at scale). File
// contents are bit-identical across thread counts and execution backends
// in every format. Rows are committed at group boundaries via
// AtomicAppender (temp-file + fsync + atomic rename, before any checkpoint
// sink records the group -- make_sinks orders checkpoints last), so the
// published file never holds a torn or partial-group tail: a kill costs
// exactly the uncommitted group. `resume` adopts the existing
// file after the caller truncated it to the checkpointed prefix
// (truncate_to_lines / truncate_to_blocks -- only pre-v3 legacy files can
// still need the torn-tail surgery).
class TraceSink final : public Sink {
 public:
  // Throws std::invalid_argument naming `path` when trace_format_error
  // rejects (`format`, `outputs`), and when the file cannot be opened (at
  // on_start).
  TraceSink(std::string path, std::string format = "jsonl", bool outputs = false,
            bool resume = false);
  ~TraceSink() override;

  bool wants_outputs() const override { return outputs_; }
  void on_start(const ExperimentSpec& spec, const ShardPlan& plan) override;
  void on_cell(const CellOutcome& cell) override;
  void on_group(std::size_t group, const AggregateResult& aggregate) override;
  void on_done(const ExperimentResult& result) override;

 private:
  enum class Format { kJsonl, kBin };

  std::string path_;
  Format format_;
  bool outputs_;
  bool resume_;
  std::unique_ptr<AtomicAppender> out_;
  std::vector<std::string> adversaries_;
  std::vector<std::string> placements_;
  std::vector<TraceRow> pending_;  // bin: current group's rows, until on_group
};

// One line per finished group on `os` (default std::cerr): grid coordinates,
// stabilisation count, and a running cell counter.
class ProgressSink final : public Sink {
 public:
  explicit ProgressSink(std::ostream* os = nullptr);  // null = std::cerr

  void on_start(const ExperimentSpec& spec, const ShardPlan& plan) override;
  void on_group(std::size_t group, const AggregateResult& aggregate) override;

 private:
  std::ostream* os_;
  std::vector<std::string> adversaries_;
  std::vector<std::string> placements_;
  std::size_t done_groups_ = 0;
  std::size_t total_groups_ = 0;
  std::uint64_t done_cells_ = 0;
  std::uint64_t total_cells_ = 0;
};

// Streams the experiment_io shard-partial wire format: header at on_start
// (fresh mode), one atomically committed group line per finished group
// (AtomicAppender: the published checkpoint is always a whole number of
// lines, whenever the worker dies). Because groups are delivered in order,
// the file is always a valid partial prefix; resume mode appends to an
// existing prefix instead of rewriting the header, and the completed file
// is byte-identical to an uninterrupted worker's emit. Requires a
// serialisable spec (throws at on_start otherwise).
class CheckpointSink final : public Sink {
 public:
  CheckpointSink(std::string path, bool resume = false);
  ~CheckpointSink() override;

  void on_start(const ExperimentSpec& spec, const ShardPlan& plan) override;
  void on_group(std::size_t group, const AggregateResult& aggregate) override;

 private:
  std::string path_;
  bool resume_;
  std::unique_ptr<AtomicAppender> out_;
  std::vector<std::string> adversaries_;
  std::vector<std::string> placements_;
};

// --- Declarative construction ------------------------------------------------

// The file a per-shard sink config writes: `cfg.path` for a single-process
// plan, `cfg.path + ".shard<i>"` when plan.shards > 1 (concurrent workers
// must not share a file; `merge` folds their partials afterwards).
std::string sink_path(const SinkConfig& cfg, const ShardPlan& plan);

// Instantiates the spec's configured sinks for one shard, checkpoint sinks
// LAST -- so at every group boundary the companion sinks (traces) have
// flushed before the checkpoint line that promises their data is on disk.
// `resume` opens file sinks in append mode (the caller is responsible for
// having validated + truncated each file to a clean prefix, see
// read_checkpoint / truncate_to_lines in sim/experiment_io.hpp). Throws on
// a bad trace format or a file-writing config with an empty path.
std::vector<std::unique_ptr<Sink>> make_sinks(const ExperimentSpec& spec,
                                              const ShardPlan& plan, bool resume = false);

// Convenience: raw pointers of `owned` (appended to `extra`), the shape
// Engine::run takes.
SinkList sink_list(const std::vector<std::unique_ptr<Sink>>& owned,
                   const SinkList& extra = {});

}  // namespace synccount::sim
