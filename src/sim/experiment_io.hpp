// Wire format for distributed (sharded) sweeps.
//
// One huge experiment grid is split into ShardPlans (whole (adversary,
// placement) cell-groups, engine.hpp) and farmed out to worker processes;
// each worker serialises its partial result to a line-oriented JSON file and
// `synccount_cli merge` folds the partials back together. Multi-machine
// runs are the same flow with a file copy in the middle.
//
// A partial file is plain JSONL (util/json.hpp):
//
//   line 1   header: {"format":"synccount-sweep-partial","version":3,
//            "shards":K,"shard":i,"group_begin":b,"group_end":e,
//            "spec":{...ExperimentSpec...}}#crc
//   line 2+  one line per (adversary, placement) group, in group order:
//            {"group":g,"adversary":"split","placement":"spread",
//             "aggregate":{...}}#crc
//
// Every partial/checkpoint line ends in `#` plus the 8-hex-digit CRC-32 of
// the JSON payload (v3). Readers verify it before parsing, so a bit flip, a
// torn write, or trailing garbage fails with a file:line diagnostic instead
// of being folded best-effort into an aggregate; the tolerant checkpoint
// scan treats a torn or bad-CRC tail as the crash point and resumes before
// it (checkpoints are appended in place, see AtomicAppender).
//
// Aggregates serialise their StreamingStats as retained samples in add()
// order, so deserialise-and-merge replays the exact fp-op sequence of a
// single-process fold: merging the K partials of a grid is bit-identical to
// Engine::run over the whole grid, and re-serialising the merge yields a
// byte-identical file to a --shards=1 run (CI enforces this).
//
// Sketch mode (ExperimentSpec.stats = kSketch) promotes the format to v4:
// the spec JSON carries "stats":"sketch" and aggregates serialise their
// deterministic KLL sketch state (util/kll_sketch.hpp) instead of the full
// sample vectors -- O(k log n) bytes per group whatever the seed count.
// Merging stays a deterministic left-fold in group order, so merged sharded
// partials still byte-compare equal to a single-process sketch run; exact
// specs never emit the "stats" field and stay on v3 byte-for-byte.
//
// ExperimentSpec travels as data end to end: the algorithm as a
// counting::AlgorithmSpec (or a variant list -- a sweep axis in expanded
// form), adversaries by library name, and sink configs verbatim; specs
// carrying a custom adversary factory, or an `algo` pointer outside the
// describable family, are not serialisable and are rejected loudly.
//
// Spec files (`synccount_cli plan --emit` / `sweep --spec`) are one JSON
// line: {"format":"synccount-spec","version":1,"spec":{...}}.
//
// Checkpoint files (CheckpointSink, sim/sink.hpp) are shard-partial files
// grown one group line at a time; read_checkpoint scans a possibly
// truncated checkpoint and reports where a resumed worker must restart.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "util/json.hpp"

namespace synccount::sim {

// --- Line integrity ----------------------------------------------------------

// Frames one wire line: `json_dump` + '#' + 8-hex CRC-32 of the dump (no
// trailing newline). Everything the v3 partial format writes goes through
// this.
std::string crc_frame(std::string_view json_dump);

// Validates and strips the CRC suffix of a framed line. Throws
// std::invalid_argument naming `source`:`line_no` when the suffix is
// missing, malformed, or does not match the payload (torn write, bit flip,
// or trailing garbage).
std::string crc_unframe(const std::string& line, const std::string& source,
                        std::size_t line_no);

// --- Atomic file helpers -----------------------------------------------------

// Durably replaces `path` with `content`: write to `path + ".tmp"`, fsync,
// rename over `path`, fsync the directory. A kill at any point leaves
// either the old file or the new one, never a torn mix. `fault_site` names
// the util::FaultInjector probe point (torn-write + kill-after-commit).
void atomic_write_file(const std::string& path, std::string_view content,
                       std::string_view fault_site = "io.atomic_write");

// Crash-consistent append: buffered bytes reach the file only at commit(),
// an in-place O_APPEND write + fsync. A kill mid-commit leaves at most a
// torn tail past the committed length, which every reader of an appended
// file drops on recovery (read_checkpoint, truncate_to_lines / _blocks, the
// serve queue's replay). `resume` adopts an existing file as the committed
// base instead of starting empty.
class AtomicAppender {
 public:
  explicit AtomicAppender(std::string path, bool resume = false,
                          std::string fault_site = "io.append");

  void append(std::string_view bytes) { buffer_.append(bytes); }
  std::uint64_t committed() const noexcept { return committed_; }

  // Appends the buffer and fsyncs it; no-op when nothing was appended since
  // the last commit, except the first commit of a fresh file, which creates
  // (or truncates) it. A failed commit drops the buffer, cuts the file back
  // to the committed length and throws; if that cut fails, so does every
  // later commit.
  void commit();

 private:
  std::string path_;
  std::string fault_site_;
  std::string buffer_;
  std::uint64_t committed_ = 0;  // bytes of `path_` that commits made durable
  bool fresh_ = true;            // the next commit creates or truncates `path_`
  bool broken_ = false;          // a failed commit's tail could not be cut
};

// --- Type codecs -------------------------------------------------------------

// Throws (SC_CHECK) when the spec carries an adversary factory or an `algo`
// pointer outside the describable family.
util::Json experiment_spec_to_json(const ExperimentSpec& spec);
ExperimentSpec experiment_spec_from_json(const util::Json& j);

// --- Spec files --------------------------------------------------------------

void write_spec_file(std::ostream& out, const ExperimentSpec& spec);

// Throws std::invalid_argument on malformed input or a format/version
// mismatch. `source` names the stream in error messages (a file path).
ExperimentSpec read_spec_file(std::istream& in, const std::string& source = "<stream>");

util::Json aggregate_to_json(const AggregateResult& agg);
AggregateResult aggregate_from_json(const util::Json& j);

// --- Shard partials ----------------------------------------------------------

struct ShardPartial {
  ShardPlan plan;
  util::Json spec;  // the ExperimentSpec JSON (grid echo; dump() compared on merge)

  // Where this partial was read from (read_partial's `source`), so merge
  // validation can say WHICH worker file is corrupt or inconsistent. Not
  // serialized.
  std::string source;

  // Derived from `spec` for printing and validation.
  std::vector<std::string> adversaries;
  std::vector<std::string> placement_names;
  int seeds = 0;

  struct Group {
    std::size_t group = 0;  // global group index: adversary * placements + placement
    AggregateResult aggregate;
  };
  std::vector<Group> groups;  // in group order, covering [group_begin, group_end)

  // Fold of the groups in group order == the shard's total aggregate.
  AggregateResult total() const;
};

// Packages one worker's result (Engine::run(spec, plan)) for the wire: its
// per-group aggregates (ExperimentResult::groups), which must cover the
// plan. The rvalue overload moves them out instead of copying, so a worker
// holds no second copy of its group aggregates.
ShardPartial make_partial(const ExperimentSpec& spec, const ShardPlan& plan,
                          const ExperimentResult& result);
ShardPartial make_partial(const ExperimentSpec& spec, const ShardPlan& plan,
                          ExperimentResult&& result);

void write_partial(std::ostream& out, const ShardPartial& partial);

// The two line shapes of a partial file, exposed so CheckpointSink can grow
// one incrementally; write_partial is exactly header + group lines.
// `adversaries`/`placements` are the grid echo names (placements resolved to
// the one unnamed fault-free pattern when the spec has none).
void write_partial_header(std::ostream& out, const ShardPlan& plan, const util::Json& spec);
void write_partial_group(std::ostream& out, std::size_t group,
                         const std::vector<std::string>& adversaries,
                         const std::vector<std::string>& placements,
                         const AggregateResult& aggregate);

// The grid-echo names of a spec (adversaries, resolved placement names);
// what the per-line writers above and the streaming sinks need.
void grid_names(const ExperimentSpec& spec, std::vector<std::string>& adversaries,
                std::vector<std::string>& placements);

// Throws std::invalid_argument on malformed input or a format/version
// mismatch. `source` names the stream in error messages (a file path).
ShardPartial read_partial(std::istream& in, const std::string& source = "<stream>");

// Folds worker partials (any input order) into the full-grid partial
// {shards=1, shard=0, groups [0, G)}. Requires exactly one partial per shard
// index of a consistent grid: identical spec dumps, identical shard counts,
// and group ranges that concatenate to the whole grid. The result
// write_partial()s byte-identically to a single-process --shards=1 run.
ShardPartial merge_partials(std::vector<ShardPartial> parts);

// One line per differing top-level field of two serialized spec objects
// ("seeds: checkpoint has 8, spec wants 24"), joined with "; ". Empty when
// the dumps agree. Used to explain foreign-checkpoint rejections: naming
// the mismatched fields turns "foreign checkpoint" into an actionable
// diagnostic.
std::string describe_spec_mismatch(const util::Json& wanted, const util::Json& found);

// --- Checkpoints -------------------------------------------------------------

// What a tolerant scan of a (possibly truncated) checkpoint file found.
struct CheckpointState {
  bool header_present = false;    // false: file missing/empty -> fresh start
  std::size_t next_group = 0;     // first group NOT in the file
  std::uint64_t valid_bytes = 0;  // prefix length ending at the last complete line
};

// Scans `path` for a resumable prefix of the shard-partial format: a header
// matching `spec` (by serialized dump) and `plan`, followed by group lines
// in order. Scanning stops at the first incomplete or malformed line (a
// preempted worker may have died mid-write); everything after `valid_bytes`
// must be truncated away before appending. Throws std::invalid_argument
// when a header IS present but belongs to a different spec or plan --
// resuming someone else's checkpoint is always a caller mistake.
CheckpointState read_checkpoint(const std::string& path, const ExperimentSpec& spec,
                                const ShardPlan& plan);

// Truncates `path` to its first `lines` complete ('\n'-terminated) lines:
// the resume surgery for line-oriented companion files (trace sinks flush at
// group boundaries BEFORE the checkpoint line is written, so a checkpointed
// group implies its trace rows are on disk -- possibly followed by rows of
// groups the checkpoint never recorded, which this cuts away). Throws when
// the file has fewer complete lines than requested.
void truncate_to_lines(const std::string& path, std::uint64_t lines);

}  // namespace synccount::sim
