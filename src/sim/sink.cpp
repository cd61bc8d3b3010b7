#include "sim/sink.hpp"

#include <iostream>
#include <sstream>

#include "sim/experiment_io.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace synccount::sim {

// --- MemorySink --------------------------------------------------------------

void MemorySink::on_cell(const CellOutcome& cell) { cells_.push_back(cell); }

void MemorySink::on_group(std::size_t group, const AggregateResult& aggregate) {
  groups_.push_back({group, aggregate});
}

AggregateResult MemorySink::total() const {
  AggregateResult total;
  for (const Group& g : groups_) total.merge(g.aggregate);
  return total;
}

// --- TraceSink ---------------------------------------------------------------

std::string trace_format_error(const std::string& format, bool outputs) {
  if (format != "jsonl" && format != "bin") {
    return "unknown trace format: " + format + " (want jsonl|bin)";
  }
  if (outputs && format != "jsonl") return "per-round outputs require the jsonl trace format";
  return "";
}

TraceSink::TraceSink(std::string path, std::string format, bool outputs, bool resume)
    : path_(std::move(path)),
      format_(format == "bin" ? Format::kBin : Format::kJsonl),
      outputs_(outputs),
      resume_(resume) {
  SC_CHECK(!path_.empty(), "trace sink needs a path");
  const std::string error = trace_format_error(format, outputs_);
  SC_CHECK(error.empty(), path_ + ": " + error);
}

TraceSink::~TraceSink() = default;

void TraceSink::on_start(const ExperimentSpec& spec, const ShardPlan& plan) {
  (void)plan;
  grid_names(spec, adversaries_, placements_);
  out_ = std::make_unique<AtomicAppender>(path_, resume_, "sink.trace");
  // The binary format's header block is written on an empty file only; a
  // resumed non-empty file already starts with it.
  if (format_ == Format::kBin && out_->committed() == 0) {
    out_->append(encode_trace_header({adversaries_, placements_}));
  }
  // Commit now: trace sinks start before checkpoint sinks (make_sinks order),
  // so once a checkpoint header exists on disk the bin header does too --
  // otherwise a worker killed before the first group would leave a
  // checkpoint that resume validates against an empty trace file.
  out_->commit();
}

void TraceSink::on_cell(const CellOutcome& cell) {
  const RunResult& r = cell.result;
  if (format_ == Format::kBin) {
    // Buffer until on_group: blocks are per-group columns, not rows.
    TraceRow row;
    row.cell = cell.cell_index;
    row.adversary = static_cast<std::uint32_t>(cell.adversary);
    row.placement = static_cast<std::uint32_t>(cell.placement);
    row.seed_index = cell.seed_index;
    row.seed = cell.seed;
    row.rounds = r.rounds;
    row.stabilised = r.stabilised;
    row.stabilisation_round = r.stabilisation_round;
    row.suffix_length = r.suffix_length;
    row.max_window = r.max_window;
    row.max_pulls = r.max_pulls_per_round;
    row.avg_pulls = r.avg_pulls_per_round;
    pending_.push_back(row);
    return;
  }
  using util::Json;
  Json j = Json::object();
  j.set("cell", Json::number(static_cast<std::uint64_t>(cell.cell_index)));
  j.set("adversary", Json::string(adversaries_[cell.adversary]));
  j.set("placement", Json::string(placements_[cell.placement]));
  j.set("seed_index", Json::number(cell.seed_index));
  j.set("seed", Json::number(cell.seed));
  j.set("rounds", Json::number(r.rounds));
  j.set("stabilised", Json::boolean(r.stabilised));
  j.set("stabilisation_round", Json::number(r.stabilisation_round));
  j.set("suffix_length", Json::number(r.suffix_length));
  j.set("max_window", Json::number(r.max_window));
  j.set("max_pulls", Json::number(r.max_pulls_per_round));
  j.set("avg_pulls", Json::number(r.avg_pulls_per_round));
  if (outputs_) {
    Json ids = Json::array();
    for (const auto id : r.correct_ids) {
      ids.push_back(Json::number(static_cast<std::int64_t>(id)));
    }
    j.set("correct_ids", std::move(ids));
    Json rounds = Json::array();
    for (const auto& round : r.outputs) {
      Json cells = Json::array();
      for (const std::uint64_t v : round) cells.push_back(Json::number(v));
      rounds.push_back(std::move(cells));
    }
    j.set("outputs", std::move(rounds));
  }
  out_->append(j.dump());
  out_->append("\n");
}

void TraceSink::on_group(std::size_t group, const AggregateResult& aggregate) {
  (void)aggregate;
  if (format_ == Format::kBin) {
    out_->append(encode_trace_block(group, pending_));
    pending_.clear();
  }
  // Group-boundary commit: once a checkpoint sink (delivered after this one,
  // see make_sinks) records the group, its trace rows are durably on disk.
  out_->commit();
}

// --- ProgressSink ------------------------------------------------------------

ProgressSink::ProgressSink(std::ostream* os) : os_(os != nullptr ? os : &std::cerr) {}

void ProgressSink::on_start(const ExperimentSpec& spec, const ShardPlan& plan) {
  grid_names(spec, adversaries_, placements_);
  done_groups_ = 0;
  done_cells_ = 0;
  total_groups_ = plan.groups();
  total_cells_ = plan.groups() * static_cast<std::uint64_t>(spec.seeds);
}

void ProgressSink::on_group(std::size_t group, const AggregateResult& aggregate) {
  ++done_groups_;
  done_cells_ += aggregate.runs;
  const std::size_t n_pl = placements_.size();
  *os_ << "[" << done_groups_ << "/" << total_groups_ << "] "
       << adversaries_[group / n_pl];
  if (!placements_[group % n_pl].empty()) *os_ << " / " << placements_[group % n_pl];
  *os_ << ": " << aggregate.stabilised << "/" << aggregate.runs << " stabilised ("
       << done_cells_ << "/" << total_cells_ << " cells)" << std::endl;
}

// --- CheckpointSink ----------------------------------------------------------

CheckpointSink::CheckpointSink(std::string path, bool resume)
    : path_(std::move(path)), resume_(resume) {
  SC_CHECK(!path_.empty(), "checkpoint sink needs a path");
}

CheckpointSink::~CheckpointSink() = default;

void CheckpointSink::on_start(const ExperimentSpec& spec, const ShardPlan& plan) {
  grid_names(spec, adversaries_, placements_);
  const util::Json spec_json = experiment_spec_to_json(spec);
  out_ = std::make_unique<AtomicAppender>(path_, resume_, "sink.checkpoint");
  if (!resume_) {
    std::ostringstream header;
    write_partial_header(header, plan, spec_json);
    out_->append(header.str());
  }
  out_->commit();
}

void CheckpointSink::on_group(std::size_t group, const AggregateResult& aggregate) {
  // One committed line per finished group: the durable unit of progress a
  // preempted worker resumes from. A kill mid-commit leaves a torn last
  // line, which resume cuts off (read_checkpoint's valid_bytes).
  std::ostringstream line;
  write_partial_group(line, group, adversaries_, placements_, aggregate);
  out_->append(line.str());
  out_->commit();
}

// --- Declarative construction ------------------------------------------------

std::string sink_path(const SinkConfig& cfg, const ShardPlan& plan) {
  if (plan.shards <= 1) return cfg.path;
  return cfg.path + ".shard" + std::to_string(plan.shard);
}

std::vector<std::unique_ptr<Sink>> make_sinks(const ExperimentSpec& spec,
                                              const ShardPlan& plan, bool resume) {
  // Checkpoints go last: at a group boundary every companion sink has
  // flushed before the checkpoint line that promises their data is on disk.
  std::vector<std::unique_ptr<Sink>> sinks;
  for (const SinkConfig& cfg : spec.sinks) {
    switch (cfg.kind) {
      case SinkConfig::Kind::kTrace:
        sinks.push_back(std::make_unique<TraceSink>(sink_path(cfg, plan), cfg.format,
                                                    cfg.outputs, resume));
        break;
      case SinkConfig::Kind::kProgress:
        sinks.push_back(std::make_unique<ProgressSink>());
        break;
      case SinkConfig::Kind::kCheckpoint:
        break;  // below
    }
  }
  for (const SinkConfig& cfg : spec.sinks) {
    if (cfg.kind == SinkConfig::Kind::kCheckpoint) {
      sinks.push_back(std::make_unique<CheckpointSink>(sink_path(cfg, plan), resume));
    }
  }
  return sinks;
}

SinkList sink_list(const std::vector<std::unique_ptr<Sink>>& owned, const SinkList& extra) {
  SinkList all = extra;
  for (const auto& sink : owned) all.push_back(sink.get());
  return all;
}

}  // namespace synccount::sim
