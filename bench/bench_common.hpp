// Shared harness for the benchmark binaries: every bench is a declarative
// spec builder. A bench constructs sim::ExperimentSpecs (data only -- no
// callbacks; algorithms travel as pointers or counting::AlgorithmSpec
// variants) and hands them to Harness::run, which owns everything
// cross-cutting: the engine shared by the process (--threads=N /
// SYNCCOUNT_THREADS), the declarative sink flags every bench accepts
// (--progress, --trace=FILE, --emit-spec=PREFIX), and the table-cell
// formatting helpers.
//
// Because specs are data, any bench experiment can be exported with
// --emit-spec=PREFIX and replayed, sharded or resumed later via
// `synccount_cli sweep --spec=PREFIX<label>.json` -- the bench binaries and
// the CLI are two front ends over one experiment representation.
#pragma once

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "counting/algorithm_spec.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "sim/sink.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace synccount::bench {

// Thread count for a bench process: --threads=N beats SYNCCOUNT_THREADS
// beats hardware concurrency (0).
inline int thread_count(const util::Cli& cli) {
  if (cli.has("threads")) return static_cast<int>(cli.get_int("threads", 0));
  // synccount-lint: allow(nondet) -- documented SYNCCOUNT_THREADS override
  // for bench drivers; thread count never changes result bytes (engine
  // contract), only wall time.
  if (const char* env = std::getenv("SYNCCOUNT_THREADS")) return std::atoi(env);
  return 0;
}

// The engine every bench in this process shares (one thread pool).
inline const sim::Engine& engine(const util::Cli& cli) {
  static const sim::Engine eng(thread_count(cli));
  return eng;
}

class Harness {
 public:
  explicit Harness(const util::Cli& cli) : cli_(cli) {}

  const sim::Engine& engine() const { return bench::engine(cli_); }
  int threads() const { return engine().threads(); }

  // Runs one named experiment. `label` distinguishes the bench's experiments
  // in file names (trace files, emitted specs); `extra` carries in-process
  // sinks the bench needs itself (e.g. sim::RecordSink for output traces).
  // Common flags, applied to every experiment:
  //   --progress               per-group progress on stderr
  //   --trace=FILE             per-execution trace streamed to disk; `label`
  //                            is inserted before the extension so multiple
  //                            experiments never clobber one file
  //                            (--trace-format=jsonl|bin, --trace-outputs)
  //   --emit-spec=PREFIX       write PREFIX<label>.json (a synccount-spec
  //                            file; experiments whose algorithm cannot be
  //                            serialised warn and skip the file)
  sim::ExperimentResult run(const std::string& label, sim::ExperimentSpec spec,
                            const sim::SinkList& extra = {}) const {
    if (cli_.has("trace")) {
      sim::SinkConfig cfg;
      cfg.kind = sim::SinkConfig::Kind::kTrace;
      cfg.path = label_path(require_file_value("trace"), label);
      cfg.format = cli_.get_string("trace-format", "jsonl");
      cfg.outputs = cli_.get_bool("trace-outputs");
      // Validate here: bench mains have no catch-all, so a throwing
      // TraceSink constructor would abort instead of exiting cleanly.
      if (const std::string error = sim::trace_format_error(cfg.format, cfg.outputs);
          !error.empty()) {
        std::cerr << error << "\n";
        std::exit(2);
      }
      spec.sinks.push_back(std::move(cfg));
    }
    if (cli_.get_bool("progress")) {
      spec.sinks.push_back({sim::SinkConfig::Kind::kProgress, "", "jsonl", false});
    }
    if (cli_.has("emit-spec")) emit_spec(label, spec);
    const auto owned = sim::make_sinks(spec, sim::plan_shards(spec, 1, 0));
    return engine().run(spec, sim::plan_shards(spec, 1, 0), sim::sink_list(owned, extra));
  }

 private:
  // A bare `--trace` / `--emit-spec` parses as the boolean value "true";
  // writing files literally named "true..." is always a forgotten =VALUE.
  std::string require_file_value(const std::string& flag) const {
    const std::string value = cli_.get_string(flag, "");
    if (value.empty() || value == "true") {
      std::cerr << "--" << flag << " requires a value: --" << flag << "=PATH\n";
      std::exit(2);
    }
    return value;
  }

  // "tr.jsonl" + "E7 f=1" -> "tr-e7-f1.jsonl"
  static std::string slug(const std::string& label) {
    std::string s;
    for (const char c : label) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        s.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      } else if (!s.empty() && s.back() != '-') {
        s.push_back('-');
      }
    }
    while (!s.empty() && s.back() == '-') s.pop_back();
    return s;
  }

  static std::string label_path(const std::string& path, const std::string& label) {
    const std::string tag = slug(label);
    if (tag.empty()) return path;
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.find_last_of('/');
    if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
      return path + "-" + tag;
    }
    return path.substr(0, dot) + "-" + tag + path.substr(dot);
  }

  void emit_spec(const std::string& label, const sim::ExperimentSpec& spec) const {
    const std::string path = require_file_value("emit-spec") + slug(label) + ".json";
    try {
      std::ofstream out(path);
      if (!out.good()) {
        std::cerr << "warning: cannot write spec file " << path << "\n";
        return;
      }
      sim::write_spec_file(out, spec);
      std::cerr << "spec: " << path << "\n";
    } catch (const std::invalid_argument& e) {
      std::cerr << "warning: experiment '" << label << "' is not serialisable ("
                << e.what() << ")\n";
    }
  }

  const util::Cli& cli_;
};

struct MeasureOptions {
  int seeds = 3;
  std::vector<std::string> adversaries = {"split"};
  std::uint64_t extra_rounds = 300;   // horizon = bound + extra
  std::uint64_t horizon_override = 0; // used when no bound exists
  std::uint64_t margin = 100;
  std::uint64_t stop_after_stable = 0;
};

// One-placement spec for the classic "stabilisation of algo under faults"
// measurement; benches tweak the returned spec before running when needed.
inline sim::ExperimentSpec make_spec(const counting::AlgorithmPtr& algo,
                                     const std::vector<bool>& faulty,
                                     const MeasureOptions& opt) {
  sim::ExperimentSpec spec;
  spec.algo = algo;
  spec.placements = {{"", faulty}};
  spec.adversaries = opt.adversaries;
  spec.seeds = opt.seeds;
  spec.extra_rounds = opt.extra_rounds;
  spec.horizon_override = opt.horizon_override;
  spec.margin = opt.margin;
  spec.stop_after_stable = opt.stop_after_stable;
  return spec;
}

// Runs the spec and returns the overall aggregate (the common case where a
// bench table row is one fold over the whole grid).
inline sim::AggregateResult measure_stabilisation(const Harness& harness,
                                                  const std::string& label,
                                                  const counting::AlgorithmPtr& algo,
                                                  const std::vector<bool>& faulty,
                                                  const MeasureOptions& opt) {
  return harness.run(label, make_spec(algo, faulty, opt)).total;
}

inline std::string fmt_rounds(const sim::AggregateResult& agg) { return agg.fmt_rounds(); }

// "stabilised/runs" cell.
inline std::string fmt_rate(const sim::AggregateResult& agg) {
  return std::to_string(agg.stabilised) + "/" + std::to_string(agg.runs);
}

}  // namespace synccount::bench
