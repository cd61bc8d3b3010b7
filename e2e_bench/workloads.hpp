// The benchmark's workloads: the inputs each one generates from its seed, the
// job it times through the repository's public path, and the checks on the
// job's output. The generic measurement loops live in main.cpp; the traced
// per-layer probes in layers.cpp.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "sim/engine.hpp"
#include "sim/sink.hpp"
#include "synthesis/portfolio.hpp"
#include "util/json.hpp"

namespace e2e {

namespace counting = synccount::counting;
namespace sim = synccount::sim;
namespace synthesis = synccount::synthesis;
namespace util = synccount::util;

// Compute threads of every in-process job: at most 4, at most nproc.
int compute_threads();

// What main() hands every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // synccount_serve executable
  // Reference digests by workload, then by seed (decimal string).
  std::map<std::string, std::map<std::string, std::string>> digests;

  // The stored digest for this workload and seed, or "" when there is none
  // (an unseen seed: only the reference-free checks apply).
  std::string stored_digest(const std::string& workload_name) const;
};

// --- Generated inputs --------------------------------------------------------------

// Table 1's computer-designed counter (n=4, f=1, |X|=3, c=2) under the six
// batchable adversaries x {spread, none}, sketch stats, stop_after_stable
// 120. sweep-table: 65,536 seeds per group, with a binary trace and a
// checkpoint in the working directory. serve-table: 16,384 seeds per group,
// no file sinks. Each draws its cell seeds from its own stream of `seed`.
sim::ExperimentSpec sweep_table_spec(std::uint64_t seed);
sim::ExperimentSpec serve_table_spec(std::uint64_t seed);

// sweep-towers: practical towers f=2 and f=7 (C=10) and a pulling tower
// under silent,split x spread, plus one Table 1 group under lookahead
// (scalar runner). Exact stats, no file sinks.
struct TowerCase {
  std::string name;  // "practical-f2", "practical-f7", "pulling-f2", "lookahead"
  sim::ExperimentSpec spec;
};
std::vector<TowerCase> tower_cases(std::uint64_t seed);

// synth-n4f1: n=4, f=1, |X|=3, c=2, cyclic symmetry, R=6.
synthesis::SynthesisSpec synth_spec();
synthesis::ParallelOptions synth_options();

// --- The sweep path (spec -> make_sinks -> Engine::run -> partial bytes) ----------

// Timing of the spec's real sinks, gathered by a decorator that forwards
// every call to the sinks make_sinks built.
struct SinkStats {
  double busy_s = 0.0;              // on_cell + on_group, all sinks
  std::vector<double> commit_s;     // one on_group (group commit) per group
  double bytes_written = 0.0;       // file sink sizes after the last group
  double bytes_copied = 0.0;        // published sizes re-copied by commits
};

struct SweepOutput {
  std::string bytes;  // make_partial + write_partial
  sim::ExperimentResult result;
  double wall_s = 0.0;
};

// One job of `synccount_cli sweep --spec`: instantiate the spec's sinks,
// run the engine, write the partial. With `sink_stats`, the sinks are
// wrapped in the timing decorator; `tracer` (may be null) gets spans.
SweepOutput run_sweep(const sim::Engine& engine, const sim::ExperimentSpec& spec,
                      Tracer* tracer, int parent, SinkStats* sink_stats = nullptr);

// Cells of the run that break Theorem 1: not stabilised, or stabilised
// after the algorithm's stabilisation_bound() (every placement here has at
// most f faults).
std::uint64_t bound_violations(const sim::ExperimentResult& result, std::uint64_t bound);

// --- The served path -------------------------------------------------------------

// A synccount_serve daemon on a fresh socket and state directory, driven
// through serve::Client. The constructor returns once the daemon has
// logged that it listens (read from its stderr pipe, no polling) and a
// status request has round-tripped. Workers are started per job
// (`worker --threads=1`, exiting once the queue settles empty) and reaped
// before run() returns.
class ServeHarness {
 public:
  static constexpr int kPollMs = 10;  // completion poll interval

  ServeHarness(std::string serve_bin, std::string dir, Children& children);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  struct Job {
    std::string bytes;          // the served partial
    double wall_s = 0.0;        // submit .. results in hand
    double workers_peak_rss_mb = 0.0;  // sum over the job's workers
    bool workers_ok = true;     // every worker exited 0 in time
  };
  // Submits `spec_json` as job `name`, starts `workers` workers, polls until
  // complete and fetches the results. Request round trips are recorded as
  // "serve.request" spans when `tracer` is set.
  Job run(const std::string& name, const util::Json& spec_json, int workers, Tracer* tracer,
          int parent);

  const std::string& socket() const noexcept { return socket_; }
  const std::string& dir() const noexcept { return dir_; }

  // Stops the daemon (shutdown request, then reap); idempotent.
  void shutdown();
  double daemon_cpu_s() const;
  double daemon_peak_rss_mb() const;

 private:
  util::Json request(const util::Json& req, Tracer* tracer, int parent);
  // Copies the daemon's stderr into its log and flags the "listening" line.
  void pump_log(int fd);
  // Stops the daemon (even if it does not answer) and joins the log pump.
  void stop_daemon() noexcept;

  std::string serve_bin_;
  std::string dir_;
  std::string socket_;
  Children& children_;
  pid_t daemon_ = -1;
  int worker_seq_ = 0;

  std::thread log_pump_;
  std::mutex log_mu_;
  std::condition_variable log_cv_;
  bool listening_ = false;  // the daemon logged its listening line
  bool log_closed_ = false; // its stderr reached EOF (it exited)
};

// --- Workloads -------------------------------------------------------------------

// One job's measurements; main() adds the CPU delta around run_job().
struct JobTiming {
  double wall_s = 0.0;
  double extra_cpu_s = 0.0;  // CPU not visible in this process's rusage
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One full set-up; returns its duration in seconds (setup_s), which
  // excludes tearing down the previous set-up. Set-up holds only work the
  // following jobs reuse. main() calls it several times before each timed
  // job, which then runs on the last one.
  virtual double setup() = 0;
  // One job through the public path. Failed output checks are appended to
  // `failures`; a traced job (`tracer` set) also records spans.
  virtual JobTiming run_job(std::vector<std::string>& failures, Tracer* tracer) = 0;
  // Peak resident memory of the process(es) that ran the jobs, MiB.
  virtual double peak_rss_mb() const { return self_peak_rss_mb(); }
  // Digest of one job's result bytes (for recording reference digests).
  virtual std::string result_digest() = 0;
  // Human-readable facts for the report (cells per job, derived rates...).
  virtual std::vector<std::string> notes(double job_s) const = 0;
};

std::unique_ptr<Workload> make_workload(const Options& opts);
const std::vector<std::string>& workload_names();

// The traced run's per-layer probes (layers.cpp): every per-layer metric,
// whatever the workload.
std::vector<Metric> run_layer_suite(const Options& opts, Tally& tally, Tracer& tracer);

}  // namespace e2e
