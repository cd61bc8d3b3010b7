// Measurement plumbing of the end-to-end benchmark: clocks, resource usage,
// order statistics, digests, an in-memory span recorder, and child-process
// handling for the served workload. Nothing here knows about workloads.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

// Seconds on the sim layer's sanctioned monotonic clock (sim::profile_now).
double now_s();

// User + system CPU seconds of this process (all threads) plus every child
// it has reaped so far.
double cpu_s();

// Peak resident set of this process, MiB.
double self_peak_rss_mb();

double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// splitmix64: derives independent workload seeds from the --seed argument.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// One measured quantity of a run, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Jobs attempted and failed (threw, timed out, or failed an output check).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // every failed check, one line each

  // Counts one job; it failed when `job_failures` is non-empty.
  void job(const std::vector<std::string>& job_failures);
};

// In-memory span recorder (name, start, end, parent, run id). Spans are
// written out when the run ends; self time = duration minus the part of it
// covered by child spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int run = 0;
  };

  // Opens a span under `parent` (-1: top level); returns its id.
  int begin(std::string name, int parent = -1);
  void end(int id);
  // Starts a new run id for the spans that follow (one id per traced job).
  void next_run() { ++run_; }

  // Self time per span name, summed over all spans of that name.
  std::map<std::string, double> self_seconds() const;
  // All durations (seconds) of spans with this name.
  std::vector<double> durations(const std::string& name) const;
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // sink spans arrive from engine pool threads
  std::vector<Span> spans_;
  int run_ = 0;
};

// RAII span; a null tracer records nothing (the untraced path).
class Scoped {
 public:
  Scoped(Tracer* tracer, std::string name, int parent = -1);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// --- Child processes -----------------------------------------------------------

struct Reaped {
  int status = 0;          // waitpid status
  double peak_rss_mb = 0.0;
  bool exited_ok() const;  // exited with code 0
};

// CPU seconds and peak RSS (MiB) of a live child, from /proc.
double proc_cpu_s(pid_t pid);
double proc_peak_rss_mb(pid_t pid);

// Owns spawned children: whatever is still running when it is destroyed is
// killed and reaped, so no run leaves a daemon or worker behind.
class Children {
 public:
  Children() = default;
  ~Children();
  Children(const Children&) = delete;
  Children& operator=(const Children&) = delete;

  // Starts `argv` (fork + exec) with stdout appended to `log_path`, and
  // stderr too unless `stderr_fd` names another descriptor to use. The
  // child's ru_maxrss, as wait() reports it, is its own peak.
  pid_t start(const std::vector<std::string>& argv, const std::string& log_path,
              int stderr_fd = -1);
  // As start(), through posix_spawn: its cost does not grow with this
  // process's memory, so it is cheaper and steadier, but the child shares
  // that memory until exec and its ru_maxrss then counts this process's
  // resident set. For children whose peak is read from /proc while they run.
  pid_t launch(const std::vector<std::string>& argv, const std::string& log_path,
               int stderr_fd = -1);
  // Blocks until a child started here exits, at most `timeout_s`; on
  // timeout kills it (SIGKILL), reaps it and sets `timed_out`.
  Reaped wait(pid_t pid, double timeout_s, bool* timed_out = nullptr);
  // SIGKILLs a live child; the destructor or wait() reaps it.
  void kill(pid_t pid) const;

 private:
  std::vector<pid_t> live_;
};

// --- Host facts ------------------------------------------------------------------

// "nproc=4 cpu=<model> isa=<widest vector ISA> batch_words=<n>".
std::string host_facts();

}  // namespace e2e
