#include "workloads.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "boosting/planner.hpp"
#include "counting/algorithm_spec.hpp"
#include "counting/table_algorithm.hpp"
#include "counting/table_io.hpp"
#include "pulling/pulling_counter.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "sim/composed_runner.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "synthesis/verifier.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace e2e {

namespace boosting = synccount::boosting;
namespace pulling = synccount::pulling;
namespace serve = synccount::serve;

int compute_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

std::string Options::stored_digest(const std::string& workload_name) const {
  const auto w = digests.find(workload_name);
  if (w == digests.end()) return "";
  const auto s = w->second.find(std::to_string(seed));
  return s == w->second.end() ? "" : s->second;
}

// --- Generated inputs --------------------------------------------------------------

namespace {

// Seed salts: each workload (and each tower) draws an independent stream.
constexpr std::uint64_t kSaltTable = 1;
constexpr std::uint64_t kSaltServe = 2;
constexpr std::uint64_t kSaltTowers = 3;

const std::vector<std::string> kTableAdversaries = {"silent", "echo",   "random",
                                                    "split",  "mirror", "targeted-vote"};

sim::ExperimentSpec tower_spec(const counting::AlgorithmPtr& algo,
                               std::vector<std::string> adversaries, int seeds,
                               std::uint64_t base_seed) {
  sim::ExperimentSpec spec;
  spec.algorithm = counting::describe(algo);
  SC_CHECK(spec.algorithm.has_value(), "tower is not describable: " + algo->name());
  spec.adversaries = std::move(adversaries);
  spec.placements = {{"spread", sim::faults_spread(algo->num_nodes(), algo->resilience())}};
  spec.seeds = seeds;
  spec.base_seed = base_seed;
  spec.stop_after_stable = 120;
  return spec;
}

sim::ExperimentSpec table_grid(std::uint64_t base_seed, int seeds_per_group) {
  sim::ExperimentSpec spec;
  counting::AlgorithmSpec algo;
  algo.kind = counting::AlgorithmSpec::Kind::kTable;
  algo.table_name = "3states";
  spec.algorithm = algo;
  spec.adversaries = kTableAdversaries;
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = seeds_per_group;
  spec.base_seed = base_seed;
  spec.stop_after_stable = 120;
  spec.stats = util::StatsMode::kSketch;
  return spec;
}

}  // namespace

sim::ExperimentSpec sweep_table_spec(std::uint64_t seed) {
  sim::ExperimentSpec spec = table_grid(mix_seed(seed, kSaltTable), 65536);
  // Relative paths: the driver runs inside its work directory, so the spec
  // (echoed in the partial's header) and its bytes do not depend on where
  // the checkout lives.
  spec.sinks.push_back({sim::SinkConfig::Kind::kTrace, "table.trace.bin", "bin", false});
  spec.sinks.push_back({sim::SinkConfig::Kind::kCheckpoint, "table.ckpt", "jsonl", false});
  return spec;
}

sim::ExperimentSpec serve_table_spec(std::uint64_t seed) {
  return table_grid(mix_seed(seed, kSaltServe), 16384);
}

std::vector<TowerCase> tower_cases(std::uint64_t seed) {
  // Seeds per group are half of the sizes the towers were first measured at
  // (f=2: 4096, f=7: 1024) so one job takes ~1 s and a run repeats it often.
  std::vector<TowerCase> cases;
  cases.push_back({"practical-f2",
                   tower_spec(boosting::build_plan(boosting::plan_practical(2, 10)),
                              {"silent", "split"}, 2048, mix_seed(seed, kSaltTowers))});
  cases.push_back({"practical-f7",
                   tower_spec(boosting::build_plan(boosting::plan_practical(7, 10)),
                              {"silent", "split"}, 512, mix_seed(seed, kSaltTowers + 1))});
  // Sample size 64: Corollary 4's bound holds w.h.p. only once the per-round
  // sampling failure is rare; at 8-32 pulls most runs never stabilise within
  // it, at 64 every run stabilises far inside it. Pulled majorities cost
  // ~10 us per node-round, hence few seeds.
  cases.push_back(
      {"pulling-f2",
       tower_spec(pulling::build_pulling_practical(2, 10, 64, pulling::SamplingMode::kFresh),
                  {"silent", "split"}, 64, mix_seed(seed, kSaltTowers + 2))});
  sim::ExperimentSpec lookahead = table_grid(mix_seed(seed, kSaltTowers + 3), 4096);
  lookahead.adversaries = {"lookahead"};
  lookahead.placements = {{"spread", sim::faults_spread(4, 1)}};
  lookahead.stats = util::StatsMode::kExact;
  cases.push_back({"lookahead", std::move(lookahead)});
  return cases;
}

synthesis::SynthesisSpec synth_spec() {
  return synthesis::SynthesisSpec{4, 1, 3, 2, counting::Symmetry::kCyclic, 6};
}

synthesis::ParallelOptions synth_options() {
  synthesis::ParallelOptions opt;
  opt.base = synthesis::SynthesisOptions{6, 6, 0};
  opt.portfolio = 4;
  opt.cube_depth = 3;
  opt.threads = compute_threads();
  opt.prefilter = true;
  return opt;
}

// --- The sweep path ------------------------------------------------------------------

namespace {

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

// Forwards every call to the sinks make_sinks() built, in their order, and
// times them. Each trace/checkpoint commit (AtomicAppender) re-publishes
// the whole file, so the bytes a commit copies are the file's published
// size just before it.
class TimedSinks final : public sim::Sink {
 public:
  TimedSinks(const std::vector<std::unique_ptr<sim::Sink>>& sinks,
             std::vector<std::string> files, Tracer* tracer, SinkStats& stats)
      : sinks_(sinks), files_(std::move(files)), tracer_(tracer), stats_(stats) {}

  int parent = -1;  // span the on_group spans hang under

  bool wants_outputs() const override {
    return std::any_of(sinks_.begin(), sinks_.end(),
                       [](const auto& s) { return s->wants_outputs(); });
  }
  bool wants_states() const override {
    return std::any_of(sinks_.begin(), sinks_.end(),
                       [](const auto& s) { return s->wants_states(); });
  }
  bool retain_traces() const override {
    return std::any_of(sinks_.begin(), sinks_.end(),
                       [](const auto& s) { return s->retain_traces(); });
  }
  void on_start(const sim::ExperimentSpec& spec, const sim::ShardPlan& plan) override {
    for (const auto& s : sinks_) s->on_start(spec, plan);
  }
  void on_cell(const sim::CellOutcome& cell) override {
    const double t0 = now_s();
    for (const auto& s : sinks_) s->on_cell(cell);
    stats_.busy_s += now_s() - t0;
  }
  void on_group(std::size_t group, const sim::AggregateResult& aggregate) override {
    for (const std::string& f : files_) stats_.bytes_copied += file_bytes(f);
    const Scoped span(tracer_, "sink.on_group", parent);
    const double t0 = now_s();
    for (const auto& s : sinks_) s->on_group(group, aggregate);
    const double dt = now_s() - t0;
    stats_.commit_s.push_back(dt);
    stats_.busy_s += dt;
  }
  void on_done(const sim::ExperimentResult& result) override {
    for (const auto& s : sinks_) s->on_done(result);
    stats_.bytes_written = 0.0;
    for (const std::string& f : files_) stats_.bytes_written += file_bytes(f);
  }

 private:
  const std::vector<std::unique_ptr<sim::Sink>>& sinks_;
  std::vector<std::string> files_;
  Tracer* tracer_;
  SinkStats& stats_;
};

}  // namespace

SweepOutput run_sweep(const sim::Engine& engine, const sim::ExperimentSpec& spec,
                      Tracer* tracer, int parent, SinkStats* sink_stats) {
  const Scoped job(tracer, "sweep.job", parent);
  const auto plan = sim::plan_shards(spec, 1, 0);
  SweepOutput out;
  const double t0 = now_s();
  std::vector<std::unique_ptr<sim::Sink>> owned;
  {
    const Scoped span(tracer, "sinks.make", job.id());
    owned = sim::make_sinks(spec, plan);
  }
  std::vector<std::string> files;
  for (const sim::SinkConfig& cfg : spec.sinks) {
    if (cfg.kind != sim::SinkConfig::Kind::kProgress) files.push_back(sim::sink_path(cfg, plan));
  }
  SinkStats unused;
  TimedSinks timed(owned, std::move(files), tracer, sink_stats ? *sink_stats : unused);
  {
    const Scoped span(tracer, "engine.run", job.id());
    timed.parent = span.id();
    out.result = engine.run(spec, plan,
                            sink_stats != nullptr ? sim::SinkList{&timed} : sim::sink_list(owned));
  }
  sim::ShardPartial partial;
  {
    const Scoped span(tracer, "partial.make", job.id());
    partial = sim::make_partial(spec, plan, out.result);
  }
  {
    const Scoped span(tracer, "partial.write", job.id());
    std::ostringstream os;
    sim::write_partial(os, partial);
    out.bytes = os.str();
  }
  out.wall_s = now_s() - t0;
  return out;
}

std::uint64_t bound_violations(const sim::ExperimentResult& result, std::uint64_t bound) {
  std::uint64_t v = 0;
  for (const sim::CellOutcome& cell : result.cells) {
    if (!cell.result.stabilised || cell.result.stabilisation_round > bound) ++v;
  }
  return v;
}

// --- The served path -----------------------------------------------------------------

ServeHarness::ServeHarness(std::string serve_bin, std::string dir, Children& children)
    : serve_bin_(std::move(serve_bin)), dir_(std::move(dir)), children_(children) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  socket_ = dir_ + "/sock";
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  try {
    daemon_ = children_.launch(
        {serve_bin_, "serve", "--socket=" + socket_, "--state-dir=" + dir_ + "/state"},
        dir_ + "/daemon.log", fds[1]);
  } catch (...) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw;
  }
  ::close(fds[1]);  // the daemon holds the only write end: EOF when it exits
  log_pump_ = std::thread([this, fd = fds[0]] { pump_log(fd); });
  try {
    // The daemon logs its listening line once the socket is bound and
    // listening; a status request then round-trips without retries.
    std::unique_lock<std::mutex> lock(log_mu_);
    const bool ready = log_cv_.wait_for(lock, std::chrono::seconds(20),
                                        [this] { return listening_ || log_closed_; });
    if (!ready || !listening_) throw std::runtime_error("daemon did not listen on " + socket_);
    lock.unlock();
    (void)request(serve::make_request("status"), nullptr, -1);
  } catch (...) {
    stop_daemon();
    throw;
  }
}

ServeHarness::~ServeHarness() {
  try {
    shutdown();
  } catch (const std::exception&) {
    // Children's destructor reaps whatever is left.
  }
  stop_daemon();
}

void ServeHarness::pump_log(int fd) {
  std::ofstream log(dir_ + "/daemon.log", std::ios::app);
  std::string seen;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    log.write(buf, n);
    if (!listening_) {
      seen.append(buf, static_cast<std::size_t>(n));
      if (seen.find("listening on") != std::string::npos) {
        const std::lock_guard<std::mutex> lock(log_mu_);
        listening_ = true;
        log_cv_.notify_all();
      }
    }
  }
  ::close(fd);
  const std::lock_guard<std::mutex> lock(log_mu_);
  log_closed_ = true;
  log_cv_.notify_all();
}

void ServeHarness::stop_daemon() noexcept {
  if (daemon_ >= 0) children_.kill(daemon_);
  if (log_pump_.joinable()) log_pump_.join();
}

util::Json ServeHarness::request(const util::Json& req, Tracer* tracer, int parent) {
  const Scoped span(tracer, "serve.request", parent);
  return serve::Client(socket_).request(req);
}

ServeHarness::Job ServeHarness::run(const std::string& name, const util::Json& spec_json,
                                    int workers, Tracer* tracer, int parent) {
  const Scoped span(tracer, "serve.job", parent);
  Job job;
  const double t0 = now_s();
  util::Json submit = serve::make_request("submit");
  submit.set("job", util::Json::string(name));
  submit.set("spec", spec_json);
  (void)request(submit, tracer, span.id());
  std::vector<pid_t> pids;
  for (int w = 0; w < workers; ++w) {
    pids.push_back(children_.start(
        {serve_bin_, "worker", "--socket=" + socket_, "--threads=1",
         "--id=w" + std::to_string(worker_seq_++)},
        dir_ + "/workers.log"));
  }
  util::Json status = serve::make_request("status");
  status.set("job", util::Json::string(name));
  const double deadline = t0 + 150.0;
  for (;;) {
    const util::Json resp = request(status, tracer, span.id());
    if (serve::msg_bool(resp.at("jobs").at(std::size_t{0}), "complete", false)) break;
    if (now_s() > deadline) throw std::runtime_error("served job " + name + " timed out");
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
  util::Json results = serve::make_request("results");
  results.set("job", util::Json::string(name));
  job.bytes = serve::msg_string(request(results, tracer, span.id()), "partial");
  job.wall_s = now_s() - t0;
  for (const pid_t pid : pids) {
    bool timed_out = false;
    const Reaped r = children_.wait(pid, 20.0, &timed_out);
    job.workers_peak_rss_mb += r.peak_rss_mb;
    job.workers_ok = job.workers_ok && r.exited_ok() && !timed_out;
  }
  return job;
}

void ServeHarness::shutdown() {
  if (daemon_ < 0) return;
  try {
    (void)request(serve::make_request("shutdown"), nullptr, -1);
  } catch (const std::exception&) {
    // Unreachable daemon: the reap below times out and kills it.
  }
  (void)children_.wait(daemon_, 10.0);
  daemon_ = -1;
}

double ServeHarness::daemon_cpu_s() const { return daemon_ < 0 ? 0.0 : proc_cpu_s(daemon_); }

double ServeHarness::daemon_peak_rss_mb() const {
  return daemon_ < 0 ? 0.0 : proc_peak_rss_mb(daemon_);
}

// --- Workloads -------------------------------------------------------------------------

namespace {

void write_spec(const std::string& path, const sim::ExperimentSpec& spec) {
  std::ostringstream os;
  sim::write_spec_file(os, spec);
  sim::atomic_write_file(path, os.str());
}

sim::ExperimentSpec read_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  return sim::read_spec_file(in, path);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

// Reference checks shared by every job: repeatable bytes within the run, and
// the stored digest for this seed when there is one.
class DigestCheck {
 public:
  DigestCheck(std::string workload, std::string stored)
      : workload_(std::move(workload)), stored_(std::move(stored)) {}

  void check(const std::string& d, std::vector<std::string>& failures) {
    if (first_.empty()) first_ = d;
    if (d != first_) failures.push_back(workload_ + ": result bytes differ between jobs");
    if (!stored_.empty() && d != stored_) {
      failures.push_back(workload_ + ": digest " + d + " != stored " + stored_);
    }
  }

 private:
  std::string workload_;
  std::string stored_;
  std::string first_;
};

std::uint64_t bound_of(const counting::AlgorithmPtr& algo) {
  const auto bound = algo->stabilisation_bound();
  SC_CHECK(bound.has_value(), "algorithm has no stabilisation bound: " + algo->name());
  return *bound;
}

// Builds the spec's algorithm once and hands it to the engine through
// `spec.algo`, so every job's Engine::run reuses it instead of building its
// own. The built algorithm must describe back to the same spec, so the
// partial's header -- and with it the result bytes -- are those of
// `synccount_cli sweep --spec`.
counting::AlgorithmPtr adopt_algorithm(sim::ExperimentSpec& spec) {
  counting::AlgorithmPtr algo = counting::build(*spec.algorithm);
  if (counting::describe(algo) != spec.algorithm) {
    throw std::runtime_error("algorithm does not describe back to its spec: " + algo->name());
  }
  spec.algo = algo;
  spec.algorithm.reset();
  return algo;
}

class TableSweep final : public Workload {
 public:
  explicit TableSweep(const Options& opts)
      : digests_("sweep-table", opts.stored_digest("sweep-table")) {
    const sim::ExperimentSpec spec = sweep_table_spec(opts.seed);
    cells_ = sim::group_count(spec) * static_cast<std::size_t>(spec.seeds);
    write_spec(kSpecFile, spec);
  }

  double setup() override {
    engine_.reset();
    const double t0 = now_s();
    spec_ = read_spec(kSpecFile);
    bound_ = bound_of(adopt_algorithm(spec_));
    engine_ = std::make_unique<sim::Engine>(compute_threads());
    return now_s() - t0;
  }

  JobTiming run_job(std::vector<std::string>& failures, Tracer* tracer) override {
    SinkStats sink_stats;  // a traced job times the sinks through the decorator
    const SweepOutput out =
        run_sweep(*engine_, spec_, tracer, -1, tracer != nullptr ? &sink_stats : nullptr);
    const std::uint64_t v = bound_violations(out.result, bound_);
    violations_ += v;
    if (v != 0) failures.push_back("sweep-table: " + std::to_string(v) + " bound violations");
    if (out.result.cells.size() != cells_) failures.push_back("sweep-table: wrong cell count");
    digests_.check(util::crc32_hex(out.bytes), failures);
    return {out.wall_s, 0.0};
  }

  std::string result_digest() override {
    (void)setup();
    return util::crc32_hex(run_sweep(*engine_, spec_, nullptr, -1).bytes);
  }

  std::vector<std::string> notes(double job_s) const override {
    return {"cells_per_s: " + fmt(static_cast<double>(cells_) / job_s) + " cells/s (" +
                std::to_string(cells_) + " cells per job)",
            "bound_violations: " + std::to_string(violations_)};
  }

 private:
  static constexpr const char* kSpecFile = "sweep-table.spec.json";
  std::size_t cells_ = 0;
  sim::ExperimentSpec spec_;
  std::uint64_t bound_ = 0;
  std::unique_ptr<sim::Engine> engine_;
  DigestCheck digests_;
  std::uint64_t violations_ = 0;
};

class TowerSweep final : public Workload {
 public:
  explicit TowerSweep(const Options& opts)
      : digests_("sweep-towers", opts.stored_digest("sweep-towers")) {
    for (TowerCase& c : tower_cases(opts.seed)) {
      cells_ += sim::group_count(c.spec) * static_cast<std::size_t>(c.spec.seeds);
      write_spec("sweep-towers." + c.name + ".spec.json", c.spec);
      names_.push_back(std::move(c.name));
      case_walls_.emplace_back();
    }
  }

  double setup() override {
    engine_.reset();
    specs_.clear();
    bounds_.clear();
    const double t0 = now_s();
    // Engine::run compiles each tower's hierarchy itself (the public API
    // takes no precompiled one), so the compile is job time, not set-up.
    for (const std::string& name : names_) {
      specs_.push_back(read_spec("sweep-towers." + name + ".spec.json"));
      bounds_.push_back(bound_of(adopt_algorithm(specs_.back())));
    }
    engine_ = std::make_unique<sim::Engine>(compute_threads());
    return now_s() - t0;
  }

  JobTiming run_job(std::vector<std::string>& failures, Tracer* tracer) override {
    std::string bytes;
    double wall = 0.0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const SweepOutput out = run_sweep(*engine_, specs_[i], tracer, -1);
      wall += out.wall_s;
      case_walls_[i].push_back(out.wall_s);
      bytes += out.bytes;
      const std::uint64_t v = bound_violations(out.result, bounds_[i]);
      violations_ += v;
      if (v != 0) {
        failures.push_back("sweep-towers/" + names_[i] + ": " + std::to_string(v) +
                           " bound violations");
      }
    }
    digests_.check(util::crc32_hex(bytes), failures);
    return {wall, 0.0};
  }

  std::string result_digest() override {
    (void)setup();
    std::string bytes;
    for (const auto& spec : specs_) bytes += run_sweep(*engine_, spec, nullptr, -1).bytes;
    return util::crc32_hex(bytes);
  }

  std::vector<std::string> notes(double job_s) const override {
    std::vector<std::string> out = {"cells_per_s: " + fmt(static_cast<double>(cells_) / job_s) +
                                        " cells/s (" + std::to_string(cells_) + " cells per job)",
                                    "bound_violations: " + std::to_string(violations_)};
    for (std::size_t i = 0; i < names_.size(); ++i) {
      out.push_back("  " + names_[i] + ": median " + fmt(median(case_walls_[i])) +
                    " s per job (all jobs)");
    }
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> case_walls_;
  std::vector<sim::ExperimentSpec> specs_;
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<sim::Engine> engine_;
  std::size_t cells_ = 0;
  DigestCheck digests_;
  std::uint64_t violations_ = 0;
};

class ServeTable final : public Workload {
 public:
  static constexpr int kWorkers = 3;

  explicit ServeTable(const Options& opts)
      : serve_bin_(opts.serve_bin), digests_("serve-table", opts.stored_digest("serve-table")) {
    const sim::ExperimentSpec spec = serve_table_spec(opts.seed);
    cells_ = sim::group_count(spec) * static_cast<std::size_t>(spec.seeds);
    write_spec(kSpecFile, spec);
  }

  // A fresh daemon (socket and state directory) for the jobs that follow.
  // Workers are not part of it: a `worker` exits once the queue settles
  // empty, so each job starts its own, and their start-up is job time.
  double setup() override {
    if (harness_ != nullptr) {
      const std::string old_dir = harness_->dir();
      harness_.reset();  // the previous daemon shuts down first
      std::filesystem::remove_all(old_dir);
    }
    const double t0 = now_s();
    const sim::ExperimentSpec spec = read_spec(kSpecFile);
    spec_json_ = sim::experiment_spec_to_json(spec);
    harness_ = std::make_unique<ServeHarness>(
        serve_bin_, "serve-" + std::to_string(setups_++), children_);
    return now_s() - t0;
  }

  JobTiming run_job(std::vector<std::string>& failures, Tracer* tracer) override {
    if (reference_.empty()) compute_reference(failures);
    const double daemon_cpu0 = harness_->daemon_cpu_s();
    const ServeHarness::Job job =
        harness_->run("job-" + std::to_string(jobs_++), spec_json_, kWorkers, tracer, -1);
    const double daemon_cpu = harness_->daemon_cpu_s() - daemon_cpu0;
    peak_rss_mb_ = std::max(peak_rss_mb_, harness_->daemon_peak_rss_mb() + job.workers_peak_rss_mb);
    if (!job.workers_ok) failures.push_back("serve-table: a worker failed or hung");
    if (job.bytes != reference_) failures.push_back("serve-table: served bytes != in-process bytes");
    digests_.check(util::crc32_hex(job.bytes), failures);
    return {job.wall_s, daemon_cpu};
  }

  double peak_rss_mb() const override { return peak_rss_mb_; }

  std::string result_digest() override {
    std::vector<std::string> failures;
    compute_reference(failures);
    if (!failures.empty()) throw std::runtime_error(failures.front());
    return util::crc32_hex(reference_);
  }

  std::vector<std::string> notes(double job_s) const override {
    return {"cells_per_s: " + fmt(static_cast<double>(cells_) / job_s) + " cells/s (" +
                std::to_string(cells_) + " cells per job, " + std::to_string(kWorkers) +
                " workers x 1 thread, poll " + std::to_string(ServeHarness::kPollMs) + " ms)",
            "bound_violations: " + std::to_string(violations_)};
  }

 private:
  // The same spec in-process at equal compute threads: the bytes the
  // service must reproduce.
  void compute_reference(std::vector<std::string>& failures) {
    const sim::ExperimentSpec spec = read_spec(kSpecFile);
    const sim::Engine engine(kWorkers);
    const SweepOutput out = run_sweep(engine, spec, nullptr, -1);
    reference_ = out.bytes;
    violations_ = bound_violations(out.result, bound_of(counting::build(*spec.algorithm)));
    if (violations_ != 0) {
      failures.push_back("serve-table: " + std::to_string(violations_) + " bound violations");
    }
  }

  static constexpr const char* kSpecFile = "serve-table.spec.json";
  std::size_t cells_ = 0;
  std::string serve_bin_;
  Children children_;  // declared before harness_: destroyed after it
  std::unique_ptr<ServeHarness> harness_;
  util::Json spec_json_;
  std::string reference_;
  DigestCheck digests_;
  int setups_ = 0;
  int jobs_ = 0;
  double peak_rss_mb_ = 0.0;
  std::uint64_t violations_ = 0;
};

class SynthN4F1 final : public Workload {
 public:
  explicit SynthN4F1(const Options& opts)
      : digests_("synth-n4f1", opts.stored_digest("synth-n4f1")) {}

  // The encoder build, the one set-up step of synthesis. The public driver
  // takes no prebuilt encoder, so each job builds its own again inside
  // time_to_table_s; set-up times the same build standalone.
  double setup() override {
    const double t0 = now_s();
    (void)synthesis::Encoder(synth_spec());
    return now_s() - t0;
  }

  JobTiming run_job(std::vector<std::string>& failures, Tracer* tracer) override {
    synthesis::SynthesisOutcome out;
    const double t0 = now_s();
    {
      const Scoped span(tracer, "synthesis.portfolio", -1);
      out = synthesis::synthesize_portfolio(synth_spec(), synth_options());
    }
    const double wall = now_s() - t0;
    if (!out.found) {
      failures.push_back("synth-n4f1: no table found");
      return {wall, 0.0};
    }
    conflicts_.push_back(static_cast<double>(out.total_conflicts));
    check_table(out.table, failures);
    return {wall, 0.0};
  }

  std::string result_digest() override {
    const auto out = synthesis::synthesize_portfolio(synth_spec(), synth_options());
    if (!out.found) throw std::runtime_error("synth-n4f1: no table found");
    return util::crc32_hex(counting::table_to_string(out.table));
  }

  std::vector<std::string> notes(double job_s) const override {
    return {"time_to_table_s: " + fmt(job_s) + " s",
            "race conflicts per job: median " + fmt(median(conflicts_)) + ", min " +
                fmt(conflicts_.empty() ? 0.0
                                       : *std::min_element(conflicts_.begin(), conflicts_.end())) +
                ", max " +
                fmt(conflicts_.empty() ? 0.0
                                       : *std::max_element(conflicts_.begin(), conflicts_.end()))};
  }

 private:
  // The table must pass the exact verifier with T <= 6, and be the same
  // table every time (the portfolio's determinism contract).
  void check_table(const counting::TransitionTable& table, std::vector<std::string>& failures) {
    const counting::TableAlgorithm algo(table);
    const synthesis::VerifyResult v = synthesis::verify(algo);
    if (!v.ok || v.worst_case_time > 6) {
      failures.push_back("synth-n4f1: table fails verify (" + v.failure + ", T=" +
                         std::to_string(v.worst_case_time) + ")");
    }
    digests_.check(util::crc32_hex(counting::table_to_string(table)), failures);
  }

  DigestCheck digests_;
  std::vector<double> conflicts_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"sweep-table", "sweep-towers", "serve-table",
                                                  "synth-n4f1"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "sweep-table") return std::make_unique<TableSweep>(opts);
  if (opts.workload == "sweep-towers") return std::make_unique<TowerSweep>(opts);
  if (opts.workload == "serve-table") return std::make_unique<ServeTable>(opts);
  if (opts.workload == "synth-n4f1") return std::make_unique<SynthN4F1>(opts);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace e2e
