// Chaos differential test of the sweep service: drives the REAL
// synccount_serve binary (path injected via SYNCCOUNT_SERVE by CMake),
// SIGKILLs workers mid-sweep through the deterministic fault injector,
// SIGKILLs the daemon itself between requests, restarts it on the same
// state directory -- and requires the merged result to be BYTE-identical
// to a single-process run of the same spec. Any lost group, double-counted
// group, or torn state file breaks the comparison.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "counting/algorithm_spec.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"

namespace {

using namespace synccount;

// synccount-lint: allow(nondet) -- ctest hands this test the real binaries'
// paths via the environment (see CMakeLists); no result bytes depend on it.
const char* serve_binary() { return std::getenv("SYNCCOUNT_SERVE"); }

#define REQUIRE_SERVE()                                                      \
  do {                                                                       \
    if (serve_binary() == nullptr) {                                         \
      GTEST_SKIP() << "SYNCCOUNT_SERVE not set (built without the service?)"; \
    }                                                                        \
  } while (false)

struct TempDir {
  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("synccount-chaos-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return (path / name).string(); }
  std::filesystem::path path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Forks + execs `synccount_serve args...`, with SYNCCOUNT_FAULTS set to
// `faults` in the child (cleared when empty). Output is silenced.
pid_t spawn_serve(const std::vector<std::string>& args, const std::string& faults = "") {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (faults.empty()) {
      ::unsetenv("SYNCCOUNT_FAULTS");
    } else {
      ::setenv("SYNCCOUNT_FAULTS", faults.c_str(), 1);
    }
    if (std::freopen("/dev/null", "w", stdout) == nullptr ||
        std::freopen("/dev/null", "w", stderr) == nullptr) {
      ::_exit(126);
    }
    std::vector<char*> argv;
    std::string bin = serve_binary();
    argv.push_back(bin.data());
    std::vector<std::string> copy = args;  // keep storage alive across execv
    for (std::string& a : copy) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

// 128+SIGNAL for a signalled child, the exit status otherwise.
int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int run_serve(const std::vector<std::string>& args, const std::string& faults = "") {
  return wait_exit(spawn_serve(args, faults));
}

void await_socket(const std::string& path) {
  for (int i = 0; i < 400; ++i) {
    if (std::filesystem::exists(path)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "daemon socket never appeared: " << path;
}

// Small grid (6 cell-groups), cheap enough for the ASan job but wide enough
// that three workers and two kills all touch distinct groups.
sim::ExperimentSpec chaos_spec() {
  sim::ExperimentSpec spec;
  counting::AlgorithmSpec algo;
  algo.kind = counting::AlgorithmSpec::Kind::kTable;
  algo.table_name = "3states";
  spec.algorithm = algo;
  spec.adversaries = {"split", "silent", "random"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = 4;
  spec.base_seed = 0xC0FFEE;
  spec.max_rounds = 48;
  spec.margin = 8;
  return spec;
}

TEST(ServeChaos, KilledWorkersAndDaemonStillYieldTheByteIdenticalResult) {
  REQUIRE_SERVE();
  TempDir dir;
  const std::string sock = dir.file("sock");
  const std::string state = dir.file("state");
  const sim::ExperimentSpec spec = chaos_spec();

  // Single-process reference, computed in-process: the service's merged
  // result must match this byte for byte.
  const auto plan = sim::plan_shards(spec, 1, 0);
  std::ostringstream reference;
  write_partial(reference, make_partial(spec, plan, sim::Engine(1).run(spec, plan)));

  {
    std::ofstream out(dir.file("spec.json"), std::ios::binary);
    write_spec_file(out, spec);
  }

  const std::vector<std::string> daemon_args = {
      "serve", "--socket=" + sock, "--state-dir=" + state, "--lease-ms=1500"};
  pid_t daemon = spawn_serve(daemon_args);
  await_socket(sock);
  ASSERT_EQ(run_serve({"submit", "--socket=" + sock, "--job=chaos",
                       "--spec=" + dir.file("spec.json")}),
            0);

  // Worker 1: SIGKILL-equivalent death while computing its second group --
  // its first group is durable, the in-flight one is requeued.
  EXPECT_EQ(run_serve({"worker", "--socket=" + sock, "--id=w1"},
                      "worker.group=kill@2"),
            137);

  // SIGKILL the daemon between requests; restart it on the same state dir.
  // Every lease is forgotten (equivalent to all of them expiring at once),
  // but no durably completed group may be lost.
  ASSERT_EQ(::kill(daemon, SIGKILL), 0);
  EXPECT_EQ(wait_exit(daemon), 128 + SIGKILL);
  daemon = spawn_serve(daemon_args);
  await_socket(sock);

  // Worker 2: dies right before sending its second complete -- the group
  // was computed but never recorded; its lease must expire and requeue it.
  EXPECT_EQ(run_serve({"worker", "--socket=" + sock, "--id=w2"},
                      "worker.complete=kill@2"),
            137);

  // Worker 3: clean; waits out worker 2's orphaned lease and finishes the
  // grid.
  ASSERT_EQ(run_serve({"worker", "--socket=" + sock, "--id=w3"}), 0);

  ASSERT_EQ(run_serve({"results", "--socket=" + sock, "--job=chaos",
                       "--emit=" + dir.file("out.jsonl")}),
            0);
  ASSERT_EQ(run_serve({"shutdown", "--socket=" + sock}), 0);
  EXPECT_EQ(wait_exit(daemon), 0);

  const std::string merged = slurp(dir.file("out.jsonl"));
  EXPECT_EQ(merged, reference.str()) << "service result diverged from the "
                                        "single-process sweep";

  // Belt and braces: the merged partial parses, covers the whole grid
  // exactly once, and folds to the reference total.
  std::istringstream in(merged);
  const sim::ShardPartial partial = sim::read_partial(in, dir.file("out.jsonl"));
  EXPECT_EQ(partial.groups.size(), 6u);
  EXPECT_EQ(partial.plan.group_end, 6u);
}

TEST(ServeChaos, DaemonRestartResumesWithNoLostWorkAndIdempotentSubmit) {
  REQUIRE_SERVE();
  TempDir dir;
  const std::string sock = dir.file("sock");
  const std::string state = dir.file("state");
  const sim::ExperimentSpec spec = chaos_spec();
  {
    std::ofstream out(dir.file("spec.json"), std::ios::binary);
    write_spec_file(out, spec);
  }
  const std::vector<std::string> daemon_args = {
      "serve", "--socket=" + sock, "--state-dir=" + state, "--lease-ms=1500"};

  pid_t daemon = spawn_serve(daemon_args);
  await_socket(sock);
  ASSERT_EQ(run_serve({"submit", "--socket=" + sock, "--job=chaos",
                       "--spec=" + dir.file("spec.json")}),
            0);
  // Two groups done, then the daemon dies mid-service ("serve.tick" fires
  // between requests, with the queue mid-job).
  EXPECT_EQ(run_serve({"worker", "--socket=" + sock, "--id=w1"},
                      "worker.lease=kill@3"),
            137);
  ASSERT_EQ(::kill(daemon, SIGKILL), 0);
  EXPECT_EQ(wait_exit(daemon), 128 + SIGKILL);

  daemon = spawn_serve(daemon_args);
  await_socket(sock);
  // Re-submitting the same job after the restart is a no-op, not an error.
  ASSERT_EQ(run_serve({"submit", "--socket=" + sock, "--job=chaos",
                       "--spec=" + dir.file("spec.json")}),
            0);
  // A different spec under the same name IS an error (exit 1, not a hang).
  sim::ExperimentSpec other = spec;
  other.seeds = 2;
  {
    std::ofstream out(dir.file("other.json"), std::ios::binary);
    write_spec_file(out, other);
  }
  EXPECT_EQ(run_serve({"submit", "--socket=" + sock, "--job=chaos",
                       "--spec=" + dir.file("other.json")}),
            1);

  ASSERT_EQ(run_serve({"worker", "--socket=" + sock, "--id=w2"}), 0);
  ASSERT_EQ(run_serve({"results", "--socket=" + sock, "--job=chaos",
                       "--emit=" + dir.file("out.jsonl")}),
            0);
  ASSERT_EQ(run_serve({"shutdown", "--socket=" + sock}), 0);
  EXPECT_EQ(wait_exit(daemon), 0);

  const auto plan = sim::plan_shards(spec, 1, 0);
  std::ostringstream reference;
  write_partial(reference, make_partial(spec, plan, sim::Engine(1).run(spec, plan)));
  EXPECT_EQ(slurp(dir.file("out.jsonl")), reference.str());
}

TEST(ServeChaos, TornDoneCommitIsDroppedWhenTheDaemonRestarts) {
  REQUIRE_SERVE();
  TempDir dir;
  const std::string sock = dir.file("sock");
  const std::string state = dir.file("state");
  const sim::ExperimentSpec spec = chaos_spec();
  {
    std::ofstream out(dir.file("spec.json"), std::ios::binary);
    write_spec_file(out, spec);
  }
  const std::vector<std::string> daemon_args = {
      "serve", "--socket=" + sock, "--state-dir=" + state, "--lease-ms=1500"};

  // Done-file commit 1 creates the file at submit; commit 2 -- the first
  // complete -- tears mid-line and the daemon dies on the spot.
  pid_t daemon = spawn_serve(daemon_args, "serve.job.done=torn@2");
  await_socket(sock);
  ASSERT_EQ(run_serve({"submit", "--socket=" + sock, "--job=chaos",
                       "--spec=" + dir.file("spec.json")}),
            0);
  const pid_t w1 = spawn_serve({"worker", "--socket=" + sock, "--id=w1"});
  EXPECT_EQ(wait_exit(daemon), 137);
  const std::string torn = slurp(state + "/job-chaos.done.jsonl");
  ASSERT_FALSE(torn.empty());
  EXPECT_NE(torn.back(), '\n');

  // The restart cuts the unacknowledged line off and serves on. w1 either
  // reconnects within its backoff or gives up; w2 finishes whatever is left.
  daemon = spawn_serve(daemon_args);
  await_socket(sock);
  (void)wait_exit(w1);
  ASSERT_EQ(run_serve({"worker", "--socket=" + sock, "--id=w2"}), 0);
  ASSERT_EQ(run_serve({"results", "--socket=" + sock, "--job=chaos",
                       "--emit=" + dir.file("out.jsonl")}),
            0);
  ASSERT_EQ(run_serve({"shutdown", "--socket=" + sock}), 0);
  EXPECT_EQ(wait_exit(daemon), 0);

  const auto plan = sim::plan_shards(spec, 1, 0);
  std::ostringstream reference;
  write_partial(reference, make_partial(spec, plan, sim::Engine(1).run(spec, plan)));
  EXPECT_EQ(slurp(dir.file("out.jsonl")), reference.str());
}

}  // namespace
