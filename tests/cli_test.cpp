// End-to-end tests of the synccount_cli front end, driving the real binary
// (path injected by CMake via the SYNCCOUNT_CLI environment variable; the
// tests skip when it is absent, e.g. when only the test targets were built).
// Covered: strict flag rejection (exit status 2), the declarative
// plan-emit / sweep --spec flow reproducing an in-process run bit-
// identically, the checkpoint --resume cycle, and `run` against a direct
// sim::run_execution.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "boosting/planner.hpp"
#include "counting/algorithm_spec.hpp"
#include "sat/dimacs.hpp"
#include "sim/adversaries.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "sim/trace_format.hpp"
#include "synthesis/encoder.hpp"
#include "util/json.hpp"

namespace {

using namespace synccount;

// synccount-lint: allow(nondet) -- ctest hands this test the real binary's
// path via the environment (see CMakeLists); no result bytes depend on it.
const char* cli_binary() { return std::getenv("SYNCCOUNT_CLI"); }

#define REQUIRE_CLI()                                                       \
  do {                                                                      \
    if (cli_binary() == nullptr) {                                          \
      GTEST_SKIP() << "SYNCCOUNT_CLI not set (built without the CLI?)";     \
    }                                                                       \
  } while (false)

// Runs `<cli> args...` with stdout silenced and stderr sent to `err_path`,
// after `env` (shell assignments, e.g. SYNCCOUNT_FAULTS=...); returns the
// exit status (or -1 when the process did not exit normally).
int run_cli(const std::string& args, const std::string& err_path = "/dev/null",
            const std::string& env = "") {
  const std::string cmd = env + (env.empty() ? "" : " ") + std::string(cli_binary()) + " " +
                          args + " >/dev/null 2>" + err_path;
  const int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

struct TempDir {
  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("synccount-cli-test-" + std::to_string(::getpid()) + "-" +
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

// The grid used throughout: the 3-state table algorithm (fast, spans the
// bit-sliced and scalar backends via the adversary mix).
sim::ExperimentSpec reference_spec(const std::string& checkpoint_path = "") {
  sim::ExperimentSpec spec;
  counting::AlgorithmSpec algo;
  algo.kind = counting::AlgorithmSpec::Kind::kTable;
  algo.table_name = "3states";
  spec.algorithm = algo;
  spec.adversaries = {"split", "silent", "random"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = 8;
  spec.base_seed = 0x9000;
  spec.margin = 100;
  spec.stop_after_stable = 120;
  if (!checkpoint_path.empty()) {
    spec.sinks.push_back({sim::SinkConfig::Kind::kCheckpoint, checkpoint_path, "jsonl",
                          false});
  }
  return spec;
}

// --- Strict flag handling ----------------------------------------------------

TEST(Cli, UnknownFlagsAndSubcommandsExitWithStatus2) {
  REQUIRE_CLI();
  EXPECT_EQ(run_cli("frobnicate"), 2);                      // unknown subcommand
  EXPECT_EQ(run_cli("sweep --definitely-not-a-flag=1"), 2); // unknown flag
  EXPECT_EQ(run_cli("plan --schedulle=practical"), 2);      // typo'd flag
  EXPECT_EQ(run_cli("verify stray-positional"), 2);         // stray positional
  EXPECT_EQ(run_cli(""), 2);                                // no command at all
  EXPECT_EQ(run_cli("sweep --spec=x.json --seeds=3"), 2);   // grid flag vs --spec
  EXPECT_EQ(run_cli("sweep --resume --table=3states"), 2);  // --resume without --spec
  EXPECT_EQ(run_cli("synthesize --n=4 --f=1"), 2);         // retired: use `synth`
}

TEST(Cli, RetiredCsvTracesAndForkingShardsExitWithStatus2) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string err = dir.file("err.txt");
  EXPECT_EQ(run_cli("sweep --table=3states --seeds=2 --trace=" + dir.file("t.csv") +
                    " --trace-format=csv"),
            2);
  EXPECT_EQ(run_cli("plan --table=3states --trace=" + dir.file("t.csv") +
                    " --trace-format=csv --emit=" + dir.file("spec.json")),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir.file("t.csv")));

  // --shards=K without --shard no longer forks local workers; the error
  // points at the ways that remain.
  EXPECT_EQ(run_cli("sweep --table=3states --seeds=2 --shards=3", err), 2);
  const std::string message = slurp(err);
  EXPECT_NE(message.find("--shard=i"), std::string::npos) << message;
  EXPECT_NE(message.find("merge"), std::string::npos) << message;
  EXPECT_NE(message.find("synccount_serve"), std::string::npos) << message;
  {
    std::ofstream out(dir.file("spec.json"));
    write_spec_file(out, reference_spec());
  }
  EXPECT_EQ(run_cli("sweep --spec=" + dir.file("spec.json") + " --shards=3 --emit=" +
                    dir.file("out.jsonl")),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir.file("out.jsonl")));
}

// --- run ---------------------------------------------------------------------

TEST(Cli, RunWritesOneJsonlRowMatchingADirectExecution) {
  REQUIRE_CLI();
  TempDir dir;
  struct Case {
    std::string args;
    int f;
    std::string adversary;
    bool blocks;  // `run`'s default placement, applicable from f = 2 on
  };
  for (const Case& c : {Case{"--f=1", 1, "split", false},
                        Case{"--f=2 --adversary=silent", 2, "silent", true}}) {
    SCOPED_TRACE(c.args);
    // The execution `run` always described: practical plan (modulus 16),
    // seed 1, horizon T bound + 300, stabilisation margin 100.
    const auto algo = boosting::build_plan(boosting::plan_practical(c.f, 16));
    const int n = algo->num_nodes();
    sim::RunConfig cfg;
    cfg.algo = algo;
    cfg.faulty = c.blocks ? sim::faults_block_concentrated(3, n / 3, (c.f - 1) / 2, c.f)
                          : sim::faults_spread(n, c.f);
    cfg.max_rounds = algo->stabilisation_bound().value() + 300;
    cfg.seed = 1;
    cfg.record_outputs = true;
    const auto adversary = sim::make_adversary(c.adversary);
    const sim::RunResult ref = sim::run_execution(cfg, *adversary, 100);

    const std::string trace = dir.file("run-f" + std::to_string(c.f) + ".jsonl");
    ASSERT_EQ(run_cli("run " + c.args + " --trace=" + trace), ref.stabilised ? 0 : 1);
    const std::string text = slurp(trace);
    ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
    const util::Json row = util::Json::parse(text);
    EXPECT_EQ(row.at("adversary").as_string(), c.adversary);
    EXPECT_EQ(row.at("placement").as_string(), c.blocks ? "blocks" : "spread");
    EXPECT_EQ(row.at("seed").as_u64(), 1u);
    EXPECT_EQ(row.at("rounds").as_u64(), ref.rounds);
    EXPECT_EQ(row.at("stabilisation_round").as_u64(), ref.stabilisation_round);

    std::vector<counting::NodeId> ids;
    const util::Json& ids_json = row.at("correct_ids");
    for (std::size_t i = 0; i < ids_json.size(); ++i) {
      ids.push_back(static_cast<counting::NodeId>(ids_json.at(i).as_i64()));
    }
    EXPECT_EQ(ids, ref.correct_ids);
    std::vector<std::vector<std::uint64_t>> outputs;
    const util::Json& outputs_json = row.at("outputs");
    for (std::size_t r = 0; r < outputs_json.size(); ++r) {
      outputs.emplace_back();
      for (std::size_t i = 0; i < outputs_json.at(r).size(); ++i) {
        outputs.back().push_back(outputs_json.at(r).at(i).as_u64());
      }
    }
    EXPECT_EQ(outputs, ref.outputs);
  }
}

// --- Declarative spec flow ---------------------------------------------------

TEST(Cli, SweepSpecReproducesInProcessRunBitIdentically) {
  REQUIRE_CLI();
  TempDir dir;
  const auto spec = reference_spec();

  // The hand-rolled in-process run.
  const auto plan = sim::plan_shards(spec, 1, 0);
  const auto result = sim::Engine(2).run(spec, plan);
  std::ostringstream reference;
  write_partial(reference, make_partial(spec, plan, result));

  // The same experiment as a spec file through the CLI.
  {
    std::ofstream out(dir.file("spec.json"));
    write_spec_file(out, spec);
  }
  ASSERT_EQ(run_cli("sweep --spec=" + dir.file("spec.json") + " --threads=2 --emit=" +
                    dir.file("out.jsonl")),
            0);
  EXPECT_EQ(slurp(dir.file("out.jsonl")), reference.str());
}

TEST(Cli, PlanEmitsARunnableSpecWithoutRunning) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string spec_path = dir.file("spec.json");
  ASSERT_EQ(run_cli("plan --table=3states --seeds=8 --adversaries=split,silent,random "
                    "--placements=spread,none --checkpoint=" +
                    dir.file("ck.jsonl") + " --emit=" + spec_path + " --shards=3"),
            0);
  // plan ran nothing: no checkpoint yet.
  EXPECT_FALSE(std::filesystem::exists(dir.file("ck.jsonl")));

  // The emitted spec parses and matches the reference grid exactly.
  std::ifstream in(spec_path);
  const auto spec = sim::read_spec_file(in, spec_path);
  const auto expected = reference_spec(dir.file("ck.jsonl"));
  EXPECT_EQ(sim::experiment_spec_to_json(spec).dump(),
            sim::experiment_spec_to_json(expected).dump());

  // And it runs: sweep --spec produces the checkpoint == emitted partial.
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --threads=2 --emit=" +
                    dir.file("full.jsonl")),
            0);
  EXPECT_EQ(slurp(dir.file("ck.jsonl")), slurp(dir.file("full.jsonl")));
}

TEST(Cli, ResumeCompletesAKilledRunByteIdentically) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string spec_path = dir.file("spec.json");
  const std::string ck = dir.file("ck.jsonl");
  {
    std::ofstream out(spec_path);
    write_spec_file(out, reference_spec(ck));
  }

  // Uninterrupted reference run.
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --threads=2 --emit=" +
                    dir.file("full.jsonl")),
            0);
  const std::string reference = slurp(ck);
  EXPECT_EQ(reference, slurp(dir.file("full.jsonl")));

  // "Kill" the worker after two groups -- plus a torn partial write.
  sim::truncate_to_lines(ck, 3);
  {
    std::ofstream out(ck, std::ios::binary | std::ios::app);
    out << "{\"group\":2,\"adversary\":\"sil";
  }
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --resume --threads=2 --emit=" +
                    dir.file("resumed.jsonl")),
            0);
  EXPECT_EQ(slurp(ck), reference);
  EXPECT_EQ(slurp(dir.file("resumed.jsonl")), reference);

  // Resuming a complete run is a no-op that still emits the full partial.
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --resume --threads=2 --emit=" +
                    dir.file("again.jsonl")),
            0);
  EXPECT_EQ(slurp(dir.file("again.jsonl")), reference);
  EXPECT_EQ(slurp(ck), reference);
}

TEST(Cli, ResumeWorksFromAHeaderOnlyCheckpointWithBinTrace) {
  // The worst kill window: the worker died after committing the checkpoint
  // header but before finishing any group. The bin trace then holds only
  // its (committed-at-start) header block, and resume must re-run everything
  // and still converge to the uninterrupted bytes.
  REQUIRE_CLI();
  TempDir dir;
  const std::string spec_path = dir.file("spec.json");
  const std::string ck = dir.file("ck.jsonl");
  const std::string tr = dir.file("tr.bin");
  {
    auto spec = reference_spec(ck);
    spec.sinks.push_back({sim::SinkConfig::Kind::kTrace, tr, "bin", false});
    std::ofstream out(spec_path);
    write_spec_file(out, spec);
  }
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --threads=2"), 0);
  const std::string ck_reference = slurp(ck);
  const std::string tr_reference = slurp(tr);

  sim::truncate_to_lines(ck, 1);   // header only: zero groups finished
  sim::truncate_to_blocks(tr, 1);  // bin header block only
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --resume --threads=2"), 0);
  EXPECT_EQ(slurp(ck), ck_reference);
  EXPECT_EQ(slurp(tr), tr_reference);

  // A trace ahead of its checkpoint (killed between the two commits of a
  // group boundary): resume cuts the trace back to the checkpointed groups.
  sim::truncate_to_lines(ck, 3);  // header + 2 groups; the trace keeps all 6
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --resume --threads=2"), 0);
  EXPECT_EQ(slurp(ck), ck_reference);
  EXPECT_EQ(slurp(tr), tr_reference);
}

// Every crash window of an in-place commit: a worker killed right after,
// or torn in the middle of, the k-th commit of a trace (jsonl or bin) or of
// the checkpoint. Commit 1 is each file's start (header or creation), commit
// k > 1 holds group k-2. Resuming must converge to the uninterrupted bytes
// of the checkpoint, the trace and --emit.
TEST(Cli, ResumeAfterATornOrKilledCommitIsByteIdentical) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string ck = dir.file("ck.jsonl");
  for (const std::string format : {"jsonl", "bin"}) {
    const std::string tr = dir.file("tr." + format);
    const std::string spec_path = dir.file("spec-" + format + ".json");
    {
      auto spec = reference_spec(ck);
      spec.sinks.push_back({sim::SinkConfig::Kind::kTrace, tr, format, false});
      std::ofstream out(spec_path);
      write_spec_file(out, spec);
    }
    const std::string sweep = "sweep --spec=" + spec_path + " --threads=2";
    ASSERT_EQ(run_cli(sweep + " --emit=" + dir.file("full.jsonl")), 0);
    const std::string ck_reference = slurp(ck);
    const std::string tr_reference = slurp(tr);
    const std::string emit_reference = slurp(dir.file("full.jsonl"));

    for (const std::string site : {"sink.trace", "sink.checkpoint"}) {
      for (const std::string op : {"torn", "kill"}) {
        for (const int k : {1, 2, 4, 7}) {
          const std::string fault = site + "=" + op + "@" + std::to_string(k);
          SCOPED_TRACE(format + " trace, " + fault);
          std::filesystem::remove(ck);
          std::filesystem::remove(tr);
          ASSERT_EQ(run_cli(sweep, "/dev/null", "SYNCCOUNT_FAULTS=" + fault), 137);
          const std::string& torn_file = site == "sink.checkpoint" ? ck : tr;
          if (op == "torn" && k > 1 && torn_file.ends_with(".jsonl")) {
            EXPECT_NE(slurp(torn_file).back(), '\n') << "no torn line landed";
          }
          ASSERT_EQ(run_cli(sweep + " --resume --emit=" + dir.file("resumed.jsonl")), 0);
          EXPECT_EQ(slurp(ck), ck_reference);
          EXPECT_EQ(slurp(tr), tr_reference);
          EXPECT_EQ(slurp(dir.file("resumed.jsonl")), emit_reference);
        }
      }
    }
  }
}

TEST(Cli, ShardedSpecWorkersMergeBitIdentically) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string spec_path = dir.file("spec.json");
  {
    std::ofstream out(spec_path);
    write_spec_file(out, reference_spec());
  }
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --threads=2 --emit=" +
                    dir.file("full.jsonl")),
            0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --shards=3 --shard=" +
                      std::to_string(i) + " --threads=1 --emit=" +
                      dir.file("w" + std::to_string(i) + ".jsonl")),
              0);
  }
  ASSERT_EQ(run_cli("merge " + dir.file("w0.jsonl") + " " + dir.file("w1.jsonl") + " " +
                    dir.file("w2.jsonl") + " --emit=" + dir.file("merged.jsonl")),
            0);
  EXPECT_EQ(slurp(dir.file("merged.jsonl")), slurp(dir.file("full.jsonl")));
}

TEST(Cli, SynthEmitCnfRoundTripsThroughDimacs) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string cnf_path = dir.file("synth.cnf");
  // R = 2 is UNSAT for the 4/1/3-state cyclic spec (the certified optimum
  // is 6), and small enough to solve in-process here.
  ASSERT_EQ(run_cli("synth --n=4 --f=1 --states=3 --symmetry=cyclic "
                    "--max-time=2 --emit-cnf=" + cnf_path),
            0);

  synthesis::SynthesisSpec spec;
  spec.n = 4;
  spec.f = 1;
  spec.num_states = 3;
  spec.modulus = 2;
  spec.symmetry = counting::Symmetry::kCyclic;
  spec.max_time = 2;
  const synthesis::Encoder enc(spec);

  std::ifstream in(cnf_path);
  ASSERT_TRUE(in.good()) << cnf_path;
  const sat::Cnf parsed = sat::parse_dimacs(in);
  EXPECT_EQ(parsed.num_vars, enc.cnf().num_vars);
  EXPECT_EQ(parsed.clauses.size(), enc.cnf().clauses.size());

  sat::Solver emitted, direct;
  parsed.load_into(emitted);
  enc.cnf().load_into(direct);
  EXPECT_EQ(emitted.solve(), direct.solve());
  EXPECT_EQ(emitted.solve(), sat::Result::kUnsat);
}

}  // namespace
