// Experiment E11: microbenchmarks (google-benchmark) for the hot paths:
// bit-packed state access, majority voting, phase-king steps, boosted
// transitions at several sizes, whole simulator rounds, execution backends
// (scalar vs batched vs bit-sliced), the exact verifier and SAT unit
// propagation.
//
// `bench_micro --json [path]` skips google-benchmark and runs the perf-smoke
// comparison of the execution backends on the Table 1 instance, writing
// BENCH_batch.json (ns per node-round, scalar vs batched, per adversary) so
// CI records the perf trajectory.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "boosting/planner.hpp"
#include "sim/engine.hpp"
#include "counting/trivial.hpp"
#include "phaseking/phase_king.hpp"
#include "sat/solver.hpp"
#include "sim/adversaries.hpp"
#include "sim/batch_runner.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "synthesis/known_tables.hpp"
#include "synthesis/verifier.hpp"
#include "util/rng.hpp"

namespace {

using namespace synccount;

void BM_BitVecSetGet(benchmark::State& state) {
  util::BitVec v;
  std::uint64_t x = 0;
  for (auto _ : state) {
    v.set_bits(37, 23, x++);
    benchmark::DoNotOptimize(v.get_bits(37, 23));
  }
}
BENCHMARK(BM_BitVecSetGet);

void BM_PhaseKingStep(benchmark::State& state) {
  const int N = static_cast<int>(state.range(0));
  const phaseking::Params p{N, (N - 1) / 3, 64};
  std::vector<std::uint64_t> received(static_cast<std::size_t>(N));
  util::Rng rng(1);
  for (auto& a : received) a = rng.next_below(64);
  const phaseking::Registers own{received[0], true};
  int index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(phaseking::step(p, index, 0, own, received));
    index = (index + 1) % p.tau();
  }
}
BENCHMARK(BM_PhaseKingStep)->Arg(4)->Arg(36)->Arg(108);

void BM_BoostedTransition(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  const auto algo = boosting::build_plan(boosting::plan_practical(f, 16));
  const auto n = static_cast<std::size_t>(algo->num_nodes());
  util::Rng rng(2);
  std::vector<counting::State> received(n);
  for (auto& s : received) s = counting::arbitrary_state(*algo, rng);
  counting::TransitionContext ctx{&rng};
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo->transition(i, received, ctx));
    i = (i + 1) % algo->num_nodes();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BoostedTransition)->Arg(1)->Arg(3)->Arg(7);

void BM_SimulatorRound(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  const auto algo = boosting::build_plan(boosting::plan_practical(f, 16));
  const int n = algo->num_nodes();
  // Measure rounds/second by running fixed-length chunks.
  for (auto _ : state) {
    sim::RunConfig cfg;
    cfg.algo = algo;
    cfg.faulty = sim::faults_prefix(n, f);
    cfg.max_rounds = 32;
    cfg.seed = 7;
    auto adv = sim::make_adversary("split");
    benchmark::DoNotOptimize(sim::run_execution(cfg, *adv, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SimulatorRound)->Arg(1)->Arg(3)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_VerifierEmbeddedTable(benchmark::State& state) {
  const counting::TableAlgorithm algo(synthesis::known_table_4_1_3states());
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesis::verify(algo));
  }
  state.SetLabel("exact game analysis, n=4 f=1 |X|=3");
}
BENCHMARK(BM_VerifierEmbeddedTable)->Unit(benchmark::kMillisecond);

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    auto var = [&](int p, int h) { return p * holes + h + 1; };
    for (int p = 0; p < holes + 1; ++p) {
      std::vector<sat::ExtLit> clause;
      for (int h = 0; h < holes; ++h) clause.push_back(var(p, h));
      s.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h) {
      for (int p1 = 0; p1 < holes + 1; ++p1) {
        for (int p2 = p1 + 1; p2 < holes + 1; ++p2) {
          s.add_binary(-var(p1, h), -var(p2, h));
        }
      }
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ArbitraryState(benchmark::State& state) {
  const auto algo = boosting::build_plan(boosting::plan_practical(7, 16));
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(counting::arbitrary_state(*algo, rng));
  }
}
BENCHMARK(BM_ArbitraryState);

// --- Execution backends: scalar vs batched (flat and composed) ---------------

struct BackendCase {
  counting::AlgorithmPtr algo;
  std::string adversary;
  std::vector<bool> faulty;
  std::uint64_t rounds;
  std::vector<std::uint64_t> seeds;
};

BackendCase table1_case(const std::string& adversary, std::size_t n_seeds,
                        std::uint64_t rounds) {
  BackendCase c;
  c.algo = std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
  c.adversary = adversary;
  c.faulty = sim::faults_spread(4, 1);
  c.rounds = rounds;
  c.seeds.resize(n_seeds);
  for (std::size_t i = 0; i < n_seeds; ++i) c.seeds[i] = 0xBE9C + i * 31;
  return c;
}

// A 5-state n = 4, f = 1 table (arbitrary but fixed behaviour): the batched
// backend runs it on the SoA kernel, Table 1 on the bit-sliced one.
BackendCase wide_table_case(const std::string& adversary, std::size_t n_seeds,
                            std::uint64_t rounds) {
  counting::TransitionTable t;
  t.n = 4;
  t.f = 1;
  t.num_states = 5;
  t.modulus = 3;
  t.symmetry = counting::Symmetry::kUniform;
  t.g.resize(625);
  for (std::size_t i = 0; i < t.g.size(); ++i) {
    t.g[i] = static_cast<std::uint8_t>((i * 7 + i / 25 + 3) % 5);
  }
  t.h = {0, 1, 2, 1, 0};
  t.label = "5states-bench";
  BackendCase c = table1_case(adversary, n_seeds, rounds);
  c.algo = std::make_shared<counting::TableAlgorithm>(std::move(t));
  return c;
}

// The composed-backend acceptance instance: the practical f = 2 boosted
// counter (two levels over the trivial base, N = 12).
BackendCase boosted_case(const std::string& adversary, std::size_t n_seeds,
                         std::uint64_t rounds) {
  BackendCase c;
  c.algo = boosting::build_plan(boosting::plan_practical(2, 10));
  c.adversary = adversary;
  c.faulty = sim::faults_spread(c.algo->num_nodes(), 2);
  c.rounds = rounds;
  c.seeds.resize(n_seeds);
  for (std::size_t i = 0; i < n_seeds; ++i) c.seeds[i] = 0xB005 + i * 37;
  return c;
}

// The n >= 32 composed instance: the practical f = 7 tower (three boosting
// levels over the trivial base, N = 36). Exercises the profiled composed
// batch path at a size where the scalar runner's per-(receiver, sender)
// forging and per-node tower transitions dominate.
BackendCase large_case(const std::string& adversary, std::size_t n_seeds,
                       std::uint64_t rounds) {
  BackendCase c;
  c.algo = boosting::build_plan(boosting::plan_practical(7, 10));
  c.adversary = adversary;
  c.faulty = sim::faults_spread(c.algo->num_nodes(), 7);
  c.rounds = rounds;
  c.seeds.resize(n_seeds);
  for (std::size_t i = 0; i < n_seeds; ++i) c.seeds[i] = 0x1A26E + i * 41;
  return c;
}

// Node-rounds of work in one pass over every seed of the case (per correct
// node, matching the scalar runner's transition count).
double node_rounds(const BackendCase& c) {
  return static_cast<double>(c.seeds.size()) * static_cast<double>(c.rounds) *
         static_cast<double>(c.algo->num_nodes() - sim::fault_count(c.faulty));
}

void run_scalar_case(const BackendCase& c) {
  for (const auto seed : c.seeds) {
    sim::RunConfig cfg;
    cfg.algo = c.algo;
    cfg.faulty = c.faulty;
    cfg.max_rounds = c.rounds;
    cfg.seed = seed;
    auto adv = sim::make_adversary(c.adversary);
    benchmark::DoNotOptimize(sim::run_execution(cfg, *adv, 1));
  }
}

void run_batch_case(const BackendCase& c) {
  sim::BatchConfig bc;
  bc.algo = c.algo;
  bc.faulty = c.faulty;
  bc.max_rounds = c.rounds;
  bc.margin = 1;
  bc.adversary = [&c] { return sim::make_adversary(c.adversary); };
  bc.seeds = c.seeds;
  benchmark::DoNotOptimize(sim::run_batch(bc));
}

void BM_TableBackendScalar(benchmark::State& state) {
  const auto c = table1_case("silent", 64, 256);
  for (auto _ : state) run_scalar_case(c);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * node_rounds(c)));
  state.SetLabel("items = node-rounds, Table 1 n=4 f=1 |X|=3");
}
BENCHMARK(BM_TableBackendScalar)->Unit(benchmark::kMillisecond);

// Table 1 (3 states) runs on the bit-sliced kernel.
void BM_TableBackendBatched(benchmark::State& state) {
  const auto c = table1_case("silent", 64, 256);
  for (auto _ : state) run_batch_case(c);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * node_rounds(c)));
}
BENCHMARK(BM_TableBackendBatched)->Unit(benchmark::kMillisecond);

// A 5-state table runs on the SoA kernel.
void BM_WideTableBackendBatched(benchmark::State& state) {
  const auto c = wide_table_case("silent", 64, 256);
  for (auto _ : state) run_batch_case(c);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * node_rounds(c)));
  state.SetLabel("items = node-rounds, 5-state n=4 f=1 table");
}
BENCHMARK(BM_WideTableBackendBatched)->Unit(benchmark::kMillisecond);

void BM_ComposedBackendScalar(benchmark::State& state) {
  const auto c = boosted_case("silent", 64, 64);
  for (auto _ : state) run_scalar_case(c);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * node_rounds(c)));
  state.SetLabel("items = node-rounds, practical(f=2, C=10), N=12");
}
BENCHMARK(BM_ComposedBackendScalar)->Unit(benchmark::kMillisecond);

void BM_ComposedBackendBatched(benchmark::State& state) {
  const auto c = boosted_case("silent", 64, 64);
  for (auto _ : state) run_batch_case(c);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * node_rounds(c)));
}
BENCHMARK(BM_ComposedBackendBatched)->Unit(benchmark::kMillisecond);

// --- Aggregation memory probe (--rss-probe, re-exec'd child) -----------------
//
// Peak RSS of folding a synthetic million-cell sweep's RunResults into
// per-group aggregates plus a grand total -- the exact-vs-sketch memory
// story of ROADMAP item 3, measured rather than asserted. Runs in a child
// process re-exec'd from run_json_smoke (NOT forked: a forked child inherits
// the parent's already-touched pages and ru_maxrss high-water mark, which
// would drown the signal).

// The fold a sweep's engine performs, on synthetic results: `groups` group
// aggregates of `cells` runs each, merged into one total in group order.
// Returns getrusage peak RSS in KiB.
long run_rss_probe(util::StatsMode mode, std::size_t cells, std::size_t groups) {
  sim::AggregateResult total(mode);
  util::Rng rng(0xA99);
  for (std::size_t g = 0; g < groups; ++g) {
    sim::AggregateResult agg(mode);
    for (std::size_t i = 0; i < cells; ++i) {
      sim::RunResult r;
      r.rounds = 200 + rng.next_below(100);
      r.stabilised = (rng.next_below(100) != 0);
      r.stabilisation_round = 20 + rng.next_below(500);
      r.max_pulls_per_round = 1 + rng.next_below(4);
      r.avg_pulls_per_round =
          1.0 + static_cast<double>(rng.next_below(1000)) / 1000.0;
      agg.fold(r);
    }
    total.merge(agg);
  }
  // Consume the aggregate the way a report does, so the fold (and, in exact
  // mode, the quantile's sort scratch) is part of what gets measured.
  benchmark::DoNotOptimize(total.stabilisation.quantile(0.5));
  benchmark::DoNotOptimize(total.rounds.summary());
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

// Parses "--rss-probe=<exact|sketch>:<cells>:<groups>", runs the probe and
// prints the peak RSS KiB on stdout. Returns the process exit code.
int run_rss_probe_main(const std::string& arg) {
  std::istringstream in(arg);
  std::string mode_name, cells_s, groups_s;
  if (!std::getline(in, mode_name, ':') || !std::getline(in, cells_s, ':') ||
      !std::getline(in, groups_s) || (mode_name != "exact" && mode_name != "sketch")) {
    std::cerr << "bad --rss-probe argument: " << arg
              << " (want <exact|sketch>:<cells>:<groups>)\n";
    return 2;
  }
  const auto mode =
      mode_name == "sketch" ? util::StatsMode::kSketch : util::StatsMode::kExact;
  const auto cells = static_cast<std::size_t>(std::strtoull(cells_s.c_str(), nullptr, 10));
  const auto groups = static_cast<std::size_t>(std::strtoull(groups_s.c_str(), nullptr, 10));
  if (cells == 0 || groups == 0) {
    std::cerr << "--rss-probe needs cells > 0 and groups > 0\n";
    return 2;
  }
  std::cout << run_rss_probe(mode, cells, groups) << "\n";
  return 0;
}

// Re-execs this binary as an RSS probe child and returns its reported peak
// RSS KiB, or -1 on any failure (missing exe, crash, unparsable output).
long probe_rss_child(const std::string& exe, const std::string& mode, std::size_t cells,
                     std::size_t groups) {
  const std::string cmd = "'" + exe + "' --rss-probe=" + mode + ":" +
                          std::to_string(cells) + ":" + std::to_string(groups);
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[128] = {0};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  const int rc = pclose(pipe);
  if (!got || rc != 0) return -1;
  return std::strtol(buf, nullptr, 10);
}

// --- Perf smoke (--json): records the backend trajectory for CI -------------

double seconds_of(const std::function<void()>& fn, int reps) {
  // One warm-up, then the best of `reps` timed passes (robust to CI noise).
  fn();
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

struct SmokeInstance {
  std::string name;
  std::function<BackendCase(const std::string&)> make_case;
};

int run_json_smoke(const std::string& exe, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  const std::vector<SmokeInstance> instances = {
      {"table1 n=4 f=1 c=2 |X|=3, 1 Byzantine (spread)",
       [](const std::string& adv) { return table1_case(adv, 256, 512); }},
      {"boosted practical(f=2, C=10) N=12, 2 Byzantine (spread)",
       [](const std::string& adv) { return boosted_case(adv, 64, 256); }},
      {"boosted practical(f=7, C=10) N=36, 7 Byzantine (spread)",
       [](const std::string& adv) { return large_case(adv, 64, 64); }},
  };
  out << "{\n  \"instances\": [";
  bool first_instance = true;
  for (const auto& inst : instances) {
    // The recorded workload metadata comes from the case actually measured.
    const auto shape = inst.make_case("silent");
    out << (first_instance ? "" : ",") << "\n    {\"instance\": \"" << inst.name
        << "\",\n     \"seeds\": " << shape.seeds.size() << ", \"rounds\": " << shape.rounds
        << ",\n     \"results\": [";
    std::cout << "=== " << inst.name << " ===\n";
    bool first = true;
    for (const std::string adversary : {"silent", "split"}) {
      const auto c = inst.make_case(adversary);
      const double nr = node_rounds(c);
      const double scalar_s = seconds_of([&c] { run_scalar_case(c); }, 3);
      const double batch_s =
          seconds_of([&c] { run_batch_case(c); }, 3);
      const double scalar_ns = 1e9 * scalar_s / nr;
      const double batch_ns = 1e9 * batch_s / nr;
      out << (first ? "" : ",") << "\n      {\"adversary\": \"" << adversary
          << "\", \"scalar_ns_per_node_round\": " << scalar_ns
          << ", \"batch_ns_per_node_round\": " << batch_ns
          << ", \"speedup\": " << scalar_ns / batch_ns << "}";
      std::cout << adversary << ": scalar " << scalar_ns << " ns/node-round, batched "
                << batch_ns << " ns/node-round, speedup " << scalar_ns / batch_ns
                << "x\n";
      first = false;
    }
    out << "\n     ]}";
    first_instance = false;
  }
  out << "\n  ],\n";

  // Aggregation memory: peak RSS of the per-group fold of a synthetic
  // million-cell sweep (8 groups x 131072 cells), exact vs sketch, each in a
  // fresh child process. check_perf_smoke.py gates on rss_ratio.
  const std::size_t agg_cells = 131072;
  const std::size_t agg_groups = 8;
  // A 1-cell null probe measures the child's load-time floor (binary +
  // runtime pages, ~3.6 MiB); the aggregation layer's cost is the peak above
  // it, otherwise the floor masks the sketch's real footprint in the ratio.
  const long base_kb = probe_rss_child(exe, "exact", 1, 1);
  const long exact_kb = probe_rss_child(exe, "exact", agg_cells, agg_groups);
  const long sketch_kb = probe_rss_child(exe, "sketch", agg_cells, agg_groups);
  if (base_kb <= 0 || exact_kb <= base_kb || sketch_kb <= base_kb) {
    std::cerr << "aggregation RSS probe failed (baseline " << base_kb << " KiB, exact "
              << exact_kb << " KiB, sketch " << sketch_kb << " KiB)\n";
    return 1;
  }
  const double ratio = static_cast<double>(sketch_kb - base_kb) /
                       static_cast<double>(exact_kb - base_kb);
  out << "  \"aggregation\": {\"cells_per_group\": " << agg_cells
      << ", \"groups\": " << agg_groups << ", \"baseline_peak_rss_kb\": " << base_kb
      << ", \"exact_peak_rss_kb\": " << exact_kb
      << ", \"sketch_peak_rss_kb\": " << sketch_kb << ", \"rss_ratio\": " << ratio
      << "}\n}\n";
  std::cout << "aggregation (" << agg_groups << " groups x " << agg_cells
            << " cells): peak RSS baseline " << base_kb << " KiB, exact " << exact_kb
            << " KiB, sketch " << sketch_kb << " KiB, net ratio " << ratio << "\n";
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rss-probe=", 12) == 0) {
      return run_rss_probe_main(argv[i] + 12);
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      return run_json_smoke(argv[0], i + 1 < argc ? argv[i + 1] : "BENCH_batch.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
