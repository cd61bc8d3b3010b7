// The traced run's per-layer probes. Each probe times, from outside, the
// public calls into one layer on the workloads' own inputs (same seeds,
// same specs), and records a span around each call. Every traced run
// reports every per-layer metric, whatever its --workload, so the layers
// of all four workloads are probed here.
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "counting/algorithm_spec.hpp"
#include "counting/table_algorithm.hpp"
#include "counting/table_io.hpp"
#include "serve/queue.hpp"
#include "sim/adversaries.hpp"
#include "sim/batch_runner.hpp"
#include "sim/composed_runner.hpp"
#include "sim/experiment_io.hpp"
#include "synthesis/verifier.hpp"
#include "util/crc32.hpp"
#include "workloads.hpp"

namespace e2e {

namespace serve = synccount::serve;

namespace {

constexpr double kNsPerS = 1e9;
constexpr double kMsPerS = 1e3;
constexpr double kBytesPerMiB = 1024.0 * 1024.0;

std::uint64_t node_rounds(const std::vector<sim::RunResult>& results) {
  std::uint64_t work = 0;
  for (const sim::RunResult& r : results) work += r.rounds * r.correct_ids.size();
  return work;
}

std::uint64_t horizon(const sim::ExperimentSpec& spec, const counting::CountingAlgorithm& algo) {
  return spec.max_rounds != 0 ? spec.max_rounds : *algo.stabilisation_bound() + spec.extra_rounds;
}

// The seeds the engine gives group `group` of `spec` (first `count` of them).
std::vector<std::uint64_t> group_seeds(const sim::ExperimentSpec& spec, std::size_t group,
                                       std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  const std::size_t first = group * static_cast<std::size_t>(spec.seeds);
  for (std::size_t k = 0; k < count; ++k) seeds[k] = sim::cell_seed(spec.base_seed, first + k);
  return seeds;
}

// run_batch over one (adversary, placement) group, single thread, as the
// engine configures it.
sim::BatchConfig batch_config(const sim::ExperimentSpec& spec, const counting::AlgorithmPtr& algo,
                              std::size_t adversary, std::size_t placement,
                              std::vector<std::uint64_t> seeds) {
  sim::BatchConfig bc;
  bc.algo = algo;
  bc.faulty = spec.placements[placement].faulty;
  bc.max_rounds = horizon(spec, *algo);
  bc.margin = spec.margin;
  bc.stop_after_stable = spec.stop_after_stable;
  const std::string name = spec.adversaries[adversary];
  bc.adversary = [name] { return sim::make_adversary(name); };
  bc.seeds = std::move(seeds);
  return bc;
}

// counting.build_ms, sim.compile_ms: every algorithm the sweeps use, built
// (and, for towers, compiled) from its spec.
void probe_build_compile(const Options& opts, Tracer& tracer, std::vector<Metric>& out) {
  std::vector<counting::AlgorithmSpec> specs = {*sweep_table_spec(opts.seed).algorithm};
  for (const TowerCase& c : tower_cases(opts.seed)) {
    if (c.name != "lookahead") specs.push_back(*c.spec.algorithm);
  }
  std::vector<double> build_s, compile_s;
  for (int rep = 0; rep < 7; ++rep) {
    double b = 0.0, c = 0.0;
    for (const counting::AlgorithmSpec& spec : specs) {
      counting::AlgorithmPtr algo;
      {
        const Scoped span(&tracer, "counting.build");
        const double t0 = now_s();
        algo = counting::build(spec);
        b += now_s() - t0;
      }
      if (spec.kind != counting::AlgorithmSpec::Kind::kTower) continue;
      const Scoped span(&tracer, "sim.compile");
      const double t0 = now_s();
      if (sim::ComposedCompiledTable::compile(algo) == nullptr) {
        throw std::runtime_error("tower did not compile: " + algo->name());
      }
      c += now_s() - t0;
    }
    build_s.push_back(b);
    compile_s.push_back(c);
  }
  out.push_back({"counting.build_ms", kMsPerS * median(build_s), "ms"});
  out.push_back({"sim.compile_ms", kMsPerS * median(compile_s), "ms"});
}

// batch_runner.*, adversaries.*: the Table 1 kernel on every sweep-table
// group's own seeds (the spec's cell seeds, so the very cells of a
// sweep-table job), one thread, per adversary (both placements). Sets
// `kernel_s` to the kernel time of all sweep-table cells.
void probe_table_kernel(const Options& opts, Tracer& tracer, double& kernel_s,
                        std::vector<std::string>& failures, std::vector<Metric>& out) {
  const sim::ExperimentSpec spec = sweep_table_spec(opts.seed);
  const counting::AlgorithmPtr algo = counting::build(*spec.algorithm);
  const std::size_t n_pl = spec.placements.size();
  const auto seeds = static_cast<std::size_t>(spec.seeds);
  std::map<std::string, double> ns_per_nr;
  std::uint64_t total_work = 0;
  double total_s = 0.0;
  for (std::size_t a = 0; a < spec.adversaries.size(); ++a) {
    std::vector<double> times;
    std::uint64_t work = 0;
    for (int rep = 0; rep < 2; ++rep) {
      double t = 0.0;
      std::uint64_t w = 0;
      for (std::size_t p = 0; p < n_pl; ++p) {
        sim::BatchConfig bc = batch_config(spec, algo, a, p, group_seeds(spec, a * n_pl + p, seeds));
        const Scoped span(&tracer, "batch_runner.run_batch");
        const double t0 = now_s();
        const auto results = sim::run_batch(bc);
        t += now_s() - t0;
        w += node_rounds(results);
      }
      if (rep > 0 && w != work) {
        failures.push_back("batch_runner.node_rounds differ between repetitions for " +
                           spec.adversaries[a]);
      }
      work = w;
      times.push_back(t);
    }
    const double s = median(times);
    ns_per_nr[spec.adversaries[a]] = kNsPerS * s / static_cast<double>(work);
    total_work += work;
    total_s += s;
  }
  kernel_s = total_s;
  for (const std::string& adv : spec.adversaries) {
    out.push_back({"batch_runner.ns_per_node_round." + adv, ns_per_nr[adv], "ns"});
  }
  out.push_back({"batch_runner.node_rounds", static_cast<double>(total_work), "count"});
  out.push_back({"batch_runner.lanes_per_block",
                 64.0 * static_cast<double>(sim::default_batch_words()), "count"});
  for (const std::string& adv : spec.adversaries) {
    if (adv == "silent") continue;
    // Derived: the same seeds under the adversary minus under silent.
    out.push_back({"adversaries.extra_ns_per_node_round." + adv,
                   ns_per_nr[adv] - ns_per_nr["silent"], "ns"});
  }
}

// composed_runner.*, runner.*: each tower's groups through run_batch on the
// precompiled hierarchy, and the lookahead group through run_execution, on
// the first seeds of each sweep-towers group, one thread.
void probe_towers(const Options& opts, Tracer& tracer, std::vector<std::string>& failures,
                  std::vector<Metric>& out) {
  for (const TowerCase& c : tower_cases(opts.seed)) {
    const counting::AlgorithmPtr algo = counting::build(*c.spec.algorithm);
    if (c.name == "lookahead") {
      const std::vector<std::uint64_t> seeds = group_seeds(c.spec, 0, 512);
      std::vector<double> times;
      std::uint64_t work = 0;
      for (int rep = 0; rep < 3; ++rep) {
        const Scoped span(&tracer, "runner.run_execution");
        std::uint64_t w = 0;
        const double t0 = now_s();
        for (const std::uint64_t seed : seeds) {
          sim::RunConfig cfg;
          cfg.algo = algo;
          cfg.faulty = c.spec.placements[0].faulty;
          cfg.max_rounds = horizon(c.spec, *algo);
          cfg.seed = seed;
          cfg.stop_after_stable = c.spec.stop_after_stable;
          const auto adversary = sim::make_adversary(c.spec.adversaries[0]);
          const sim::RunResult r = sim::run_execution(cfg, *adversary, c.spec.margin);
          w += r.rounds * r.correct_ids.size();
        }
        times.push_back(now_s() - t0);
        if (rep > 0 && w != work) failures.push_back("runner node-rounds differ between repetitions");
        work = w;
      }
      out.push_back({"runner.ns_per_node_round",
                     kNsPerS * median(times) / static_cast<double>(work), "ns"});
      continue;
    }
    const auto compiled = sim::ComposedCompiledTable::compile(algo);
    // A quarter of each group's seeds keeps the single-threaded probe short.
    const std::size_t count = static_cast<std::size_t>(c.spec.seeds) / 4;
    std::vector<double> times;
    std::uint64_t work = 0;
    for (int rep = 0; rep < 3; ++rep) {
      double t = 0.0;
      std::uint64_t w = 0;
      for (std::size_t a = 0; a < c.spec.adversaries.size(); ++a) {
        sim::BatchConfig bc = batch_config(c.spec, algo, a, 0, group_seeds(c.spec, a, count));
        bc.composed = compiled;
        const Scoped span(&tracer, "composed_runner.run_batch");
        const double t0 = now_s();
        const auto results = sim::run_batch(bc);
        t += now_s() - t0;
        w += node_rounds(results);
      }
      if (rep > 0 && w != work) {
        failures.push_back("composed node-rounds differ between repetitions for " + c.name);
      }
      work = w;
      times.push_back(t);
    }
    out.push_back({"composed_runner.ns_per_node_round." + c.name,
                   kNsPerS * median(times) / static_cast<double>(work), "ns"});
  }
}

// engine.*, stats.*, sink.*: one sweep-table job (after a discarded warm-up)
// with its real sinks behind the timing decorator.
void probe_table_engine(const Options& opts, Tracer& tracer, double kernel_s,
                        std::vector<std::string>& failures, std::vector<Metric>& out) {
  const sim::ExperimentSpec spec = sweep_table_spec(opts.seed);
  const sim::Engine engine(compute_threads());
  (void)run_sweep(engine, spec, nullptr, -1);
  tracer.next_run();
  SinkStats sinks;
  const SweepOutput job = run_sweep(engine, spec, &tracer, -1, &sinks);
  const std::string stored = opts.stored_digest("sweep-table");
  if (!stored.empty() && util::crc32_hex(job.bytes) != stored) {
    failures.push_back("traced sweep-table bytes differ from the stored digest");
  }
  const auto cells = static_cast<double>(job.result.cells.size());
  double task_s = 0.0;
  for (const sim::GroupProfile& p : job.result.profiles) {
    task_s += static_cast<double>(p.nanos) / kNsPerS;
  }
  out.push_back({"engine.busy_ratio",
                 task_s / (job.result.wall_seconds * static_cast<double>(engine.threads())),
                 "ratio"});
  // Derived: engine task time (which ends before sink delivery) that the
  // standalone single-thread kernel does not account for -- result
  // materialisation, task plumbing, and contention between pool threads.
  out.push_back({"engine.overhead_ns_per_cell",
                 kNsPerS * (task_s - kernel_s) / cells, "ns"});

  std::vector<double> fold_s;
  const auto seeds = static_cast<std::size_t>(spec.seeds);
  for (int rep = 0; rep < 3; ++rep) {
    const Scoped span(&tracer, "stats.fold");
    const double t0 = now_s();
    std::uint64_t runs = 0;
    for (std::size_t first = 0; first < job.result.cells.size(); first += seeds) {
      sim::AggregateResult agg(spec.stats);
      for (std::size_t k = 0; k < seeds; ++k) agg.fold(job.result.cells[first + k].result);
      runs += agg.runs;
    }
    fold_s.push_back(now_s() - t0);
    if (runs != job.result.cells.size()) failures.push_back("fold lost cells");
  }
  out.push_back({"stats.fold_ns_per_cell", kNsPerS * median(fold_s) / cells, "ns"});

  out.push_back({"sink.busy_s", sinks.busy_s, "s"});
  out.push_back({"sink.commit_ms.p50", kMsPerS * quantile(sinks.commit_s, 0.5), "ms"});
  out.push_back({"sink.commit_ms.p90", kMsPerS * quantile(sinks.commit_s, 0.9), "ms"});
  out.push_back({"sink.bytes_written_mb", sinks.bytes_written / kBytesPerMiB, "MiB"});
  out.push_back({"sink.bytes_copied_mb", sinks.bytes_copied / kBytesPerMiB, "MiB"});
}

// serve.*, queue.*: served serve-table jobs against the same spec
// in-process at equal compute threads, and the durable queue's group
// record call fed that job's group lines.
void probe_serve(const Options& opts, Tracer& tracer, std::vector<std::string>& failures,
                 std::vector<Metric>& out) {
  constexpr int kWorkers = 3;
  const sim::ExperimentSpec spec = serve_table_spec(opts.seed);
  const util::Json spec_json = sim::experiment_spec_to_json(spec);

  const sim::Engine engine(kWorkers);
  (void)run_sweep(engine, spec, nullptr, -1);
  std::vector<double> local_s, local_task_s;
  SweepOutput local;
  for (int rep = 0; rep < 3; ++rep) {
    local = run_sweep(engine, spec, &tracer, -1);
    local_s.push_back(local.wall_s);
    double task = 0.0;
    for (const sim::GroupProfile& p : local.result.profiles) {
      task += static_cast<double>(p.nanos) / kNsPerS;
    }
    local_task_s.push_back(task);
  }

  std::vector<double> served_s;
  const std::size_t requests_before = tracer.durations("serve.request").size();
  {
    Children children;
    ServeHarness daemon(opts.serve_bin, "layers-serve", children);
    for (int rep = 0; rep < 4; ++rep) {
      const ServeHarness::Job job =
          daemon.run("probe-" + std::to_string(rep), spec_json, kWorkers, &tracer, -1);
      if (job.bytes != local.bytes) failures.push_back("served bytes != in-process bytes");
      if (!job.workers_ok) failures.push_back("a serve worker failed");
      if (rep > 0) served_s.push_back(job.wall_s);  // the first job warms the daemon
    }
    daemon.shutdown();
  }
  std::vector<double> request_s = tracer.durations("serve.request");
  request_s.erase(request_s.begin(),
                  request_s.begin() + static_cast<std::ptrdiff_t>(requests_before));
  out.push_back({"serve.request_ms.p50", kMsPerS * quantile(request_s, 0.5), "ms"});
  out.push_back({"serve.request_ms.p90", kMsPerS * quantile(request_s, 0.9), "ms"});
  out.push_back({"serve.overhead_s", median(served_s) - median(local_s), "s"});
  out.push_back({"serve.worker_busy_ratio",
                 median(local_task_s) / (median(served_s) * kWorkers), "ratio"});

  // queue.record_ms: JobQueue::record_done on a scratch state dir.
  std::istringstream in(local.bytes);
  const sim::ShardPartial partial = sim::read_partial(in, "in-process serve-table partial");
  const std::string dir = "layers-queue";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::JobQueue queue(dir);
  const std::size_t n_pl = partial.placement_names.size();
  std::vector<double> record_s;
  for (int j = 0; j < 3; ++j) {
    std::string name = "q";
    name += std::to_string(j);
    (void)queue.submit(name, spec_json);
    for (const sim::ShardPartial::Group& g : partial.groups) {
      const util::Json aggregate = sim::aggregate_to_json(g.aggregate);
      const Scoped span(&tracer, "queue.record_done");
      const double t0 = now_s();
      const bool accepted = queue.record_done(name, g.group, partial.adversaries[g.group / n_pl],
                                              partial.placement_names[g.group % n_pl], aggregate);
      record_s.push_back(now_s() - t0);
      if (!accepted) failures.push_back("queue rejected a group line");
    }
    if (queue.results_text(name) != local.bytes) {
      failures.push_back("queue results != in-process bytes");
    }
  }
  out.push_back({"queue.record_ms.p50", kMsPerS * quantile(record_s, 0.5), "ms"});
  out.push_back({"queue.record_ms.p90", kMsPerS * quantile(record_s, 0.9), "ms"});
}

// synthesis.*, sat.*: the encoder, one portfolio race, the canonical
// per-cube scan up to the winner, and the prefilter and verifier on the
// found table.
void probe_synthesis(Tracer& tracer, std::vector<std::string>& failures,
                     std::vector<Metric>& out) {
  const synthesis::SynthesisSpec spec = synth_spec();
  const synthesis::ParallelOptions options = synth_options();

  std::vector<double> encode_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Scoped span(&tracer, "synthesis.encode");
    const double t0 = now_s();
    const synthesis::Encoder enc(spec);
    encode_s.push_back(now_s() - t0);
  }
  out.push_back({"synthesis.encode_ms", kMsPerS * median(encode_s), "ms"});

  synthesis::ParallelOutcomeInfo info;
  synthesis::SynthesisOutcome race;
  {
    const Scoped span(&tracer, "synthesis.portfolio");
    race = synthesis::synthesize_portfolio(spec, options, &info);
  }
  if (!race.found) throw std::runtime_error("portfolio found no table");

  synthesis::SynthJobSpec job;
  job.spec = spec;
  job.time_bound = options.base.max_time;
  job.cube_depth = options.cube_depth;
  job.portfolio = options.portfolio;
  job.conflict_budget = options.base.conflict_budget;
  const synthesis::Encoder enc(job.spec);
  std::uint64_t conflicts = 0;
  synthesis::CubeResult last;
  double solve_s = 0.0;
  {
    const Scoped span(&tracer, "sat.solve_cube");
    const double t0 = now_s();
    for (std::uint64_t cube = 0; cube <= info.winning_cube; ++cube) {
      last = synthesis::solve_cube(enc, job, cube);
      conflicts += last.conflicts;
    }
    solve_s = now_s() - t0;
  }
  // The portfolio's table carries its verified time; the scan's model does
  // not. With no prefilter refutation the two must otherwise agree.
  last.table.verified_time = race.table.verified_time;
  if (last.verdict != synthesis::CubeVerdict::kSat ||
      (info.prefilter_rejections == 0 &&
       counting::table_to_string(last.table) != counting::table_to_string(race.table))) {
    failures.push_back("canonical scan does not reproduce the portfolio's table");
  }
  out.push_back({"sat.solve_s", solve_s, "s"});
  out.push_back({"sat.conflicts", static_cast<double>(conflicts), "count"});
  out.push_back({"sat.conflicts_per_s", static_cast<double>(conflicts) / solve_s, "1/s"});
  const auto race_conflicts = static_cast<double>(race.total_conflicts);
  out.push_back({"synthesis.race_waste_ratio",
                 (race_conflicts - static_cast<double>(conflicts)) / race_conflicts, "ratio"});

  std::vector<double> prefilter_s, verify_s;
  const counting::TableAlgorithm algo(race.table);
  for (int rep = 0; rep < 3; ++rep) {
    {
      const Scoped span(&tracer, "synthesis.prefilter");
      const double t0 = now_s();
      const bool pass = synthesis::prefilter_candidate(race.table, race.exact_time,
                                                       options.prefilter_seeds);
      prefilter_s.push_back(now_s() - t0);
      if (!pass) failures.push_back("found table fails the prefilter");
    }
    const Scoped span(&tracer, "synthesis.verify");
    const double t0 = now_s();
    const synthesis::VerifyResult v = synthesis::verify(algo);
    verify_s.push_back(now_s() - t0);
    if (!v.ok || v.worst_case_time > 6) failures.push_back("found table fails verify");
  }
  out.push_back({"synthesis.prefilter_ms", kMsPerS * median(prefilter_s), "ms"});
  out.push_back({"synthesis.verify_ms", kMsPerS * median(verify_s), "ms"});
}

}  // namespace

std::vector<Metric> run_layer_suite(const Options& opts, Tally& tally, Tracer& tracer) {
  std::vector<Metric> out;
  double kernel_s = 0.0;  // probe_table_kernel -> probe_table_engine
  // Each probe is one job of the tally: it fails when it throws or one of
  // its checks fails.
  const auto probe = [&](const auto& body) {
    std::vector<std::string> failures;
    try {
      tracer.next_run();
      body(failures);
    } catch (const std::exception& e) {
      failures.push_back(e.what());
    }
    tally.job(failures);
  };
  probe([&](std::vector<std::string>&) { probe_build_compile(opts, tracer, out); });
  probe([&](std::vector<std::string>& f) { probe_table_kernel(opts, tracer, kernel_s, f, out); });
  probe([&](std::vector<std::string>& f) { probe_towers(opts, tracer, f, out); });
  probe([&](std::vector<std::string>& f) { probe_table_engine(opts, tracer, kernel_s, f, out); });
  probe([&](std::vector<std::string>& f) { probe_serve(opts, tracer, f, out); });
  probe([&](std::vector<std::string>& f) { probe_synthesis(tracer, f, out); });
  return out;
}

}  // namespace e2e
