// e2e_bench -- the repository's end-to-end benchmark driver (see run.py,
// which builds it and passes the paths below).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --serve-bin PATH --work-dir DIR --digests FILE
//             --benchmark-json FILE [--spans-dir DIR]
//   e2e_bench --workload NAME --seed N --digest-only  (+ the three paths)
//
// --trace 0 runs the workload's jobs through the public path for S seconds
// (after set-up and a discarded warm-up) and reports the end-to-end metrics;
// --trace 1 is the separate traced run: it reports every per-layer metric
// and the tracing overhead. Every job's output is checked; the last stdout
// line is {"correct","attempted","failed","metrics"}.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;
using synccount::util::Json;

constexpr int kSetupsPerJob = 8;  // set-ups before each timed job; setup_s is their median
constexpr int kWarmups = 1;       // discarded jobs before timing
constexpr int kMinJobs = 3;       // timed jobs per run, even past --seconds

struct Args {
  std::map<std::string, std::string> values;
  bool digest_only = false;
  bool has(const std::string& k) const { return values.count(k) != 0; }
  std::string get(const std::string& k) const {
    const auto it = values.find(k);
    if (it == values.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument: " + a);
    a = a.substr(2);
    const std::size_t eq = a.find('=');
    if (eq != std::string::npos) {
      args.values[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (a == "digest-only") {
      args.digest_only = true;
    } else if (i + 1 < argc) {
      args.values[a] = argv[++i];
    } else {
      throw std::invalid_argument(a.append(" needs a value"));
    }
  }
  return args;
}

Json read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream raw;
  raw << in.rdbuf();
  return Json::parse(raw.str());
}

std::map<std::string, std::map<std::string, std::string>> load_digests(const std::string& path) {
  std::map<std::string, std::map<std::string, std::string>> out;
  const Json doc = read_json(path);
  const Json& all = doc.at("digests");
  for (const std::string& w : workload_names()) {
    const Json* per_seed = all.find(w);
    if (per_seed == nullptr) continue;
    for (const auto& [seed, hex] : per_seed->members()) out[w][seed] = hex.as_string();
  }
  return out;
}

// The metric names and units BENCHMARK.json declares for this kind of run.
std::vector<std::pair<std::string, std::string>> declared_metrics(const std::string& path,
                                                                  bool trace) {
  std::vector<std::pair<std::string, std::string>> out;
  const Json doc = read_json(path);
  const Json& list = doc.at(trace ? "per_layer" : "end_to_end");
  for (std::size_t i = 0; i < list.size(); ++i) {
    out.emplace_back(list.at(i).at("name").as_string(), list.at(i).at("unit").as_string());
  }
  return out;
}

struct JobRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool ok = false;
};

JobRun run_one(Workload& w, Tally& tally, Tracer* tracer) {
  std::vector<std::string> failures;
  JobRun r;
  const double cpu0 = cpu_s();
  try {
    const JobTiming t = w.run_job(failures, tracer);
    r.wall_s = t.wall_s;
    r.cpu_s = cpu_s() - cpu0 + t.extra_cpu_s;
    r.ok = true;
  } catch (const std::exception& e) {
    failures.push_back(e.what());
  }
  tally.job(failures);
  return r;
}

void print_samples(const std::string& what, const std::vector<double>& v, const char* unit) {
  if (v.empty()) return;
  std::cout << what << ": n=" << v.size() << " median=" << median(v) << " " << unit
            << " min=" << quantile(v, 0.0) << " max=" << quantile(v, 1.0) << " samples=";
  for (std::size_t i = 0; i < v.size(); ++i) std::cout << (i == 0 ? "" : ",") << v[i];
  std::cout << "\n";
}

std::vector<Metric> run_e2e(Workload& w, const Options& opts, Tally& tally) {
  (void)w.setup();
  for (int i = 0; i < kWarmups; ++i) (void)run_one(w, tally, nullptr);
  std::vector<double> setup_s, walls, cpus;
  int jobs = 0;
  const double start = now_s();
  while (jobs < kMinJobs || now_s() - start < opts.seconds) {
    // Set-ups interleave with the jobs, so drift of the host within a run
    // weighs on both alike; each job runs on the last set-up before it.
    for (int i = 0; i < kSetupsPerJob; ++i) setup_s.push_back(w.setup());
    const JobRun r = run_one(w, tally, nullptr);
    ++jobs;
    if (r.ok) {
      walls.push_back(r.wall_s);
      cpus.push_back(r.cpu_s);
    }
  }
  print_samples("setup_s", setup_s, "s");
  std::cout << "warm-up set-up and jobs discarded: " << kWarmups << "\n";
  print_samples("job_s", walls, "s");
  print_samples("cpu_s", cpus, "s");
  const double job_s = median(walls);
  for (const std::string& note : w.notes(job_s)) std::cout << note << "\n";
  return {{"job_s", job_s, "s"},
          {"cpu_s", median(cpus), "s"},
          {"peak_rss_mb", w.peak_rss_mb(), "MiB"},
          {"setup_s", median(setup_s), "s"}};
}

std::vector<Metric> run_traced(Workload& w, const Options& opts, Tally& tally, Tracer& tracer) {
  // Tracing overhead: the workload's own jobs, alternating untraced and
  // traced, after set-up and a discarded warm-up.
  (void)w.setup();
  for (int i = 0; i < kWarmups; ++i) (void)run_one(w, tally, nullptr);
  std::vector<double> plain, traced;
  const double start = now_s();
  while (traced.size() < 2 || now_s() - start < opts.seconds) {
    const JobRun p = run_one(w, tally, nullptr);
    tracer.next_run();
    const JobRun t = run_one(w, tally, &tracer);
    if (p.ok) plain.push_back(p.wall_s);
    if (t.ok) traced.push_back(t.wall_s);
    if (!p.ok && !t.ok) break;
  }
  print_samples("untraced job_s", plain, "s");
  print_samples("traced job_s", traced, "s");
  std::vector<Metric> metrics = run_layer_suite(opts, tally, tracer);
  metrics.push_back({"trace.overhead_s", median(traced) - median(plain), "s"});
  std::cout << "layer self time (s, summed over spans):\n";
  for (const auto& [name, s] : tracer.self_seconds()) {
    std::cout << "  " << name << " " << s << "\n";
  }
  return metrics;
}

int run(const Args& args) {
  Options opts;
  opts.workload = args.get("workload");
  opts.seed = std::stoull(args.get("seed"));
  opts.seconds = args.has("seconds") ? std::stod(args.get("seconds")) : 10.0;
  opts.trace = args.has("trace") && args.get("trace") == "1";
  opts.serve_bin = std::filesystem::absolute(args.get("serve-bin")).string();
  opts.digests = load_digests(args.get("digests"));
  const auto declared = args.digest_only
                            ? std::vector<std::pair<std::string, std::string>>{}
                            : declared_metrics(args.get("benchmark-json"), opts.trace);
  std::string spans_path;
  if (args.has("spans-dir")) {
    std::filesystem::create_directories(args.get("spans-dir"));
    spans_path = std::filesystem::absolute(args.get("spans-dir") + "/" + opts.workload + "-seed" +
                                           std::to_string(opts.seed) + ".spans.jsonl")
                     .string();
  }
  // Everything a run writes lives in its work directory; relative sink paths
  // keep result bytes independent of where the checkout is.
  std::filesystem::create_directories(args.get("work-dir"));
  std::filesystem::current_path(args.get("work-dir"));

  const std::unique_ptr<Workload> w = make_workload(opts);
  if (args.digest_only) {
    std::cout << w->result_digest() << "\n";
    return 0;
  }
  std::cout << "host: " << host_facts() << "\n";
  std::cout << "workload: " << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << (opts.trace ? 1 : 0)
            << " threads=" << compute_threads() << " reference digest "
            << (opts.stored_digest(opts.workload).empty() ? "absent (unseen seed)" : "present")
            << "\n";

  Tally tally;
  Tracer tracer;
  std::vector<Metric> metrics =
      opts.trace ? run_traced(*w, opts, tally, tracer) : run_e2e(*w, opts, tally);
  if (!spans_path.empty() && opts.trace) tracer.write_jsonl(spans_path);

  // The reported set is exactly what BENCHMARK.json declares.
  bool complete = true;
  Json out_metrics = Json::object();
  const auto emit = [&](const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      tally.failures.push_back("metric " + name + " is not finite");
      complete = false;
      value = 0.0;
    }
    std::cout << "metric " << name << " = " << value << " " << unit << "\n";
    Json m = Json::object();
    m.set("value", Json::number(value));
    m.set("unit", Json::string(unit));
    out_metrics.set(name, std::move(m));
  };
  for (const auto& [name, unit] : declared) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics.end() || it->unit != unit) {
      tally.failures.push_back("metric " + name + " was not measured in " + unit);
      complete = false;
      emit(name, 0.0, unit);
    } else {
      emit(name, it->value, unit);
    }
  }
  for (const std::string& f : tally.failures) std::cout << "FAILED: " << f << "\n";
  std::cout << "fail_ratio: " << tally.failed << "/" << tally.attempted
            << " (failed/attempted jobs)\n";

  Json result = Json::object();
  result.set("correct", Json::boolean(tally.failed == 0 && complete && tally.attempted > 0));
  result.set("attempted", Json::number(tally.attempted));
  result.set("failed", Json::number(tally.failed));
  result.set("metrics", std::move(out_metrics));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
