#include "sim/engine.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "counting/table_algorithm.hpp"
#include "sim/batch_runner.hpp"
#include "sim/composed_runner.hpp"
#include "sim/sink.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace synccount::sim {

std::uint64_t cell_seed(std::uint64_t base_seed, std::size_t cell_index) noexcept {
  return util::hash_combine(base_seed, static_cast<std::uint64_t>(cell_index));
}

void AggregateResult::fold(const RunResult& r) {
  ++runs;
  rounds.add(static_cast<double>(r.rounds));
  avg_pulls.add(r.avg_pulls_per_round);
  max_pulls = std::max(max_pulls, r.max_pulls_per_round);
  if (r.stabilised) {
    ++stabilised;
    stabilisation.add(static_cast<double>(r.stabilisation_round));
  }
}

void AggregateResult::merge(const AggregateResult& other) {
  runs += other.runs;
  stabilised += other.stabilised;
  stabilisation.merge(other.stabilisation);
  rounds.merge(other.rounds);
  avg_pulls.merge(other.avg_pulls);
  max_pulls = std::max(max_pulls, other.max_pulls);
}

AggregateResult merge_aggregates(std::span<const AggregateResult> partials) {
  AggregateResult total;
  for (const AggregateResult& p : partials) total.merge(p);
  return total;
}

std::size_t group_count(const ExperimentSpec& spec) {
  // An empty placement list still runs one fault-free placement (see run()).
  return spec.adversaries.size() * std::max<std::size_t>(spec.placements.size(), 1);
}

counting::AlgorithmPtr spec_algorithm(const ExperimentSpec& spec) {
  if (spec.algo != nullptr) return spec.algo;
  if (spec.algorithm.has_value()) return counting::build(*spec.algorithm);
  SC_CHECK(!spec.variants.empty(),
           "ExperimentSpec needs one of algo/algorithm/variants");
  return counting::build(spec.variants.front());
}

ShardPlan plan_shards(const ExperimentSpec& spec, int shards, int shard) {
  SC_CHECK(shards >= 1, "need at least one shard");
  SC_CHECK(shard >= 0 && shard < shards, "shard index out of range");
  const std::size_t G = group_count(spec);
  const auto K = static_cast<std::size_t>(shards);
  const auto i = static_cast<std::size_t>(shard);
  const std::size_t base = G / K;
  const std::size_t extra = G % K;  // the first `extra` shards get one more
  ShardPlan plan;
  plan.shards = shards;
  plan.shard = shard;
  plan.group_begin = i * base + std::min(i, extra);
  plan.group_end = plan.group_begin + base + (i < extra ? 1 : 0);
  return plan;
}

std::string AggregateResult::fmt_rounds() const {
  if (stabilised == 0) return "-";
  return util::fmt_double(stabilisation.mean(), 0) + " (max " +
         util::fmt_double(stabilisation.max(), 0) + ")";
}

AggregateResult ExperimentResult::aggregate(std::optional<std::size_t> adversary,
                                            std::optional<std::size_t> placement) const {
  AggregateResult agg(stats);
  for (const auto& c : cells) {
    if (adversary && c.adversary != *adversary) continue;
    if (placement && c.placement != *placement) continue;
    agg.fold(c.result);
  }
  return agg;
}

Engine::Engine(int threads) {
  if (threads != 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

Engine::~Engine() = default;

int Engine::threads() const noexcept { return pool_ ? pool_->size() : 1; }

ExperimentResult Engine::run(const ExperimentSpec& spec) const {
  return run(spec, plan_shards(spec, 1, 0), {});
}

ExperimentResult Engine::run(const ExperimentSpec& spec, const SinkList& sinks) const {
  return run(spec, plan_shards(spec, 1, 0), sinks);
}

ExperimentResult Engine::run(const ExperimentSpec& spec, const ShardPlan& shard,
                             const SinkList& sinks) const {
  const int algo_sources = static_cast<int>(spec.algo != nullptr) +
                           static_cast<int>(spec.algorithm.has_value()) +
                           static_cast<int>(!spec.variants.empty());
  SC_CHECK(algo_sources == 1,
           "ExperimentSpec needs exactly one of algo/algorithm/variants");
  SC_CHECK(!spec.adversaries.empty(), "ExperimentSpec needs at least one adversary");
  SC_CHECK(spec.seeds > 0, "ExperimentSpec needs seeds > 0");
  SC_CHECK(spec.explicit_seeds.empty() ||
               spec.explicit_seeds.size() == static_cast<std::size_t>(spec.seeds),
           "explicit_seeds must be empty or have exactly `seeds` entries");
  SC_CHECK(spec.variants.empty() ||
               spec.variants.size() == static_cast<std::size_t>(spec.seeds),
           "variants must be empty or have exactly `seeds` entries");
  SC_CHECK(shard.group_begin <= shard.group_end && shard.group_end <= group_count(spec),
           "shard plan does not fit the experiment grid");

  static const std::vector<FaultPattern> kFaultFree = {{"", {}}};
  const std::vector<FaultPattern>& placements =
      spec.placements.empty() ? kFaultFree : spec.placements;

  // Resolve the declarative algorithm sources once; cells share the result
  // (library algorithms are immutable after construction). A variant axis
  // builds one algorithm per seed index, shared across groups.
  const counting::AlgorithmPtr shared_algo =
      spec.algo != nullptr ? spec.algo
      : spec.algorithm.has_value() ? counting::build(*spec.algorithm)
                                   : nullptr;
  std::vector<counting::AlgorithmPtr> variant_algos;
  variant_algos.reserve(spec.variants.size());
  for (const counting::AlgorithmSpec& v : spec.variants) {
    variant_algos.push_back(counting::build(v));
  }

  // What the runner must record, unioned over the sinks; recordings are
  // dropped again after delivery unless some sink retains them.
  bool rec_outputs = false, rec_states = false, retain = false;
  for (Sink* sink : sinks) {
    rec_outputs = rec_outputs || sink->wants_outputs();
    rec_states = rec_states || sink->wants_states();
    retain = retain || sink->retain_traces();
  }

  const std::size_t n_adv = spec.adversaries.size();
  const std::size_t n_pl = placements.size();
  const std::size_t n_seeds = static_cast<std::size_t>(spec.seeds);
  // The shard's slice: cells [cell_offset, cell_offset + n_cells) of the
  // global grid, whole (adversary, placement) groups only.
  const std::size_t cell_offset = shard.group_begin * n_seeds;
  const std::size_t n_cells = shard.groups() * n_seeds;

  // Resolve the horizon once if the algorithm is shared (the common case);
  // per-cell algorithms resolve inside the cell.
  const auto horizon = [&spec](const counting::CountingAlgorithm& algo) -> std::uint64_t {
    if (spec.max_rounds != 0) return spec.max_rounds;
    if (const auto bound = algo.stabilisation_bound()) return *bound + spec.extra_rounds;
    return spec.horizon_override != 0 ? spec.horizon_override : 20000;
  };

  ExperimentResult out;
  out.cells.resize(n_cells);
  out.stats = spec.stats;

  const auto seed_at = [&spec, n_seeds](std::size_t idx) {
    return spec.explicit_seeds.empty() ? cell_seed(spec.base_seed, idx)
                                       : spec.explicit_seeds[idx % n_seeds];
  };
  // `idx` is always the global cell index; the shard's outcomes occupy
  // out.cells[idx - cell_offset].
  const auto fill_cell_coords = [&](std::size_t idx) -> CellOutcome& {
    CellOutcome& cell = out.cells[idx - cell_offset];
    cell.cell_index = idx;
    cell.seed_index = static_cast<int>(idx % n_seeds);
    cell.placement = (idx / n_seeds) % n_pl;
    cell.adversary = idx / (n_seeds * n_pl);
    cell.seed = seed_at(idx);
    return cell;
  };

  const auto run_cell = [&](std::size_t idx) {
    CellOutcome& cell = fill_cell_coords(idx);

    RunConfig cfg;
    cfg.algo = variant_algos.empty()
                   ? shared_algo
                   : variant_algos[static_cast<std::size_t>(cell.seed_index)];
    cfg.faulty = placements[cell.placement].faulty;
    cfg.max_rounds = horizon(*cfg.algo);
    cfg.seed = cell.seed;
    cfg.stop_after_stable = spec.stop_after_stable;
    cfg.record_outputs = rec_outputs;
    cfg.record_states = rec_states;
    cfg.initial = spec.initial;

    const std::string& name = spec.adversaries[cell.adversary];
    auto adversary = spec.adversary_factory ? spec.adversary_factory(name)
                                            : make_adversary(name);
    SC_CHECK(adversary != nullptr, "adversary factory returned null for: " + name);
    cell.result = run_execution(cfg, *adversary, spec.margin);
  };

  const std::size_t n_groups = shard.groups();

  // Always-on per-group profiling counters (sim/profile.hpp): backend tag +
  // node-rounds packed in one atomic word, task nanos in a second. Tasks of
  // the same group may run on different threads, hence atomics; readers wait
  // for the pool to join. Value-initialised to zero (= GroupProfile::kIdle).
  const auto prof_packed = std::make_unique<std::atomic<std::uint64_t>[]>(n_groups);
  const auto prof_nanos = std::make_unique<std::atomic<std::uint64_t>[]>(n_groups);
  const auto record_profile = [&](std::size_t local_group, std::uint64_t tag,
                                  std::uint64_t work,
                                  ProfileClock::time_point t0) {
    profile_record(prof_packed[local_group], tag, work);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        profile_now() - t0)
                        .count();
    prof_nanos[local_group].fetch_add(static_cast<std::uint64_t>(ns),
                                      std::memory_order_relaxed);
  };
  // Work unit both backends share: executed rounds x correct nodes.
  const auto node_rounds_of = [](const RunResult& r) {
    return r.rounds * static_cast<std::uint64_t>(r.correct_ids.size());
  };

  // Each group is folded exactly once, in cell order and outside any lock,
  // by the thread whose task finishes it. Delivery is combining: that thread
  // marks the group ready and, unless another thread is already delivering,
  // becomes the one deliverer and walks the ready prefix in group order with
  // the lock released (cells, then the aggregate); otherwise it returns to
  // compute. Sinks therefore need not be thread-safe. A throwing sink keeps
  // the deliverer role taken, so nothing later is delivered; the exception
  // reaches the caller after the pool joins.
  out.groups.resize(n_groups);
  const auto finished = std::make_unique<std::atomic<std::size_t>[]>(n_groups);
  std::mutex delivery_mu;
  std::vector<bool> ready(n_groups, false);
  std::size_t next_delivery = 0;  // local group index
  bool delivering = false;
  const auto group_finished = [&](std::size_t local_group, std::size_t count) {
    if (finished[local_group].fetch_add(count, std::memory_order_acq_rel) + count != n_seeds) {
      return;
    }
    AggregateResult agg(spec.stats);
    for (std::size_t k = local_group * n_seeds; k < (local_group + 1) * n_seeds; ++k) {
      agg.fold(out.cells[k].result);
    }
    out.groups[local_group] = std::move(agg);
    if (sinks.empty()) return;
    std::unique_lock<std::mutex> lock(delivery_mu);
    ready[local_group] = true;
    if (delivering) return;
    delivering = true;
    while (next_delivery < n_groups && ready[next_delivery]) {
      const std::size_t lg = next_delivery++;
      lock.unlock();
      for (std::size_t k = lg * n_seeds; k < (lg + 1) * n_seeds; ++k) {
        CellOutcome& cell = out.cells[k];
        for (Sink* sink : sinks) sink->on_cell(cell);
        if ((rec_outputs || rec_states) && !retain) {
          cell.result.outputs = {};
          cell.result.states = {};
        }
      }
      for (Sink* sink : sinks) sink->on_group(shard.group_begin + lg, out.groups[lg]);
      lock.lock();
    }
    delivering = false;
  };

  // Batch eligibility: a shared batch-supported algorithm (TableAlgorithm or
  // a composed boosted/pulling tower), no per-seed variants, and a batchable
  // adversary (probed per name on a library instance). Eligible (adversary,
  // placement) groups run their seed range through the batched backend in
  // lockstep chunks; every other cell stays on the scalar runner. The
  // composed hierarchy is compiled once here and shared by every chunk task.
  const bool probe_batch = spec.backend == Backend::kAuto && shared_algo != nullptr &&
                           !spec.adversary_factory;
  const bool is_table =
      probe_batch &&
      std::dynamic_pointer_cast<const counting::TableAlgorithm>(shared_algo) != nullptr;
  const auto composed =
      probe_batch && !is_table ? ComposedCompiledTable::compile(shared_algo) : nullptr;
  const bool algo_batchable = is_table || composed != nullptr;
  std::vector<bool> adv_batchable(n_adv, false);
  if (algo_batchable) {
    for (std::size_t a = 0; a < n_adv; ++a) {
      adv_batchable[a] = make_adversary(spec.adversaries[a])->batchable();
    }
  }

  for (Sink* sink : sinks) sink->on_start(spec, shard);

  // Lanes per batch task: table groups fill one 512-lane block
  // (64 * default_batch_words() lanes per table pass); composed blocks are
  // 64 lanes. Chunking at the block size keeps one task == one block.
  const std::size_t chunk =
      is_table ? 64 * static_cast<std::size_t>(default_batch_words()) : 64;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n_cells);
  for (std::size_t g = shard.group_begin; g < shard.group_end; ++g) {
    const std::size_t a = g / n_pl;
    const std::size_t p = g % n_pl;
    const std::size_t group = g * n_seeds;
    const std::size_t local_group = g - shard.group_begin;
    if (algo_batchable && adv_batchable[a]) {
      out.batched_cells += n_seeds;
      for (std::size_t s0 = 0; s0 < n_seeds; s0 += chunk) {
        const std::size_t count = std::min(chunk, n_seeds - s0);
        tasks.push_back([&, a, group, s0, count, p, local_group] {
          const auto t0 = profile_now();
          BatchConfig bc;
          bc.algo = shared_algo;
          bc.composed = composed;
          bc.faulty = placements[p].faulty;
          bc.max_rounds = horizon(*shared_algo);
          bc.margin = spec.margin;
          bc.stop_after_stable = spec.stop_after_stable;
          bc.record_outputs = rec_outputs;
          bc.record_states = rec_states;
          bc.initial = spec.initial;
          const std::string& name = spec.adversaries[a];
          bc.adversary = [&name] { return make_adversary(name); };
          bc.seeds.resize(count);
          for (std::size_t k = 0; k < count; ++k) bc.seeds[k] = seed_at(group + s0 + k);
          auto results = run_batch(bc);
          std::uint64_t work = 0;
          for (std::size_t k = 0; k < count; ++k) {
            work += node_rounds_of(results[k]);
            fill_cell_coords(group + s0 + k).result = std::move(results[k]);
          }
          record_profile(local_group,
                         is_table ? GroupProfile::kBatched : GroupProfile::kComposed,
                         work, t0);
          group_finished(local_group, count);
        });
      }
    } else {
      for (std::size_t s = 0; s < n_seeds; ++s) {
        tasks.push_back([&, local_group, idx = group + s] {
          const auto t0 = profile_now();
          run_cell(idx);
          record_profile(local_group, GroupProfile::kScalar,
                         node_rounds_of(out.cells[idx - cell_offset].result), t0);
          group_finished(local_group, 1);
        });
      }
    }
  }

  const auto t0 = profile_now();
  if (pool_) {
    // Contain task failures (a sink hitting ENOSPC, a bad adversary name):
    // an exception escaping into a pool worker would std::terminate the
    // process, so capture the first one and rethrow it on this thread.
    std::mutex failure_mu;
    std::exception_ptr failure;
    pool_->parallel_for(tasks.size(), [&](std::size_t i) {
      try {
        tasks[i]();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mu);
        if (!failure) failure = std::current_exception();
      }
    });
    if (failure) std::rethrow_exception(failure);
  } else {
    for (auto& task : tasks) task();
  }
  out.wall_seconds =
      std::chrono::duration<double>(profile_now() - t0).count();

  out.profiles.resize(n_groups);
  for (std::size_t lg = 0; lg < n_groups; ++lg) {
    out.profiles[lg].packed = prof_packed[lg].load(std::memory_order_relaxed);
    out.profiles[lg].nanos = prof_nanos[lg].load(std::memory_order_relaxed);
  }

  // The total is the left-merge of the group aggregates in group order,
  // independent of which thread ran what. For exact mode this is
  // bit-identical to the flat cell-order fold (merge replays samples); for
  // sketch mode it IS the defined fold order -- the same left-fold over
  // group aggregates the wire-level sharded paths use (ShardPartial::total,
  // merge_partials), which is what makes a merged sharded sweep byte-compare
  // equal to a single-process run.
  out.total = AggregateResult(spec.stats);
  for (const AggregateResult& agg : out.groups) out.total.merge(agg);
  for (Sink* sink : sinks) sink->on_done(out);
  return out;
}

}  // namespace synccount::sim
