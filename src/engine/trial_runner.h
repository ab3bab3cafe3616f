// Parallel Monte-Carlo trial runner with deterministic per-trial RNG
// streams and two-level (trial × cell) work scheduling.
//
// Every trial gets its own seed (base_seed ^ trial index) and its own
// MetricRegistry, so results and metrics are bit-identical no matter how
// many worker threads execute the trials or in what order they finish:
// results land in a vector indexed by trial, and metrics are merged in
// trial order after the fan-out completes.
//
// run_sharded() generalizes this to metro-scale scenarios where one trial
// simulates a grid of cells: each (trial, cell) pair is an independent
// work item with its own seed (base_seed ^ trial ^ (cell << 32) — cell 0
// degenerates to the classic per-trial seed, so single-cell configs are
// bitwise identical to the pre-sharding path) and its own registry,
// and the deterministic merge runs in (trial, cell) lexicographic order.
// Aggregate exports are therefore byte-identical for any JMB_THREADS and
// any shard schedule.
//
// Thread count comes from TrialRunnerOptions::n_threads, or — when left
// at 0 — the JMB_THREADS environment variable, falling back to
// std::thread::hardware_concurrency().
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "dsp/rng.h"
#include "engine/metrics.h"
#include "engine/thread_pool.h"
#include "obs/sink.h"

namespace jmb::engine {

/// Threads to use when the caller does not pin a count: JMB_THREADS if
/// set (>= 1), else std::thread::hardware_concurrency(), else 1.
[[nodiscard]] std::size_t default_thread_count();

/// Handed to each trial body: its index, its deterministic seed, a ready
/// Rng on that seed, and an ObsSink bound to the item's own registry —
/// the one handle for stage metrics and physics probes alike. Sharded
/// runs (run_sharded) additionally carry the cell index within the
/// trial; plain run() leaves cell = 0 and n_cells = 1.
struct TrialContext {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::size_t cell = 0;     ///< shard index within the trial
  std::size_t n_cells = 1;  ///< shards per trial in this run
  Rng rng;
  obs::ObsSink sink;

  /// RAII wall-time sample attributed to `stage` in this trial's registry
  /// (and a flight-recorder span carrying the (trial, cell, frame) flow
  /// id — for cell 0 identical to the classic (trial, frame) id).
  [[nodiscard]] ScopedStageTimer time_stage(std::string_view stage,
                                            std::uint64_t frame = 0) const {
    return ScopedStageTimer(&sink, stage, frame);
  }
};

struct TrialRunnerOptions {
  std::uint64_t base_seed = 1;
  /// 0 = auto (JMB_THREADS env, else hardware concurrency).
  std::size_t n_threads = 0;
};

class TrialRunner {
 public:
  explicit TrialRunner(TrialRunnerOptions opts)
      : opts_(opts),
        n_threads_(opts.n_threads > 0 ? opts.n_threads
                                      : default_thread_count()) {}

  [[nodiscard]] std::size_t n_threads() const { return n_threads_; }
  [[nodiscard]] std::uint64_t base_seed() const { return opts_.base_seed; }

  /// Run `n_trials` invocations of `fn(TrialContext&)` and return their
  /// results in trial order. Deterministic: trial i always sees
  /// seed = base_seed ^ i regardless of thread count. Exceptions thrown
  /// by a trial are rethrown here (first trial index wins).
  template <typename Fn>
  auto run(std::size_t n_trials, Fn&& fn)
      -> std::vector<decltype(fn(std::declval<TrialContext&>()))> {
    return run_sharded(n_trials, 1, std::forward<Fn>(fn));
  }

  /// Two-level fan-out: `n_trials` trials of `n_cells` cell shards each.
  /// Every (trial, cell) pair is one independent work item scheduled over
  /// the pool; item results land in a vector indexed by
  /// trial * n_cells + cell, and per-item registries merge in that flat
  /// order — (trial, cell) lexicographic — so the aggregate registry is
  /// independent of thread count and shard schedule. Seeds follow
  /// base_seed ^ (first_trial + trial) ^ (cell << 32): the cell occupies
  /// high bits so distinct (trial, cell) pairs never collide, and cell 0
  /// reproduces the classic per-trial seed bit-for-bit. `first_trial`
  /// offsets ctx.index so a bench sweeping configurations of different
  /// shard counts can give every grid point a distinct RNG stream across
  /// multiple run_sharded calls.
  template <typename Fn>
  auto run_sharded(std::size_t n_trials, std::size_t n_cells, Fn&& fn,
                   std::size_t first_trial = 0)
      -> std::vector<decltype(fn(std::declval<TrialContext&>()))> {
    using Result = decltype(fn(std::declval<TrialContext&>()));
    const auto t0 = Clock::now();
    const std::size_t n_items = n_trials * n_cells;
    std::vector<Result> results(n_items);
    std::vector<obs::MetricRegistry> per_item(n_items);

    auto one = [&](std::size_t i) {
      const std::size_t trial = first_trial + i / n_cells;
      const std::size_t cell = i % n_cells;
      TrialContext ctx;
      ctx.index = trial;
      ctx.cell = cell;
      ctx.n_cells = n_cells;
      ctx.seed = opts_.base_seed ^ static_cast<std::uint64_t>(trial) ^
                 (static_cast<std::uint64_t>(cell) << 32);
      ctx.rng = Rng(ctx.seed);
      ctx.sink = obs::ObsSink(&per_item[i],
                              static_cast<std::uint32_t>(trial),
                              static_cast<std::uint32_t>(cell));
      results[i] = fn(ctx);
    };

    if (n_threads_ <= 1 || n_items <= 1) {
      for (std::size_t i = 0; i < n_items; ++i) one(i);
    } else {
      ThreadPool pool(std::min(n_threads_, n_items));
      std::exception_ptr first_error;
      std::size_t first_error_index = 0;
      std::mutex err_mu;
      for (std::size_t i = 0; i < n_items; ++i) {
        pool.submit([&, i] {
          try {
            one(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(err_mu);
            if (!first_error || i < first_error_index) {
              first_error = std::current_exception();
              first_error_index = i;
            }
          }
        });
      }
      pool.wait();
      if (first_error) std::rethrow_exception(first_error);
    }

    // Merge in (trial, cell) order so the aggregate is independent of
    // scheduling.
    for (const obs::MetricRegistry& r : per_item) registry_.merge(r);
    trials_run_ += n_trials;
    cells_run_ += n_items;
    wall_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
    return results;
  }

  /// The registry merged across every item run so far, in (trial, cell)
  /// order: stage counters and physics probes alike.
  [[nodiscard]] const obs::MetricRegistry& registry() const {
    return registry_;
  }
  [[nodiscard]] std::size_t trials_run() const { return trials_run_; }
  /// Total (trial, cell) work items run so far; equals trials_run() for
  /// unsharded runs.
  [[nodiscard]] std::size_t cells_run() const { return cells_run_; }

  /// Print the shared per-stage report: thread count, trials, total wall
  /// time, then the stage table. Defaults to stderr so bench stdout
  /// carries only figure data.
  void print_report(std::FILE* out = stderr) const;

 private:
  using Clock = std::chrono::steady_clock;

  TrialRunnerOptions opts_;
  std::size_t n_threads_ = 1;
  obs::MetricRegistry registry_;
  double wall_s_ = 0.0;
  std::size_t trials_run_ = 0;
  std::size_t cells_run_ = 0;
};

}  // namespace jmb::engine
