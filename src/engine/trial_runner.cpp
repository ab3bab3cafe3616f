#include "engine/trial_runner.h"

#include <thread>

#include "engine/env.h"

namespace jmb::engine {

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::uint64_t fallback = hw > 0 ? hw : 1;
  static bool warned = false;
  return static_cast<std::size_t>(
      env_u64("JMB_THREADS", fallback, /*min_one=*/true, warned));
}

void TrialRunner::print_report(std::FILE* out) const {
  if (cells_run_ != trials_run_) {
    std::fprintf(out,
                 "\n[trial-runner] %zu trial(s), %zu cell shard(s), "
                 "%zu thread(s), %.3f s wall\n",
                 trials_run_, cells_run_, n_threads_, wall_s_);
  } else {
    std::fprintf(out,
                 "\n[trial-runner] %zu trial(s), %zu thread(s), %.3f s wall\n",
                 trials_run_, n_threads_, wall_s_);
  }
  print_stage_metrics(registry_, out);
}

}  // namespace jmb::engine
