// Benchmark harness: runs one workload as a closed loop on one thread and
// prints one JSON line with the run's raw measurements.
//
//   perfbench --workload NAME --seed N --seconds S [--no-pin]
//   perfbench --workload NAME --seed N --setup-only
//
// Order of a run: one cycle on the pin seed (kPinSeed) yields the physics
// digest compared against the pinned one; then the measured loop repeats
// the seed's cycle until S seconds have passed (always whole cycles, at
// least one). setup_s runs from process start to the start of the first
// operation: SIMD dispatch, flight-clock calibration, the workloads' inputs
// and the first case's topology, system and workspaces. --setup-only stops
// there. perfbench/run.py turns the output into the benchmark's metrics.
#include <sys/resource.h>

#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>

#include "build_info.h"
#include "loop.h"
#include "obs/flight/clock.h"
#include "simd/backend.h"
#include "simd/kernels.h"
#include "trace.h"
#include "workloads.h"
#ifdef PERFBENCH_TRACED
#include "obs/alloc_count.h"
#endif

namespace {

using perfbench::Count;
using perfbench::Layer;

/// The seed of the verification cycle; perfbench/workloads.json pins the
/// digest each workload produces on it.
constexpr std::uint64_t kPinSeed = 1;

constexpr const char* kLayerNames[] = {
    "untracked_s",
    "net.mac.self_s",
    "bench.link_state_s",
    "core.link_model.channel_s",
    "core.link_model.sinr_s",
    "core.precoder.build_s",
    "traffic.flow.drain_s",
    "traffic.policy.select_s",
    "traffic.policy.feedback_s",
    "fault.plan_s",
    "metro.churn.build_s",
    "metro.churn.activity_s",
    "engine.system.build_s",
    "phy.tx.encode_s",
    "engine.pipeline.measure_s",
    "engine.pipeline.precode_s",
    "engine.pipeline.synthesis_s",
    "engine.pipeline.propagate_s",
    "engine.pipeline.decode_s",
    "rate.replay_s",
};

constexpr const char* kCountNames[] = {
    "mac_calls",        "link_queries",     "tx_attempts",
    "delivered",        "measurement_epochs", "mac_allocs",
    "sinr_calls",       "builds",           "masked_builds",
    "masked_pool_ticks", "packets",         "selects",
    "max_queue_depth",  "aggregated_mpdus", "fault_events",
    "quarantines",      "lead_elections",   "activity_calls",
    "frames",           "client_frames_ok", "client_frames",
    "frame_allocs",
};
static_assert(std::size(kLayerNames) == perfbench::kNumLayers);
static_assert(std::size(kCountNames) == perfbench::kNumCounts);

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N (--seconds S [--no-pin] "
               "| --setup-only)\n",
               prog);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return *end == '\0' && errno == 0;
}

double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double since_s(std::chrono::steady_clock::time_point t0) {
  return seconds_between(t0, std::chrono::steady_clock::now());
}

void print_hex(const char* key, std::uint64_t v) {
  std::printf("\"%s\":\"%016" PRIx64 "\"", key, v);
}

/// Peak resident set of this process image in MB: VmHWM, which exec
/// resets (ru_maxrss can carry over the RSS of the process that spawned
/// us), with getrusage as the fallback.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    if (kb >= 0.0) return kb / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Escape a message for a JSON string (errors are plain ASCII text).
std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = std::chrono::steady_clock::now();
  std::string_view workload_name;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  bool have_seed = false, setup_only = false, pin = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--workload" && next) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && next) {
      if (!parse_u64(argv[++i], seed)) return usage(argv[0]);
      have_seed = true;
    } else if (arg == "--seconds" && next) {
      char* end = nullptr;
      seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(seconds >= 0.0)) return usage(argv[0]);
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--no-pin") {
      pin = false;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed || (seconds < 0.0) == !setup_only || (setup_only && !pin)) {
    return usage(argv[0]);
  }

  // --- set-up: everything the process pays once before its first op ---
  const char* backend = jmb::simd::backend_name(jmb::simd::active_backend());
  (void)jmb::simd::active_kernels();
  (void)jmb::obs::flight::clock_calibration();
  auto workload = perfbench::make_workload(workload_name, seed);
  if (!workload) {
    std::fprintf(stderr, "%s: unknown workload '%.*s'\n", argv[0],
                 static_cast<int>(workload_name.size()), workload_name.data());
    return 2;
  }

  // --- verification: one cycle on the pin seed, whose first case ends
  // the set-up ---
  perfbench::OpLoop pin_loop;
  if (pin) {
    if (setup_only) pin_loop.stop_before_first_op();
    try {
      perfbench::make_workload(workload_name, kPinSeed)->run_cycle(pin_loop);
    } catch (const perfbench::SetupDone&) {
    }
    if (setup_only) {
      std::printf("{\"setup_s\":%.9g}\n",
                  seconds_between(t_start, pin_loop.first_op_start()));
      return 0;
    }
  }

  // --- the measured closed loop ---
#ifdef PERFBENCH_TRACED
  jmb::obs::set_alloc_counting(true);
#endif
  perfbench::OpLoop loop;
  perfbench::tracer().reset();
  // Peak RSS is taken after a fixed amount of work (set-up, the pin cycle
  // and the first measured cycle): later cycles repeat the same work on
  // other inputs, and in a time-bounded window a faster program would run
  // more of them and fragment the heap further.
  double rss_mb = 0.0;
  const auto t_loop = std::chrono::steady_clock::now();
  do {
    workload->run_cycle(loop);
    if (loop.cycles() == 1) rss_mb = peak_rss_mb();
  } while (since_s(t_loop) < seconds);
  const double loop_s = since_s(t_loop);
  const std::uint64_t traced_ticks = perfbench::tracer().stop();
  const double setup_s = seconds_between(
      t_start, pin ? pin_loop.first_op_start() : loop.first_op_start());

  std::printf("{\"workload\":\"%.*s\",\"seed\":%" PRIu64 ",\"traced\":%s,",
              static_cast<int>(workload_name.size()), workload_name.data(),
              seed, perfbench::kTraced ? "true" : "false");
  std::printf("\"setup_s\":%.9g,", setup_s);
  if (pin) {
    std::printf("\"pin_seed\":%" PRIu64 ",", kPinSeed);
    print_hex("pin_digest", pin_loop.cycle_digest());
    std::printf(",\"pin_ops\":%" PRIu64 ",\"pin_failed\":%" PRIu64 ",",
                pin_loop.attempted(), pin_loop.failed());
  }
  print_hex("digest", loop.cycle_digest());
  std::printf(",\"cycles\":%zu,\"ops_first_cycle\":%zu,", loop.cycles(),
              loop.ops_first_cycle());
  std::printf("\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",",
              loop.attempted(), loop.failed());
  std::printf("\"errors\":[");
  for (std::size_t i = 0; i < loop.errors().size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "",
                json_escape(loop.errors()[i]).c_str());
  }
  std::printf("],\"loop_s\":%.9g,\"sim_s\":%.9g,", loop_s, loop.sim_s());
  std::printf("\"op_ms_p50\":%.9g,\"op_ms_p90\":%.9g,",
              loop.op_ms_percentile(0.50), loop.op_ms_percentile(0.90));
  std::printf("\"peak_rss_mb\":%.9g,", rss_mb);
  std::printf(
      "\"provenance\":{\"simd_backend\":\"%s\",\"compiler\":\"%s\","
      "\"cxx_flags\":\"%s\",\"build_type\":\"%s\"}",
      backend, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE);
  if constexpr (perfbench::kTraced) {
    const perfbench::Tracer& tr = perfbench::tracer();
    std::printf(",\"traced_wall_s\":%.9g,\"layers\":{",
                perfbench::ticks_to_s(traced_ticks));
    for (std::size_t l = 0; l < perfbench::kNumLayers; ++l) {
      std::printf("%s\"%s\":%.9g", l ? "," : "", kLayerNames[l],
                  perfbench::ticks_to_s(tr.self_ticks(static_cast<Layer>(l))));
    }
    std::printf("},\"counts\":{");
    for (std::size_t c = 0; c < perfbench::kNumCounts; ++c) {
      std::printf("%s\"%s\":%.9g", c ? "," : "", kCountNames[c],
                  tr.count(static_cast<Count>(c)));
    }
    std::printf("},\"masked_pool_s\":%.9g",
                perfbench::ticks_to_s(static_cast<std::uint64_t>(
                    tr.count(Count::kMaskedPoolTicks))));
  }
  std::printf("}\n");
  return 0;
}
