// Per-stage instrumentation for the frame pipeline and the trial runner.
//
// Stage metrics ride the trial's obs::ObsSink like every other probe:
// each stage owns six metrics in the sink's registry under
// "stage/<name>/<leaf>" — wall_s and frame_us (MetricClass::kTiming,
// excluded from default exports), then frames, detect_failures, cond_sum
// and cond_count (kPhysics, deterministic given the seed). The six
// register together, in that order, the first time anything touches the
// stage, so the registry layout does not depend on which event comes
// first. metrics.cpp is the one owner of those names.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "obs/flight/recorder.h"
#include "obs/registry.h"
#include "obs/sink.h"

namespace jmb::engine {

/// Canonical stage names. The pipeline uses them; benches that run the
/// closed-form link model reuse them for the analogous work so every
/// report reads the same way.
inline constexpr const char* kStageMeasure = "measure";
inline constexpr const char* kStagePrecode = "precode";
inline constexpr const char* kStageSynthesis = "synthesis";
inline constexpr const char* kStagePropagate = "propagate";
inline constexpr const char* kStageDecode = "decode";

/// One missed detection in `stage` (stage/<stage>/detect_failures). A
/// null sink or a sink without a registry records nothing.
void add_detect_failure(const obs::ObsSink* sink, std::string_view stage);

/// One conditioning sample for `stage` (stage/<stage>/cond_sum and
/// cond_count). A null sink or a sink without a registry records nothing.
void add_condition(const obs::ObsSink* sink, std::string_view stage,
                   double cond);

/// RAII timer: on destruction adds the elapsed wall time and one frame to
/// the named stage in the sink's registry, and — when the flight recorder
/// is enabled — writes a TSC-stamped span record to the calling thread's
/// flight ring. The span's flow id is the sink's (trial, cell, frame)
/// (obs::flight::make_cell_flow), so one item's stage chain reconstructs
/// causally; a null sink records the span alone, without a flow. `name`
/// is held by reference (string_view), so pass the kStage* constants or
/// another string that outlives the timer. Once the stage is registered,
/// a timer allocates nothing.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(const obs::ObsSink* sink, std::string_view name,
                            std::uint64_t frame = 0);
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;
  ~ScopedStageTimer();

 private:
  obs::MetricRegistry* reg_;
  std::string_view name_;
  obs::flight::FlightRing* ring_;  ///< null when recording is disabled
  std::uint32_t name_id_ = 0;
  std::uint64_t flow_ = obs::flight::kNoFlow;
  std::uint64_t t0_ticks_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

/// Shared reporter: one aligned row per stage found in `reg`, in
/// first-registration order, with per-frame latency percentiles.
/// Defaults to stderr so bench stdout stays parseable data.
void print_stage_metrics(const obs::MetricRegistry& reg,
                         std::FILE* out = stderr);

}  // namespace jmb::engine
