// Per-layer host-time accounting for the traced harness binary.
//
// Spans are opened by the harness around its own calls into each layer
// (link model, precoder, MAC entry points, the pipeline stages) and inside
// the callbacks and decorators it hands the MAC. Accounting is exclusive: a
// stack of open layers charges every tick to exactly one layer (the
// innermost open span, or kUntracked when none is open), so the layer self
// times always sum to the traced wall time. Timestamps come from the flight
// recorder's calibrated tick counter.
//
// In the untraced binary (PERFBENCH_TRACED undefined) every Span and count
// compiles to nothing, so end-to-end numbers never pay for the tracing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/flight/clock.h"

namespace perfbench {

#ifdef PERFBENCH_TRACED
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

/// Exclusive layers. Their self times plus kUntracked add up to the traced
/// wall time. kRateReplay is trace-only work (the replay of rate selection
/// after each MAC call): it is timed but taken out of the wall time, since
/// the untraced program never does it.
enum class Layer : std::size_t {
  kUntracked,
  kMac,             ///< MAC call minus everything nested below
  kLinkState,       ///< the harness's link-state callback bodies
  kChannel,         ///< link gains + channel matrix draws
  kSinr,            ///< jmb_subcarrier_sinrs pool draws
  kPrecoder,        ///< Precoder::build_kind / build_masked
  kTrafficDrain,    ///< TrafficSource::drain_until / next_arrival_s
  kPolicySelect,    ///< Scheduler::select (incl. the MAC's rate hints)
  kPolicyFeedback,  ///< Scheduler::on_served / on_slot
  kFaultPlan,       ///< FaultPlan, FaultSession, ResilienceController set-up
  kChurnBuild,      ///< metro::CellChurn construction
  kChurnActivity,   ///< ActivityFn callback bodies
  kSystemBuild,     ///< JmbSystem construction
  kEncode,          ///< Transmitter::build_freq_symbols for a joint frame
  kMeasure,         ///< MeasurementStage::run
  kPrecode,         ///< PrecodeStage::run
  kSynthesis,       ///< SynthesisStage::run
  kPropagate,       ///< PropagationStage::run
  kDecode,          ///< DecodeStage::run
  kRateReplay,      ///< trace-only: select_rate + frame_error_prob replay
  kCount,
};

inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

/// Counters recorded at the same boundaries as the spans.
enum class Count : std::size_t {
  kMacCalls,
  kLinkQueries,
  kTxAttempts,
  kDelivered,
  kMeasurementEpochs,
  kMacAllocs,
  kSinrCalls,
  kBuilds,
  kMaskedBuilds,
  kMaskedPoolTicks,  ///< ticks spent building lazy masked pools (detail)
  kPackets,
  kSelects,
  kMaxQueueDepth,    ///< sum over MAC calls of each call's peak queue depth
  kAggregatedMpdus,
  kFaultEvents,
  kQuarantines,
  kLeadElections,
  kActivityCalls,
  kFrames,
  kClientFramesOk,
  kClientFrames,
  kFrameAllocs,
  kCount,
};

inline constexpr std::size_t kNumCounts = static_cast<std::size_t>(Count::kCount);

class Tracer {
 public:
  /// Zero everything and start the wall clock with kUntracked on top.
  void reset() {
    self_.fill(0);
    counts_.fill(0.0);
    depth_ = 1;
    stack_[0] = Layer::kUntracked;
    start_ = last_ = jmb::obs::flight::now_ticks();
  }

  void enter(Layer l) {
    charge();
    stack_[depth_++] = l;
  }
  void leave() {
    charge();
    --depth_;
  }

  /// Charge the open interval and return ticks since reset().
  std::uint64_t stop() {
    charge();
    return last_ - start_;
  }

  void add(Count c, double v) { counts_[static_cast<std::size_t>(c)] += v; }

  [[nodiscard]] std::uint64_t self_ticks(Layer l) const {
    return self_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] double count(Count c) const {
    return counts_[static_cast<std::size_t>(c)];
  }

 private:
  void charge() {
    const std::uint64_t now = jmb::obs::flight::now_ticks();
    self_[static_cast<std::size_t>(stack_[depth_ - 1])] += now - last_;
    last_ = now;
  }

  std::array<std::uint64_t, kNumLayers> self_{};
  std::array<double, kNumCounts> counts_{};
  std::array<Layer, 16> stack_{};
  std::size_t depth_ = 1;
  std::uint64_t start_ = 0;
  std::uint64_t last_ = 0;
};

/// The process-wide tracer (the harness is single-threaded).
inline Tracer& tracer() {
  static Tracer t;
  return t;
}

/// RAII span: charges its lifetime (minus nested spans) to `l`.
class Span {
 public:
  explicit Span(Layer l) {
    if constexpr (kTraced) tracer().enter(l);
  }
  ~Span() {
    if constexpr (kTraced) tracer().leave();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

inline void count(Count c, double v = 1.0) {
  if constexpr (kTraced) tracer().add(c, v);
}

inline double ticks_to_s(std::uint64_t ticks) {
  return static_cast<double>(ticks) /
         (jmb::obs::flight::clock_calibration().ticks_per_us * 1e6);
}

}  // namespace perfbench
