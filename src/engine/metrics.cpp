#include "engine/metrics.h"

#include <cstddef>
#include <string>
#include <variant>

#include "obs/bounds.h"

namespace jmb::engine {

namespace {

constexpr std::string_view kPrefix = "stage/";

// A stage's metrics in registration (and so export) order.
enum Leaf : std::size_t {
  kWallS,
  kFrameUs,
  kFrames,
  kDetectFailures,
  kCondSum,
  kCondCount,
};
constexpr std::string_view kLeafNames[] = {
    "wall_s", "frame_us", "frames", "detect_failures", "cond_sum",
    "cond_count"};

// "stage/<stage>/<leaf>", composed in a per-thread buffer that keeps its
// capacity, so looking up a registered stage allocates nothing. The view
// is valid until the calling thread's next stage_key().
std::string_view stage_key(std::string_view stage, Leaf leaf) {
  thread_local std::string key;
  key.assign(kPrefix);
  key += stage;
  key += '/';
  key += kLeafNames[leaf];
  return key;
}

// The one owner of the stage layout: get-or-create `leaf` of `stage`,
// first registering all six of the stage's metrics, in Leaf order, if
// the stage is new to `reg`.
obs::Counter& stage_counter(obs::MetricRegistry& reg, std::string_view stage,
                            Leaf leaf) {
  if (reg.find(stage_key(stage, kWallS)) == nullptr) {
    using obs::MetricClass;
    reg.counter(stage_key(stage, kWallS), MetricClass::kTiming);
    reg.histogram(stage_key(stage, kFrameUs), obs::kTimeUsBounds,
                  MetricClass::kTiming);
    for (const Leaf l : {kFrames, kDetectFailures, kCondSum, kCondCount}) {
      reg.counter(stage_key(stage, l));
    }
  }
  return reg.counter(stage_key(stage, leaf));
}

double counter_value(const obs::MetricRegistry& reg, std::string_view stage,
                     Leaf leaf) {
  const auto* e = reg.find(stage_key(stage, leaf));
  if (!e) return 0.0;
  const auto* c = std::get_if<obs::Counter>(&e->metric);
  return c ? c->value() : 0.0;
}

// The stage a "stage/<stage>/wall_s" entry opens; empty for any other
// name.
std::string_view stage_of(std::string_view name) {
  const std::string_view suffix = kLeafNames[kWallS];
  if (name.size() <= kPrefix.size() + 1 + suffix.size() ||
      !name.starts_with(kPrefix) || !name.ends_with(suffix) ||
      name[name.size() - suffix.size() - 1] != '/') {
    return {};
  }
  return name.substr(kPrefix.size(),
                     name.size() - kPrefix.size() - suffix.size() - 1);
}

}  // namespace

void add_detect_failure(const obs::ObsSink* sink, std::string_view stage) {
  if (sink == nullptr || sink->registry() == nullptr) return;
  stage_counter(*sink->registry(), stage, kDetectFailures).add(1.0);
}

void add_condition(const obs::ObsSink* sink, std::string_view stage,
                   double cond) {
  if (sink == nullptr || sink->registry() == nullptr) return;
  obs::MetricRegistry& reg = *sink->registry();
  stage_counter(reg, stage, kCondSum).add(cond);
  reg.counter(stage_key(stage, kCondCount)).add(1.0);
}

ScopedStageTimer::ScopedStageTimer(const obs::ObsSink* sink,
                                   std::string_view name, std::uint64_t frame)
    : reg_(sink ? sink->registry() : nullptr),
      name_(name),
      ring_(obs::flight::FlightRecorder::instance().local_ring()),
      t0_(std::chrono::steady_clock::now()) {
  if (ring_) {
    name_id_ = obs::flight::FlightRecorder::instance().intern(name);
    if (sink != nullptr) {
      flow_ = obs::flight::make_cell_flow(sink->trial(), sink->cell(), frame);
    }
    t0_ticks_ = obs::flight::now_ticks();
  }
}

ScopedStageTimer::~ScopedStageTimer() {
  const auto dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  if (reg_) {
    stage_counter(*reg_, name_, kFrames).add(1.0);
    reg_->counter(stage_key(name_, kWallS)).add(dt);
    reg_->histogram(stage_key(name_, kFrameUs), obs::kTimeUsBounds,
                    obs::MetricClass::kTiming)
        .observe(dt * 1e6);
  }
  if (ring_) {
    ring_->write(obs::flight::EventType::kSpan, name_id_, t0_ticks_, flow_,
                 obs::flight::now_ticks() - t0_ticks_);
  }
}

void print_stage_metrics(const obs::MetricRegistry& reg, std::FILE* out) {
  bool header = false;
  for (const obs::MetricRegistry::Entry& e : reg.entries()) {
    const std::string_view name = stage_of(e.name);
    if (name.empty()) continue;
    if (!header) {
      std::fprintf(out, "%-12s %-10s %-8s %-12s %-10s %-27s\n", "stage",
                   "wall (s)", "frames", "detect-fail", "mean-cond",
                   "frame us p50/p90/p99");
      header = true;
    }
    const auto count = [&](Leaf leaf) {
      return static_cast<unsigned long long>(counter_value(reg, name, leaf));
    };
    std::fprintf(out, "%-12.*s %-10.3f %-8llu %-12llu ",
                 static_cast<int>(name.size()), name.data(),
                 counter_value(reg, name, kWallS), count(kFrames),
                 count(kDetectFailures));
    const unsigned long long cond_count = count(kCondCount);
    if (cond_count > 0) {
      std::fprintf(out, "%-10.2f ",
                   counter_value(reg, name, kCondSum) /
                       static_cast<double>(cond_count));
    } else {
      std::fprintf(out, "%-10s ", "-");
    }
    const auto* h = reg.find(stage_key(name, kFrameUs));
    const auto* us = h ? std::get_if<obs::Histogram>(&h->metric) : nullptr;
    if (us && us->count() > 0) {
      std::fprintf(out, "%.1f / %.1f / %.1f\n", us->quantile(0.50),
                   us->quantile(0.90), us->quantile(0.99));
    } else {
      std::fprintf(out, "-\n");
    }
  }
}

}  // namespace jmb::engine
