// Typed metric registry — the single metrics spine for the whole system.
//
// A registry holds named counters, gauges and fixed-bucket histograms in
// first-registration order. Instances are NOT thread-safe by design: the
// trial runner gives every trial its own registry (lock-free hot path)
// and merges them in trial order afterwards, so aggregates are
// bit-identical for any worker-thread count. The pipeline's per-stage
// metrics live here too (engine/metrics.h), under "stage/<name>/...".
//
// Metrics carry a class: kPhysics values are deterministic functions of
// the seed (frame counts, phase errors, condition numbers) and are what
// exporters emit by default; kTiming values are wall-clock derived and
// only exported on request, keeping bench_result.json byte-identical
// across thread counts.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace jmb::obs {

enum class MetricClass {
  kPhysics,  ///< deterministic given the seed; exported by default
  kTiming,   ///< wall-clock derived; exported only when requested
};

/// Monotonically accumulating sum (doubles so it can carry seconds as
/// well as event counts).
class Counter {
 public:
  void add(double d = 1.0) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  double value_ = 0.0;
};

/// Last-written value. Merging takes the other side's value when it was
/// ever set, so trial-order merges resolve to the last trial that wrote.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    set_ = true;
  }
  [[nodiscard]] double value() const { return value_; }
  void merge(const Gauge& other) {
    if (other.set_) {
      value_ = other.value_;
      set_ = true;
    }
  }

 private:
  double value_ = 0.0;
  bool set_ = false;
};

/// Fixed-boundary histogram: bucket i counts observations in
/// (bounds[i-1], bounds[i]]; one overflow bucket past bounds.back().
/// Boundaries are fixed at registration (see obs/bounds.h for the
/// canonical literal tables) so bucket layout is stable across platforms
/// and merges are a plain element-wise sum.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 buckets, last one the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// q-quantile (q in [0,1]) by linear interpolation inside the bucket,
  /// tightened by the observed min/max. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  /// Element-wise sum; throws std::logic_error on boundary mismatch
  /// (two metrics with one name must agree on layout).
  void merge(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metrics in first-registration order. Lookup is get-or-create;
/// asking for an existing name with a different metric kind (or different
/// histogram boundaries) throws std::logic_error.
class MetricRegistry {
 public:
  struct Entry {
    std::string name;
    MetricClass cls = MetricClass::kPhysics;
    std::variant<Counter, Gauge, Histogram> metric;
  };

  Counter& counter(std::string_view name,
                   MetricClass cls = MetricClass::kPhysics);
  Gauge& gauge(std::string_view name, MetricClass cls = MetricClass::kPhysics);
  Histogram& histogram(std::string_view name, std::span<const double> bounds,
                       MetricClass cls = MetricClass::kPhysics);

  /// Entries in first-registration order (deque: references handed out by
  /// the accessors stay valid as the registry grows).
  [[nodiscard]] const std::deque<Entry>& entries() const { return entries_; }
  [[nodiscard]] const Entry* find(std::string_view name) const;
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Merge `other` into this registry. New names append in the other
  /// registry's order, so repeated trial-order merges yield one
  /// deterministic layout regardless of scheduling.
  void merge(const MetricRegistry& other);

 private:
  Entry* find_mutable(std::string_view name);

  std::deque<Entry> entries_;
};

}  // namespace jmb::obs
