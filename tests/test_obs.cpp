// Observability layer: registry semantics, merge determinism across
// thread counts, histogram bucketing, JSON round-trips, the schema
// validator, and the stage timer's flight-recorder spans.
#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/trial_runner.h"
#include "obs/bounds.h"
#include "obs/export.h"
#include "obs/flight/recorder.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/sink.h"

namespace jmb {
namespace {

TEST(ObsHistogram, BucketsAreLowerExclusiveUpperInclusive) {
  const double bounds[] = {1.0, 2.0};
  obs::Histogram h(bounds);
  h.observe(0.5);  // <= bounds[0] -> bucket 0
  h.observe(1.0);  // boundary lands in bucket 0 ((-inf, 1])
  h.observe(1.5);  // (1, 2] -> bucket 1
  h.observe(2.0);  // boundary lands in bucket 1
  h.observe(3.0);  // overflow bucket
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(ObsHistogram, QuantilesAreOrderedAndBoundedByObservations) {
  obs::Histogram h(obs::kTimeUsBounds);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  // 100 uniform samples: the median interpolates somewhere near 50.
  EXPECT_GT(p50, 20.0);
  EXPECT_LT(p50, 100.0);
}

TEST(ObsHistogram, MergeSumsAndMismatchThrows) {
  const double bounds[] = {1.0, 2.0};
  obs::Histogram a(bounds), b(bounds);
  a.observe(0.5);
  b.observe(1.5);
  b.observe(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_EQ(a.counts()[0], 1u);
  EXPECT_EQ(a.counts()[1], 1u);
  EXPECT_EQ(a.counts()[2], 1u);

  const double other[] = {1.0, 3.0};
  obs::Histogram c(other);
  EXPECT_THROW(a.merge(c), std::logic_error);
}

TEST(ObsRegistry, GetOrCreateAndKindMismatch) {
  obs::MetricRegistry reg;
  obs::Counter& c1 = reg.counter("x");
  c1.add(2.0);
  EXPECT_DOUBLE_EQ(reg.counter("x").value(), 2.0);  // same object
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  (void)reg.histogram("h", obs::kHzBounds);
  EXPECT_THROW(reg.histogram("h", obs::kDbBounds), std::logic_error);
  // First-registration order is the export order.
  ASSERT_EQ(reg.entries().size(), 2u);
  EXPECT_EQ(reg.entries()[0].name, "x");
  EXPECT_EQ(reg.entries()[1].name, "h");
}

TEST(ObsRegistry, MergeAppendsNewNamesInOtherOrder) {
  obs::MetricRegistry a, b;
  a.counter("shared").add(1.0);
  b.counter("b_only").add(5.0);
  b.counter("shared").add(2.0);
  a.merge(b);
  ASSERT_EQ(a.entries().size(), 2u);
  // "shared" keeps a's slot; "b_only" appends after it.
  EXPECT_EQ(a.entries()[0].name, "shared");
  EXPECT_EQ(a.entries()[1].name, "b_only");
  EXPECT_DOUBLE_EQ(a.counter("shared").value(), 3.0);
  EXPECT_DOUBLE_EQ(a.counter("b_only").value(), 5.0);
}

TEST(ObsBounds, LiteralTablesAreStableAndAscending) {
  EXPECT_EQ(std::size(obs::kTimeUsBounds), 21u);
  EXPECT_DOUBLE_EQ(obs::kTimeUsBounds[0], 1.0);
  EXPECT_DOUBLE_EQ(obs::kTimeUsBounds[20], 5e6);
  EXPECT_EQ(std::size(obs::kPhaseRadBounds), 15u);
  EXPECT_DOUBLE_EQ(obs::kPhaseRadBounds[14], 3.15);
  EXPECT_EQ(std::size(obs::kHzBounds), 11u);
  EXPECT_EQ(std::size(obs::kDbBounds), 22u);
  EXPECT_DOUBLE_EQ(obs::kDbBounds[0], -320.0);
  EXPECT_EQ(std::size(obs::kCondBounds), 13u);
  const auto ascending = [](const double* t, std::size_t n) {
    for (std::size_t i = 1; i < n; ++i) {
      if (t[i - 1] >= t[i]) return false;
    }
    return true;
  };
  EXPECT_TRUE(ascending(obs::kTimeUsBounds, std::size(obs::kTimeUsBounds)));
  EXPECT_TRUE(ascending(obs::kPhaseRadBounds, std::size(obs::kPhaseRadBounds)));
  EXPECT_TRUE(ascending(obs::kHzBounds, std::size(obs::kHzBounds)));
  EXPECT_TRUE(ascending(obs::kDbBounds, std::size(obs::kDbBounds)));
  EXPECT_TRUE(ascending(obs::kCondBounds, std::size(obs::kCondBounds)));
}

TEST(ObsSink, NullRegistryIsNoOp) {
  const obs::ObsSink sink;
  sink.count("x");
  sink.set_gauge("y", 1.0);
  sink.observe("z", obs::kHzBounds, 1.0);
  EXPECT_EQ(sink.registry(), nullptr);
}

// The determinism contract behind ISSUE acceptance: a run whose trials
// register different metric names in different orders, plus wall-clock
// stage timers, exports byte-identically for any worker-thread count.
std::string run_and_export(std::size_t n_threads) {
  engine::TrialRunner runner({.base_seed = 17, .n_threads = n_threads});
  (void)runner.run(12, [](engine::TrialContext& ctx) {
    const auto timer = ctx.time_stage(engine::kStageDecode);
    ctx.metrics->stage(engine::kStagePrecode)
        .add_condition(1.0 + static_cast<double>(ctx.index));
    ctx.sink.count("probe/common");
    ctx.sink.observe("probe/phase", obs::kPhaseRadBounds,
                     1e-3 * static_cast<double>(ctx.index + 1));
    if (ctx.index % 3 == 0) ctx.sink.count("probe/only_mod3");
    ctx.sink.set_gauge("probe/last_index", static_cast<double>(ctx.index));
    return 0;
  });
  obs::BenchRunInfo info;
  info.figure = "test_fixture";
  info.seed = 17;
  info.params.emplace_back("trials", 12.0);
  return obs::bench_result_json(info, runner.registry());
}

TEST(ObsDeterminism, ExportIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = run_and_export(1);
  const std::string parallel = run_and_export(8);
  EXPECT_EQ(serial, parallel);
  // Physics made it out; wall-clock did not (kTiming is opt-in).
  EXPECT_NE(serial.find("probe/phase"), std::string::npos);
  EXPECT_NE(serial.find("probe/only_mod3"), std::string::npos);
  EXPECT_EQ(serial.find("wall_s"), std::string::npos);
  EXPECT_EQ(serial.find("frame_us"), std::string::npos);
}

TEST(ObsJson, DumpParseRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,true,null,"s\"x"],"b":{"c":-3},"d":0.015625})";
  std::string err;
  const obs::JsonValue v = obs::parse_json(text, &err);
  ASSERT_TRUE(v.is_object()) << err;
  EXPECT_EQ(v.dump(), text);
  const obs::JsonValue* a = v.get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 5u);
  EXPECT_EQ(a->as_array()[4].as_string(), "s\"x");
}

TEST(ObsJson, ParseFailureReportsError) {
  std::string err;
  const obs::JsonValue v = obs::parse_json("{\"a\": ", &err);
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(err.empty());
  std::string err2;
  const obs::JsonValue trailing = obs::parse_json("1 x", &err2);
  EXPECT_TRUE(trailing.is_null());
  EXPECT_FALSE(err2.empty());
}

TEST(ObsSchema, ValidatorAcceptsAndRejects) {
  const obs::JsonValue schema = obs::parse_json(R"({
    "type": "object",
    "required": ["schema", "metrics"],
    "properties": {
      "schema": {"const": "jmb.bench_result.v1"},
      "metrics": {"type": "array", "items": {"type": "object",
                  "required": ["name"],
                  "properties": {"kind": {"enum": ["counter", "gauge"]}}}}
    }
  })");
  ASSERT_TRUE(schema.is_object());

  const obs::JsonValue good = obs::parse_json(
      R"({"schema":"jmb.bench_result.v1",)"
      R"("metrics":[{"name":"x","kind":"counter"}]})");
  EXPECT_TRUE(obs::validate_schema(schema, good).empty());

  const obs::JsonValue bad_const =
      obs::parse_json(R"({"schema":"nope","metrics":[]})");
  EXPECT_FALSE(obs::validate_schema(schema, bad_const).empty());

  const obs::JsonValue missing = obs::parse_json(R"({"metrics":[]})");
  EXPECT_FALSE(obs::validate_schema(schema, missing).empty());

  const obs::JsonValue bad_enum = obs::parse_json(
      R"({"schema":"jmb.bench_result.v1",)"
      R"("metrics":[{"name":"x","kind":"bogus"}]})");
  EXPECT_FALSE(obs::validate_schema(schema, bad_enum).empty());
}

TEST(ObsSchema, MinimumMaximumBoundNumericMembers) {
  const obs::JsonValue schema = obs::parse_json(R"({
    "type": "object",
    "properties": {
      "rate": {"type": "number", "minimum": 0, "maximum": 1},
      "depth": {"type": "integer", "minimum": 2}
    }
  })");
  ASSERT_TRUE(schema.is_object());
  EXPECT_TRUE(
      obs::validate_schema(schema, obs::parse_json(R"({"rate":0.5,"depth":8})"))
          .empty());
  EXPECT_TRUE(  // boundary values are inclusive
      obs::validate_schema(schema, obs::parse_json(R"({"rate":1,"depth":2})"))
          .empty());
  EXPECT_FALSE(
      obs::validate_schema(schema, obs::parse_json(R"({"rate":-0.1})"))
          .empty());
  EXPECT_FALSE(
      obs::validate_schema(schema, obs::parse_json(R"({"rate":1.5})")).empty());
  EXPECT_FALSE(
      obs::validate_schema(schema, obs::parse_json(R"({"depth":1})")).empty());
}

TEST(ObsSchema, BenchResultDocConformsToCheckedInShape) {
  obs::MetricRegistry reg;
  reg.counter("c").add(2.0);
  reg.gauge("g").set(1.5);
  reg.histogram("h", obs::kTimeUsBounds, obs::MetricClass::kTiming)
      .observe(3.0);
  obs::BenchRunInfo info;
  info.figure = "fig_test";
  info.seed = 1;
  info.params.emplace_back("n", 4.0);
  const obs::JsonValue doc = obs::bench_result_doc(info, reg, true);

  // Mirror of schemas/bench_result.schema.json (the smoke ctest runs the
  // real file through tools/validate_bench_result).
  const obs::JsonValue schema = obs::parse_json(R"({
    "type": "object",
    "required": ["schema", "figure", "seed", "params", "metrics"],
    "properties": {
      "schema": {"const": "jmb.bench_result.v1"},
      "figure": {"type": "string"},
      "seed": {"type": "integer"},
      "params": {"type": "object"},
      "metrics": {"type": "array", "minItems": 3, "items": {
        "type": "object",
        "required": ["name", "kind", "class"],
        "properties": {
          "kind": {"enum": ["counter", "gauge", "histogram"]},
          "class": {"enum": ["physics", "timing"]},
          "count": {"type": "integer"},
          "bounds": {"type": "array", "minItems": 1,
                     "items": {"type": "number"}},
          "counts": {"type": "array", "minItems": 2,
                     "items": {"type": "integer"}}
        }}}
    }
  })");
  ASSERT_TRUE(schema.is_object());
  const auto errors = obs::validate_schema(schema, doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(ObsExport, CsvHasHeaderAndSkipsTimingByDefault) {
  obs::MetricRegistry reg;
  reg.counter("a").add(3.0);
  reg.counter("t", obs::MetricClass::kTiming).add(1.0);
  const std::string csv = obs::registry_csv(reg);
  EXPECT_NE(csv.find("name,kind,class,count,sum,min,max,mean,p50,p90,p99\n"),
            std::string::npos);
  EXPECT_NE(csv.find("a,counter,physics"), std::string::npos);
  EXPECT_EQ(csv.find("t,counter,timing"), std::string::npos);
  const std::string with_timing = obs::registry_csv(reg, true);
  EXPECT_NE(with_timing.find("t,counter,timing"), std::string::npos);
}

TEST(ObsTrace, ScopedStageTimerRecordsFlightSpanAndMetrics) {
  auto& flight = obs::flight::FlightRecorder::instance();
  if (!flight.enabled()) GTEST_SKIP() << "JMB_FLIGHT=0";
  obs::flight::FlightRing* ring = flight.local_ring();
  ASSERT_NE(ring, nullptr);
  const std::uint64_t written0 = ring->written();

  engine::StageMetricsSet set;
  const obs::ObsSink sink(&set.registry(), 3);
  { const engine::ScopedStageTimer timer(&set, "x", &sink, 7); }
  const engine::StageSnapshot snap = set.snapshot("x");
  EXPECT_EQ(snap.frames, 1u);
  ASSERT_NE(snap.frame_us, nullptr);
  EXPECT_EQ(snap.frame_us->count(), 1u);

  ASSERT_EQ(ring->written(), written0 + 1);
  const auto records = ring->snapshot(1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, obs::flight::EventType::kSpan);
  EXPECT_EQ(flight.name_of(records[0].name), "x");
  // Without an explicit flow the batch identity (trial, frame) is used.
  EXPECT_EQ(records[0].flow, obs::flight::make_flow(3, 7));
}

}  // namespace
}  // namespace jmb
