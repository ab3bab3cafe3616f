// Flight recorder unit tests: clock calibration, name interning, the
// seqlock ring (bounded retention, concurrent snapshot safety), span
// scopes, the enable switch, the Chrome trace exporter (including flow
// stitch events) and fault-triggered dumps.
//
// The recorder is a process-wide leaked singleton, so tests share one
// instance; each test asserts on written() deltas or freshly interned
// names rather than absolute state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight/clock.h"
#include "obs/flight/export.h"
#include "obs/flight/recorder.h"
#include "obs/json.h"

namespace flight = jmb::obs::flight;

TEST(FlightClock, TicksAreMonotonicAndCalibrated) {
  const std::uint64_t a = flight::now_ticks();
  const std::uint64_t b = flight::now_ticks();
  EXPECT_GE(b, a);
  const auto& cal = flight::clock_calibration();
  // Any sane TSC (or the ns fallback) runs faster than 1 tick/us and
  // slower than 100 GHz.
  EXPECT_GT(cal.ticks_per_us, 0.9);
  EXPECT_LT(cal.ticks_per_us, 1e5);
  // Conversions are anchored at the calibration epoch.
  const double us = flight::ticks_to_us(cal.tsc0);
  EXPECT_DOUBLE_EQ(us, 0.0);
  EXPECT_NEAR(flight::tick_delta_us(
                  static_cast<std::uint64_t>(cal.ticks_per_us * 1000.0)),
              1000.0, 1.0);
}

TEST(FlightRecorder, InternDedupesAndRoundTrips) {
  auto& rec = flight::FlightRecorder::instance();
  const std::uint32_t a = rec.intern("test/intern_alpha");
  const std::uint32_t b = rec.intern("test/intern_beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, rec.intern("test/intern_alpha"));
  EXPECT_EQ(b, rec.intern("test/intern_beta"));
  EXPECT_EQ(rec.name_of(a), "test/intern_alpha");
  EXPECT_EQ(rec.name_of(b), "test/intern_beta");
  // Id 0 is the overflow alias; out-of-range ids degrade to it too.
  EXPECT_EQ(rec.name_of(0), "?");
  EXPECT_EQ(rec.name_of(0xffffffffu), "?");
}

TEST(FlightRing, BoundedOldestFirstSnapshot) {
  flight::FlightRing ring(8, 42);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.tid(), 42u);
  for (std::uint64_t i = 0; i < 12; ++i) {
    ring.write(flight::EventType::kInstant, 1, /*tsc=*/100 + i, /*flow=*/i,
               /*value=*/i * 10);
  }
  EXPECT_EQ(ring.written(), 12u);
  // Only the last 8 survive, oldest first.
  const auto all = ring.snapshot();
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t j = 0; j < all.size(); ++j) {
    const std::uint64_t i = 4 + j;
    EXPECT_EQ(all[j].tsc, 100 + i);
    EXPECT_EQ(all[j].flow, i);
    EXPECT_EQ(all[j].value, i * 10);
    EXPECT_EQ(all[j].name, 1u);
    EXPECT_EQ(all[j].type, flight::EventType::kInstant);
  }
  // last_n trims from the new end.
  const auto tail = ring.snapshot(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().flow, 9u);
  EXPECT_EQ(tail.back().flow, 11u);
}

TEST(FlightRing, SnapshotIsSafeAgainstConcurrentWriter) {
  // Hammer a tiny ring from a writer thread while snapshotting; every
  // record that survives the torn-read filter must be internally
  // consistent (we encode value = tsc so tearing is detectable).
  flight::FlightRing ring(64, 0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wrote{0};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ring.write(flight::EventType::kInstant, 7, /*tsc=*/i, /*flow=*/i,
                 /*value=*/i);
      wrote.store(++i, std::memory_order_relaxed);
    }
  });
  // On a single-core machine the writer may not be scheduled until we
  // yield; make sure the rings are non-empty before racing snapshots.
  while (wrote.load(std::memory_order_relaxed) < 256) {
    std::this_thread::yield();
  }
  std::size_t seen = 0;
  for (int round = 0; round < 200; ++round) {
    if (round % 16 == 0) std::this_thread::yield();
    for (const flight::FlightRecord& r : ring.snapshot()) {
      EXPECT_EQ(r.tsc, r.flow);
      EXPECT_EQ(r.tsc, r.value);
      EXPECT_EQ(r.name, 7u);
      ++seen;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(seen, 0u);
}

TEST(FlightRecorder, SpanScopeWritesOneSpanRecord) {
  auto& rec = flight::FlightRecorder::instance();
  flight::FlightRing* ring = rec.local_ring();
  if (ring == nullptr) GTEST_SKIP() << "flight recording disabled by env";
  const std::uint32_t name = rec.intern("test/span_scope");
  const std::uint64_t before = ring->written();
  {
    flight::SpanScope span(name, flight::make_flow(1, 2));
  }
  ASSERT_EQ(ring->written(), before + 1);
  const auto tail = ring->snapshot(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].type, flight::EventType::kSpan);
  EXPECT_EQ(tail[0].name, name);
  EXPECT_EQ(tail[0].flow, flight::make_flow(1, 2));
}

TEST(FlightRecorder, DisableSwitchStopsRecording) {
  auto& rec = flight::FlightRecorder::instance();
  if (rec.local_ring() == nullptr) {
    GTEST_SKIP() << "flight recording disabled by env";
  }
  flight::FlightRing* ring = rec.local_ring();
  rec.set_enabled_for_test(false);
  EXPECT_EQ(rec.local_ring(), nullptr);
  const std::uint64_t before = ring->written();
  flight::record(flight::EventType::kInstant, 0, flight::now_ticks(),
                 flight::kNoFlow, 0);
  {
    flight::SpanScope span(std::uint32_t{0});
  }
  flight::instant(std::string_view("test/disabled"));
  EXPECT_EQ(ring->written(), before);
  rec.set_enabled_for_test(true);
  EXPECT_EQ(rec.local_ring(), ring);
}

TEST(FlightExport, ChromeTraceCarriesSpansFlowsAndInstants) {
  auto& rec = flight::FlightRecorder::instance();
  if (rec.local_ring() == nullptr) {
    GTEST_SKIP() << "flight recording disabled by env";
  }
  // One flow crossing two spans (so the exporter emits s/t flow
  // events) and an instant.
  const std::uint64_t flow = flight::make_flow(5, 77);
  {
    flight::SpanScope a(rec.intern("test/export_stage_a"), flow);
  }
  {
    flight::SpanScope b(rec.intern("test/export_stage_b"), flow);
  }
  flight::instant(std::string_view("test/export_instant"), flow, 3);

  const std::string json = flight::chrome_trace_json();
  std::string err;
  const jmb::obs::JsonValue doc = jmb::obs::parse_json(json, &err);
  ASSERT_FALSE(doc.is_null()) << err;
  const jmb::obs::JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_a = false;
  bool saw_b = false;
  bool saw_instant = false;
  int flow_starts = 0;
  int flow_steps = 0;
  for (const jmb::obs::JsonValue& ev : events->as_array()) {
    const jmb::obs::JsonValue* name = ev.get("name");
    const jmb::obs::JsonValue* ph = ev.get("ph");
    if (name == nullptr || ph == nullptr) continue;
    const std::string& n = name->as_string();
    const std::string& p = ph->as_string();
    if (n == "test/export_stage_a" && p == "X") saw_a = true;
    if (n == "test/export_stage_b" && p == "X") saw_b = true;
    if (n == "test/export_instant" && p == "i") saw_instant = true;
    if (ev.get("id") != nullptr && p == "s") ++flow_starts;
    if (ev.get("id") != nullptr && (p == "t" || p == "f")) ++flow_steps;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(saw_instant);
  // At least our two-span flow got stitched.
  EXPECT_GE(flow_starts, 1);
  EXPECT_GE(flow_steps, 1);
}

TEST(FlightExport, TriggerDumpWritesBudgetedFiles) {
  namespace fs = std::filesystem;
  auto& rec = flight::FlightRecorder::instance();
  if (rec.local_ring() == nullptr) {
    GTEST_SKIP() << "flight recording disabled by env";
  }
  const fs::path dir =
      fs::temp_directory_path() / "jmb_flight_dump_test";
  fs::remove_all(dir);
  flight::set_dump_dir_for_test(dir.string());
  flight::reset_dump_count_for_test();

  flight::instant(std::string_view("test/dump_marker"), flight::kNoFlow, 1);
  const std::string p0 = flight::trigger_dump("unit_test");
  ASSERT_FALSE(p0.empty());
  EXPECT_TRUE(fs::exists(p0));
  const auto files_in_dir = [&] {
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator(dir), fs::directory_iterator{}));
  };
  EXPECT_EQ(files_in_dir(), 1u);

  // The dump parses as a trace and carries the reason instant.
  std::string text;
  {
    std::FILE* f = std::fopen(p0.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  std::string err;
  const jmb::obs::JsonValue doc = jmb::obs::parse_json(text, &err);
  ASSERT_FALSE(doc.is_null()) << err;
  ASSERT_NE(doc.get("traceEvents"), nullptr);
  EXPECT_NE(text.find("dump/unit_test"), std::string::npos);
  EXPECT_NE(text.find("test/dump_marker"), std::string::npos);

  // The budget (JMB_FLIGHT_MAX_DUMPS, default 4) caps total dumps.
  std::size_t written = 1;
  for (int i = 0; i < 10; ++i) {
    if (!flight::trigger_dump("unit_test").empty()) ++written;
  }
  EXPECT_LE(written, 4u);
  EXPECT_EQ(written, files_in_dir());

  flight::set_dump_dir_for_test("");
  flight::reset_dump_count_for_test();
  EXPECT_TRUE(flight::trigger_dump("unit_test_nodir").empty() ||
              std::getenv("JMB_FLIGHT_DUMP_DIR") != nullptr);
  fs::remove_all(dir);
}
