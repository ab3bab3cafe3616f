// Drain-on-demand exporter for the flight recorder.
//
// Serializes the rings as Chrome trace_event JSON (chrome://tracing and
// Perfetto both load it): stage spans as "X" complete events, instants
// as "i", counters as "C", and — for every flow id that appears on more
// than one span — "s"/"t"/"f" flow events that draw the item's causal
// chain across threads. Timestamps are microseconds since the TSC
// calibration epoch; tid is the flight ring id (one lane per recorded
// thread), pid is always 0.
//
// trigger_dump() is the fault hook: the quarantine path calls it to
// snapshot the last N records per thread into
// $JMB_FLIGHT_DUMP_DIR/flight_<reason>_<k>.json. It is rate-limited
// (JMB_FLIGHT_MAX_DUMPS, default 4, strict warn-once parsing) and a
// no-op when the directory is unset, so instrumented hot paths pay one
// predictable branch in the common case.
#pragma once

#include <cstddef>
#include <string>

namespace jmb::obs::flight {

/// The whole recorder state (last `last_n` records per thread; 0 = all
/// retained) as a Chrome trace_event JSON document.
[[nodiscard]] std::string chrome_trace_json(std::size_t last_n = 0);

/// Write chrome_trace_json() to `path`. False (with a stderr message) on
/// I/O failure.
bool write_chrome_trace_file(const std::string& path, std::size_t last_n = 0);

/// Fault-triggered snapshot dump. Returns the path written, or "" when
/// skipped (no JMB_FLIGHT_DUMP_DIR, recording disabled, dump budget
/// exhausted, or I/O failure). `reason` lands in the filename and in a
/// trace metadata instant, so a dump directory tells the story by itself.
std::string trigger_dump(const char* reason);

/// Dumps written so far this process (test/report hook).
[[nodiscard]] std::size_t dumps_written();

/// Test hooks: override the dump directory (empty string restores the
/// environment-driven default) and reset the dump budget.
void set_dump_dir_for_test(std::string dir);
void reset_dump_count_for_test();

}  // namespace jmb::obs::flight
