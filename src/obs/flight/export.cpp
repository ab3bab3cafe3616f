#include "obs/flight/export.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "engine/env.h"
#include "obs/flight/recorder.h"
#include "obs/json.h"

namespace jmb::obs::flight {

namespace {

struct FlowPoint {
  double ts_us = 0.0;
  std::uint32_t tid = 0;
};

void append_event_head(std::string& out, std::string_view name,
                       const char* cat, const char* ph, double ts_us,
                       std::uint32_t tid) {
  out += "{\"name\":";
  append_json_string(out, name);
  out += ",\"cat\":\"";
  out += cat;
  out += "\",\"ph\":\"";
  out += ph;
  out += "\",\"ts\":";
  append_json_double(out, ts_us);
  out += ",\"pid\":0,\"tid\":";
  out += std::to_string(tid);
}

}  // namespace

std::string chrome_trace_json(std::size_t last_n) {
  FlightRecorder& rec = FlightRecorder::instance();
  const auto threads = rec.snapshot_all(last_n);

  std::string out;
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };

  // Spans that share a flow id, in (flow, ts) order, for the flow pass.
  std::map<std::uint64_t, std::vector<FlowPoint>> flows;

  for (const auto& th : threads) {
    for (const FlightRecord& r : th.records) {
      const double ts_us = ticks_to_us(r.tsc);
      const std::string_view name = rec.name_of(r.name);
      switch (r.type) {
        case EventType::kSpan: {
          sep();
          append_event_head(out, name, "stage", "X", ts_us, th.tid);
          out += ",\"dur\":";
          append_json_double(out, tick_delta_us(r.value));
          if (r.flow != kNoFlow) {
            out += ",\"args\":{\"flow\":";
            out += std::to_string(r.flow);
            out += '}';
            flows[r.flow].push_back({ts_us, th.tid});
          }
          out += '}';
          break;
        }
        case EventType::kInstant: {
          sep();
          append_event_head(out, name, "instant", "i", ts_us, th.tid);
          out += ",\"s\":\"t\",\"args\":{";
          if (r.flow != kNoFlow) {
            out += "\"flow\":";
            out += std::to_string(r.flow);
            out += ',';
          }
          out += "\"value\":";
          out += std::to_string(r.value);
          out += "}}";
          break;
        }
        case EventType::kCounter: {
          double v = 0.0;
          std::memcpy(&v, &r.value, sizeof v);
          sep();
          append_event_head(out, name, "counter", "C", ts_us, th.tid);
          out += ",\"args\":{\"value\":";
          append_json_double(out, v);
          out += "}}";
          break;
        }
      }
    }
  }

  // Causal chains: one s -> t... -> f sequence per flow id that spans
  // more than one event, binding the item's journey across threads.
  for (auto& [flow, points] : flows) {
    if (points.size() < 2) continue;
    std::stable_sort(points.begin(), points.end(),
                     [](const FlowPoint& a, const FlowPoint& b) {
                       return a.ts_us < b.ts_us;
                     });
    for (std::size_t i = 0; i < points.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == points.size() ? "f" : "t");
      sep();
      append_event_head(out, "item", "flow", ph, points[i].ts_us,
                        points[i].tid);
      out += ",\"id\":";
      out += std::to_string(flow);
      out += '}';
    }
  }

  out += "]}\n";
  return out;
}

bool write_chrome_trace_file(const std::string& path, std::size_t last_n) {
  const std::string text = chrome_trace_json(last_n);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "[flight] cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "[flight] short write to '%s'\n", path.c_str());
  }
  return ok;
}

namespace {

struct DumpState {
  std::mutex mu;
  std::size_t written = 0;
  bool dir_overridden = false;
  std::string dir_override;
};

DumpState& dump_state() {
  static DumpState* g = new DumpState();
  return *g;
}

std::string dump_dir_locked(const DumpState& st) {
  if (st.dir_overridden) return st.dir_override;
  const char* env = std::getenv("JMB_FLIGHT_DUMP_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

std::size_t max_dumps() {
  static bool warned = false;
  return static_cast<std::size_t>(
      engine::env_u64("JMB_FLIGHT_MAX_DUMPS", 4, /*min_one=*/false, warned));
}

}  // namespace

std::string trigger_dump(const char* reason) {
  FlightRecorder& rec = FlightRecorder::instance();
  if (!rec.enabled()) return "";
  DumpState& st = dump_state();
  std::lock_guard<std::mutex> lock(st.mu);
  const std::string dir = dump_dir_locked(st);
  if (dir.empty() || st.written >= max_dumps()) return "";

  // Mark the trigger in the calling thread's own ring so the dump is
  // self-describing, then snapshot everything.
  instant(std::string("dump/") + reason);
  ::mkdir(dir.c_str(), 0755);  // best-effort; open() below reports errors
  std::string path = dir;
  path += "/flight_";
  path += reason;
  path += '_';
  path += std::to_string(st.written);
  path += ".json";
  if (!write_chrome_trace_file(path, rec.ring_capacity())) return "";
  ++st.written;
  std::fprintf(stderr, "[flight] dumped trace to %s (%s)\n", path.c_str(),
               reason);
  return path;
}

std::size_t dumps_written() {
  DumpState& st = dump_state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.written;
}

void set_dump_dir_for_test(std::string dir) {
  DumpState& st = dump_state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.dir_overridden = !dir.empty();
  st.dir_override = std::move(dir);
}

void reset_dump_count_for_test() {
  DumpState& st = dump_state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.written = 0;
}

}  // namespace jmb::obs::flight
