// Post-mortem analysis of a flight-recorder trace or dump.
//
//   trace_stats trace.json
//
// Reads Chrome trace_event JSON (as written by obs/flight/export.h or a
// JMB_FLIGHT_DUMP_DIR dump) and prints:
//   - a per-stage table of span counts, total time and share;
//   - per-item end-to-end latency percentiles (p50/p90/p99), one item
//     per flow id, measured from its first span start to its last span
//     end;
//   - the slowest item's self vs untracked decomposition.
// Other events (instants, flow stitches, and the "C" counter samples of
// traces from older builds) count only toward the event total.
// Exit 0 on success, 1 when the trace holds no span events, 2 on
// usage/parse errors.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using jmb::obs::JsonValue;

bool read_file(const char* path, std::string& out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path);
    return false;
  }
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "error: read failure on '%s'\n", path);
  return ok;
}

struct NameAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
};

struct FlowAgg {
  double t_begin_us = 0.0;
  double t_end_us = 0.0;
  double self_us = 0.0;
  bool seen = false;

  void add(double ts, double dur) {
    if (!seen || ts < t_begin_us) t_begin_us = ts;
    if (!seen || ts + dur > t_end_us) t_end_us = ts + dur;
    seen = true;
    self_us += dur;
  }
  [[nodiscard]] double e2e_us() const { return t_end_us - t_begin_us; }
};

double nearest_rank(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return sorted[rank];
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s TRACE.json\n", argv[0]);
    return 2;
  }
  std::string text;
  if (!read_file(argv[1], text)) return 2;
  std::string err;
  const JsonValue doc = jmb::obs::parse_json(text, &err);
  if (doc.is_null()) {
    std::fprintf(stderr, "error: %s: %s\n", argv[1],
                 err.empty() ? "not a JSON document" : err.c_str());
    return 2;
  }
  const JsonValue* events = doc.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "error: %s: no traceEvents array\n", argv[1]);
    return 2;
  }

  // Aggregate the "X" spans by name. A flow id present in args binds the
  // span to one item's journey.
  std::map<std::string, NameAgg> stage_agg;
  std::map<std::uint64_t, FlowAgg> flows;
  std::uint64_t n_events = 0;
  std::uint64_t n_spans = 0;
  std::uint64_t n_instants = 0;

  for (const JsonValue& ev : events->as_array()) {
    if (!ev.is_object()) continue;
    ++n_events;
    const JsonValue* ph = ev.get("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    if (ph->as_string() == "i") ++n_instants;
    if (ph->as_string() != "X") continue;
    const JsonValue* name = ev.get("name");
    const JsonValue* ts = ev.get("ts");
    const JsonValue* dur = ev.get("dur");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        !ts->is_number() || dur == nullptr || !dur->is_number()) {
      continue;
    }
    auto& agg = stage_agg[name->as_string()];
    ++agg.count;
    agg.total_us += dur->as_number();
    ++n_spans;

    if (const JsonValue* args = ev.get("args")) {
      if (const JsonValue* flow = args->get("flow")) {
        if (flow->is_number()) {
          flows[static_cast<std::uint64_t>(flow->as_number())].add(
              ts->as_number(), dur->as_number());
        }
      }
    }
  }

  if (n_spans == 0) {
    std::fprintf(stderr, "%s: no span events (empty or non-flight trace)\n",
                 argv[1]);
    return 1;
  }

  double self_total = 0.0;
  for (const auto& [name, agg] : stage_agg) self_total += agg.total_us;

  std::printf("trace: %s\n", argv[1]);
  std::printf(
      "events: %" PRIu64 " (%" PRIu64 " spans, %" PRIu64
      " instants), %zu item flows\n\n",
      n_events, n_spans, n_instants, flows.size());

  std::printf("%-28s %10s %14s %8s\n", "span", "count", "total ms",
              "share");
  for (const auto& [name, agg] : stage_agg) {
    std::printf("%-28s %10" PRIu64 " %14.3f %7.1f%%\n", name.c_str(),
                agg.count, agg.total_us / 1e3,
                self_total > 0.0 ? 100.0 * agg.total_us / self_total : 0.0);
  }
  std::printf("%-28s %10s %14.3f %7.1f%%\n", "total", "", self_total / 1e3,
              self_total > 0.0 ? 100.0 : 0.0);

  if (!flows.empty()) {
    std::vector<double> e2e;
    e2e.reserve(flows.size());
    std::uint64_t slowest_flow = 0;
    double slowest_e2e = -1.0;
    for (const auto& [flow, agg] : flows) {
      e2e.push_back(agg.e2e_us());
      if (agg.e2e_us() > slowest_e2e) {
        slowest_e2e = agg.e2e_us();
        slowest_flow = flow;
      }
    }
    std::sort(e2e.begin(), e2e.end());
    std::printf("\nper-item end-to-end latency (%zu items):\n", e2e.size());
    std::printf("  p50 %.1f us   p90 %.1f us   p99 %.1f us   max %.1f us\n",
                nearest_rank(e2e, 0.50), nearest_rank(e2e, 0.90),
                nearest_rank(e2e, 0.99), e2e.back());
    const FlowAgg& worst = flows[slowest_flow];
    std::printf(
        "  slowest item: flow %" PRIu64
        " (trial %" PRIu64 ", seq %" PRIu64
        "): %.1f us = %.1f us self + %.1f us untracked\n",
        slowest_flow, slowest_flow >> 40,
        static_cast<std::uint64_t>(slowest_flow & ((1ull << 40) - 1)),
        worst.e2e_us(), worst.self_us, worst.e2e_us() - worst.self_us);
  }
  return 0;
}
