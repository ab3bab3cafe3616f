#include "obs/export.h"

#include <cstdio>

// GCC 12 misfires -Warray-bounds / -Wstringop-overread on the (unreachable
// but not provably so) _M_realloc_insert path of
// vector<pair<string, JsonValue>> at -O2; which emplace site trips it
// shifts with inlining, so suppress the pair for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif

namespace jmb::obs {

namespace {

const char* kind_name(const std::variant<Counter, Gauge, Histogram>& m) {
  switch (m.index()) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

const char* class_name(MetricClass cls) {
  return cls == MetricClass::kTiming ? "timing" : "physics";
}

JsonValue metric_to_json(const MetricRegistry::Entry& e) {
  JsonObject m;
  m.emplace_back("name", e.name);
  m.emplace_back("kind", kind_name(e.metric));
  m.emplace_back("class", class_name(e.cls));
  if (const auto* c = std::get_if<Counter>(&e.metric)) {
    m.emplace_back("value", c->value());
  } else if (const auto* g = std::get_if<Gauge>(&e.metric)) {
    m.emplace_back("value", g->value());
  } else {
    const auto& h = std::get<Histogram>(e.metric);
    m.emplace_back("count", h.count());
    m.emplace_back("sum", h.sum());
    m.emplace_back("min", h.min());
    m.emplace_back("max", h.max());
    m.emplace_back("p50", h.quantile(0.50));
    m.emplace_back("p90", h.quantile(0.90));
    m.emplace_back("p99", h.quantile(0.99));
    JsonArray bounds;
    for (const double b : h.bounds()) bounds.emplace_back(b);
    m.emplace_back("bounds", std::move(bounds));
    JsonArray counts;
    for (const std::uint64_t c : h.counts()) counts.emplace_back(c);
    m.emplace_back("counts", std::move(counts));
  }
  return JsonValue(std::move(m));
}

}  // namespace

JsonValue bench_result_doc(const BenchRunInfo& info, const MetricRegistry& reg,
                           bool include_timing) {
  JsonObject root;
  root.emplace_back("schema", "jmb.bench_result.v1");
  root.emplace_back("figure", info.figure);
  root.emplace_back("seed", info.seed);
  JsonObject params;
  for (const auto& [k, v] : info.params) params.emplace_back(k, v);
  root.emplace_back("params", std::move(params));
  if (info.has_faults) {
    JsonObject faults;
    faults.emplace_back("plan", info.fault_plan);
    faults.emplace_back("events", static_cast<double>(info.fault_events));
    for (const auto& [k, v] : info.fault_stats) faults.emplace_back(k, v);
    root.emplace_back("faults", std::move(faults));
  }
  if (info.has_metro) {
    const MetroSummary& m = info.metro;
    JsonObject metro;
    metro.emplace_back("cells", static_cast<double>(m.cells));
    metro.emplace_back("users_per_cell", static_cast<double>(m.users_per_cell));
    metro.emplace_back("churn_rate_hz", m.churn_rate_hz);
    metro.emplace_back("aggregate_goodput_mbps", m.aggregate_goodput_mbps);
    metro.emplace_back("p99_frame_latency_s", m.p99_frame_latency_s);
    metro.emplace_back("arrivals", static_cast<double>(m.arrivals));
    metro.emplace_back("departures", static_cast<double>(m.departures));
    metro.emplace_back("handoffs", static_cast<double>(m.handoffs));
    metro.emplace_back("blocked_handoffs",
                       static_cast<double>(m.blocked_handoffs));
    metro.emplace_back("lead_elections",
                       static_cast<double>(m.lead_elections));
    metro.emplace_back("quarantines", static_cast<double>(m.quarantines));
    JsonArray per_cell;
    for (const double g : m.per_cell_goodput_mbps) per_cell.emplace_back(g);
    metro.emplace_back("per_cell_goodput_mbps", std::move(per_cell));
    root.emplace_back("metro", std::move(metro));
  }
  if (info.has_traffic) {
    const TrafficSummary& tr = info.traffic;
    JsonObject traffic;
    traffic.emplace_back("profile", tr.profile);
    traffic.emplace_back("policy", tr.policy);
    traffic.emplace_back("offered_load", tr.offered_load);
    traffic.emplace_back("users", static_cast<double>(tr.users));
    traffic.emplace_back("flows", static_cast<double>(tr.flows));
    traffic.emplace_back("offered_packets",
                         static_cast<double>(tr.offered_packets));
    traffic.emplace_back("delivered_packets",
                         static_cast<double>(tr.delivered_packets));
    traffic.emplace_back("dropped_packets",
                         static_cast<double>(tr.dropped_packets));
    traffic.emplace_back("deadline_misses",
                         static_cast<double>(tr.deadline_misses));
    traffic.emplace_back("aggregated_mpdus",
                         static_cast<double>(tr.aggregated_mpdus));
    traffic.emplace_back("jain_fairness", tr.jain_fairness);
    traffic.emplace_back("goodput_mbps", tr.goodput_mbps);
    traffic.emplace_back("p50_latency_s", tr.p50_latency_s);
    traffic.emplace_back("p99_latency_s", tr.p99_latency_s);
    root.emplace_back("traffic", std::move(traffic));
  }
  if (info.has_precoder) {
    const PrecoderSummary& pc = info.precoder;
    JsonObject precoder;
    precoder.emplace_back("headline_kind", pc.headline_kind);
    precoder.emplace_back("staleness", pc.staleness);
    precoder.emplace_back("feedback_bits",
                          static_cast<double>(pc.feedback_bits));
    precoder.emplace_back("zf_goodput_mbps", pc.zf_goodput_mbps);
    precoder.emplace_back("rzf_goodput_mbps", pc.rzf_goodput_mbps);
    precoder.emplace_back("conj_goodput_mbps", pc.conj_goodput_mbps);
    precoder.emplace_back("rzf_over_zf", pc.rzf_over_zf);
    precoder.emplace_back("mean_condition", pc.mean_condition);
    root.emplace_back("precoder", std::move(precoder));
  }
  JsonArray metrics;
  for (const MetricRegistry::Entry& e : reg.entries()) {
    if (e.cls == MetricClass::kTiming && !include_timing) continue;
    metrics.push_back(metric_to_json(e));
  }
  root.emplace_back("metrics", std::move(metrics));
  return JsonValue(std::move(root));
}

std::string bench_result_json(const BenchRunInfo& info,
                              const MetricRegistry& reg, bool include_timing) {
  std::string out = bench_result_doc(info, reg, include_timing).dump();
  out += '\n';
  return out;
}

std::string registry_csv(const MetricRegistry& reg, bool include_timing) {
  std::string out = "name,kind,class,count,sum,min,max,mean,p50,p90,p99\n";
  for (const MetricRegistry::Entry& e : reg.entries()) {
    if (e.cls == MetricClass::kTiming && !include_timing) continue;
    out += e.name;
    out += ',';
    out += kind_name(e.metric);
    out += ',';
    out += class_name(e.cls);
    if (const auto* h = std::get_if<Histogram>(&e.metric)) {
      out += ',';
      out += std::to_string(h->count());
      for (const double v : {h->sum(), h->min(), h->max(), h->mean(),
                             h->quantile(0.50), h->quantile(0.90),
                             h->quantile(0.99)}) {
        out += ',';
        append_json_double(out, v);
      }
    } else {
      const double v = e.metric.index() == 0
                           ? std::get<Counter>(e.metric).value()
                           : std::get<Gauge>(e.metric).value();
      out += ",,";  // count empty
      append_json_double(out, v);
      out += ",,,,,,";  // min..p99 empty
    }
    out += '\n';
  }
  return out;
}

namespace {

const char* json_type_name(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "boolean";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    default: return "object";
  }
}

bool type_matches(const std::string& want, const JsonValue& v) {
  if (want == "integer") {
    return v.is_number() &&
           v.as_number() == static_cast<double>(
                                static_cast<long long>(v.as_number()));
  }
  return want == json_type_name(v);
}

bool json_equal(const JsonValue& a, const JsonValue& b) {
  return a.dump() == b.dump();
}

void validate_at(const JsonValue& schema, const JsonValue& doc,
                 const std::string& path, std::vector<std::string>& errors) {
  if (!schema.is_object()) return;  // permissive: non-object schema = any

  if (const JsonValue* type = schema.get("type")) {
    bool ok = false;
    if (type->is_string()) {
      ok = type_matches(type->as_string(), doc);
    } else if (type->is_array()) {
      for (const JsonValue& t : type->as_array()) {
        if (t.is_string() && type_matches(t.as_string(), doc)) ok = true;
      }
    }
    if (!ok) {
      errors.push_back(path + ": expected type " + type->dump() + ", got " +
                       json_type_name(doc));
      return;  // deeper checks would only cascade
    }
  }

  if (const JsonValue* cv = schema.get("const")) {
    if (!json_equal(*cv, doc)) {
      errors.push_back(path + ": expected const " + cv->dump() + ", got " +
                       doc.dump());
    }
  }

  if (const JsonValue* en = schema.get("enum"); en && en->is_array()) {
    bool ok = false;
    for (const JsonValue& v : en->as_array()) {
      if (json_equal(v, doc)) ok = true;
    }
    if (!ok) errors.push_back(path + ": value " + doc.dump() + " not in enum");
  }

  if (doc.is_number()) {
    if (const JsonValue* lo = schema.get("minimum");
        lo && lo->is_number() && doc.as_number() < lo->as_number()) {
      errors.push_back(path + ": value " + doc.dump() + " below minimum " +
                       lo->dump());
    }
    if (const JsonValue* hi = schema.get("maximum");
        hi && hi->is_number() && doc.as_number() > hi->as_number()) {
      errors.push_back(path + ": value " + doc.dump() + " above maximum " +
                       hi->dump());
    }
  }

  if (doc.is_object()) {
    if (const JsonValue* req = schema.get("required"); req && req->is_array()) {
      for (const JsonValue& k : req->as_array()) {
        if (k.is_string() && !doc.get(k.as_string())) {
          errors.push_back(path + ": missing required member \"" +
                           k.as_string() + "\"");
        }
      }
    }
    if (const JsonValue* props = schema.get("properties");
        props && props->is_object()) {
      for (const auto& [key, sub] : props->as_object()) {
        if (const JsonValue* member = doc.get(key)) {
          validate_at(sub, *member, path + "." + key, errors);
        }
      }
    }
  }

  if (doc.is_array()) {
    if (const JsonValue* min_items = schema.get("minItems");
        min_items && min_items->is_number() &&
        static_cast<double>(doc.as_array().size()) < min_items->as_number()) {
      errors.push_back(path + ": fewer than " + min_items->dump() + " items");
    }
    if (const JsonValue* items = schema.get("items")) {
      std::size_t i = 0;
      for (const JsonValue& el : doc.as_array()) {
        validate_at(*items, el, path + "[" + std::to_string(i++) + "]",
                    errors);
      }
    }
  }
}

}  // namespace

std::vector<std::string> validate_schema(const JsonValue& schema,
                                         const JsonValue& doc) {
  std::vector<std::string> errors;
  validate_at(schema, doc, "$", errors);
  return errors;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  const bool ok = (n == text.size()) && closed;
  if (!ok) std::fprintf(stderr, "error: short write to '%s'\n", path.c_str());
  return ok;
}

}  // namespace jmb::obs
