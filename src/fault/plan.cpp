#include "fault/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "dsp/rng.h"
#include "obs/json.h"

namespace jmb::fault {

namespace {

struct KindName {
  FaultKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kApCrash, "ap_crash"},
    {FaultKind::kApRestart, "ap_restart"},
    {FaultKind::kSyncLoss, "sync_loss"},
    {FaultKind::kSyncCorrupt, "sync_corrupt"},
    {FaultKind::kPhaseJump, "phase_jump"},
    {FaultKind::kCfoStep, "cfo_step"},
    {FaultKind::kStaleChannel, "stale_channel"},
    {FaultKind::kBackhaulLoss, "backhaul_loss"},
    {FaultKind::kBackhaulDelay, "backhaul_delay"},
};

bool set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

/// A whole number that converts to a 64-bit integer without overflow.
bool is_u64(double x) { return x >= 0.0 && x < 0x1p64 && std::floor(x) == x; }

std::string_view fault_kind_name(FaultKind k) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == k) return kn.name;
  }
  return "unknown";
}

}  // namespace

bool fault_kind_from_name(std::string_view name, FaultKind& out) {
  for (const KindName& kn : kKindNames) {
    if (kn.name == name) {
      out = kn.kind;
      return true;
    }
  }
  return false;
}

bool fault_kind_is_window(FaultKind k) {
  switch (k) {
    case FaultKind::kApCrash:
    case FaultKind::kSyncLoss:
    case FaultKind::kSyncCorrupt:
    case FaultKind::kStaleChannel:
    case FaultKind::kBackhaulLoss:
    case FaultKind::kBackhaulDelay:
      return true;
    case FaultKind::kApRestart:
    case FaultKind::kPhaseJump:
    case FaultKind::kCfoStep:
      return false;
  }
  return false;
}

double FaultEvent::end_s() const {
  if (!fault_kind_is_window(kind) || duration_s <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return t_s + duration_s;
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events, std::uint64_t seed)
    : events_(std::move(events)), seed_(seed) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.t_s < b.t_s;
                   });
}

FaultPlan FaultPlan::from_json(const obs::JsonValue& doc, std::string* error) {
  if (error) error->clear();
  if (!doc.is_object()) {
    set_error(error, "fault plan: document is not an object");
    return {};
  }
  if (const obs::JsonValue* schema = doc.get("schema")) {
    if (!schema->is_string() ||
        schema->as_string() != "jmb.fault_plan.v1") {
      set_error(error, "fault plan: schema is not jmb.fault_plan.v1");
      return {};
    }
  }
  std::uint64_t seed = 1;
  if (const obs::JsonValue* s = doc.get("seed")) {
    if (!s->is_number() || !is_u64(s->as_number())) {
      set_error(error,
                "fault plan: 'seed' must be a non-negative integer below 2^64");
      return {};
    }
    seed = static_cast<std::uint64_t>(s->as_number());
  }
  const obs::JsonValue* events = doc.get("events");
  if (events == nullptr || !events->is_array()) {
    set_error(error, "fault plan: missing 'events' array");
    return {};
  }
  std::vector<FaultEvent> parsed;
  parsed.reserve(events->as_array().size());
  for (std::size_t i = 0; i < events->as_array().size(); ++i) {
    const obs::JsonValue& e = events->as_array()[i];
    const std::string at = "fault plan: events[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      set_error(error, at + " is not an object");
      return {};
    }
    const obs::JsonValue* kind = e.get("kind");
    FaultEvent ev;
    if (kind == nullptr || !kind->is_string() ||
        !fault_kind_from_name(kind->as_string(), ev.kind)) {
      set_error(error, at + ": unknown or missing 'kind'");
      return {};
    }
    const obs::JsonValue* t = e.get("t");
    if (t == nullptr || !t->is_number() || t->as_number() < 0.0 ||
        !std::isfinite(t->as_number())) {
      set_error(error, at + ": 't' must be a finite non-negative number");
      return {};
    }
    ev.t_s = t->as_number();
    if (const obs::JsonValue* ap = e.get("ap")) {
      if (!ap->is_number() || !is_u64(ap->as_number())) {
        set_error(error,
                  at + ": 'ap' must be a non-negative integer below 2^64");
        return {};
      }
      ev.ap = static_cast<std::size_t>(ap->as_number());
    }
    if (const obs::JsonValue* d = e.get("duration")) {
      if (!d->is_number() || d->as_number() < 0.0 ||
          !std::isfinite(d->as_number())) {
        set_error(error, at + ": 'duration' must be finite and non-negative");
        return {};
      }
      ev.duration_s = d->as_number();
    }
    if (const obs::JsonValue* m = e.get("magnitude")) {
      if (!m->is_number() || !std::isfinite(m->as_number())) {
        set_error(error, at + ": 'magnitude' must be a finite number");
        return {};
      }
      ev.magnitude = m->as_number();
    }
    if (const obs::JsonValue* p = e.get("probability")) {
      if (!p->is_number() || p->as_number() < 0.0 || p->as_number() > 1.0) {
        set_error(error, at + ": 'probability' must be in [0, 1]");
        return {};
      }
      ev.probability = p->as_number();
    }
    parsed.push_back(ev);
  }
  return FaultPlan(std::move(parsed), seed);
}

FaultPlan FaultPlan::load(const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    set_error(error, "fault plan: cannot open '" + path + "'");
    return {};
  }
  std::string text;
  char buf[1 << 12];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    set_error(error, "fault plan: read failure on '" + path + "'");
    return {};
  }
  std::string parse_err;
  const obs::JsonValue doc = obs::parse_json(text, &parse_err);
  if (doc.is_null() && !parse_err.empty()) {
    set_error(error, "fault plan: " + path + ": " + parse_err);
    return {};
  }
  return from_json(doc, error);
}

std::string FaultPlan::to_json() const {
  obs::JsonArray events;
  events.reserve(events_.size());
  for (const FaultEvent& ev : events_) {
    obs::JsonObject e;
    e.emplace_back("kind", std::string(fault_kind_name(ev.kind)));
    e.emplace_back("t", ev.t_s);
    e.emplace_back("ap", static_cast<double>(ev.ap));
    if (ev.duration_s > 0.0) e.emplace_back("duration", ev.duration_s);
    if (ev.magnitude != 0.0) e.emplace_back("magnitude", ev.magnitude);
    if (ev.probability != 1.0) e.emplace_back("probability", ev.probability);
    events.emplace_back(std::move(e));
  }
  obs::JsonObject doc;
  doc.emplace_back("schema", "jmb.fault_plan.v1");
  doc.emplace_back("seed", static_cast<double>(seed_));
  doc.emplace_back("events", std::move(events));
  return obs::JsonValue(std::move(doc)).dump() + "\n";
}

FaultPlan FaultPlan::single_crash(std::size_t ap, double t_s, double outage_s,
                                  std::uint64_t seed) {
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::kApCrash, t_s, ap, outage_s, 0.0, 1.0});
  return FaultPlan(std::move(events), seed);
}

FaultPlan FaultPlan::random_crashes(double rate_hz, double duration_s,
                                    std::size_t n_aps, double outage_s,
                                    std::uint64_t seed) {
  std::vector<FaultEvent> events;
  if (rate_hz > 0.0 && n_aps > 0) {
    Rng rng(seed ^ 0x66617578756c74ull);  // distinct stream from the session
    double t = 0.0;
    while (true) {
      // Exponential inter-arrival gap at rate_hz.
      t += -std::log(std::max(rng.uniform(), 1e-300)) / rate_hz;
      if (t >= duration_s) break;
      const auto ap = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n_aps) - 1));
      events.push_back({FaultKind::kApCrash, t, ap, outage_s, 0.0, 1.0});
    }
  }
  return FaultPlan(std::move(events), seed);
}

}  // namespace jmb::fault
