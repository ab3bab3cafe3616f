// Perf-trajectory diff of two jmb.bench_result.v1 artifacts.
//
//   bench_compare BASELINE.json CANDIDATE.json [--timing-tol=REL]
//
// The repo's determinism contract says physics metrics are byte-stable:
// same figure, same seed => the physics-class entries (and the run
// header: figure, seed, params, faults) must serialize *identically*,
// and any drift is a regression to explain, not noise to tolerate. The
// one exception is faults.plan, a file path: only its final component is
// compared, so a plan given by an absolute path matches the baseline's
// relative one.
// Timing-class entries are machine-dependent wall-clock; they are
// ignored unless --timing-tol=REL is given, in which case every numeric
// leaf must agree within that relative tolerance
// (|a-b| <= REL * max(|a|,|b|,1e-9)).
//
// Exit codes tell CI *what kind* of drift it is looking at:
//   0  the artifacts match;
//   1  physics (or tolerated-timing) VALUES differ — same experiment,
//      different numbers: a determinism/physics regression;
//   2  usage/IO/parse errors;
//   3  STRUCTURAL drift — the artifacts are not the same experiment or
//      shape (run-header keys, metric count/name/order, summary-object
//      presence): the baseline needs regenerating, not the physics
//      explaining. Structural drift wins over exit 1 when both occur.
// CI runs this against the checked-in BENCH_*baseline.json files; the
// baselines are toolchain-pinned (gcc, x86-64, default preset) — see
// EXPERIMENTS.md for the regeneration command.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
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

std::string dump_of(const JsonValue* v) { return v ? v->dump() : "<absent>"; }

/// Run-header field `key` as compared. `faults.plan` names the fault-plan
/// file, and the same plan reached by another path (relative from the
/// repo root, absolute from a build tree) is the same experiment, so only
/// its final path component takes part; every other field is compared
/// verbatim.
std::string header_of(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.get(key);
  if (v == nullptr || std::strcmp(key, "faults") != 0 || !v->is_object()) {
    return dump_of(v);
  }
  jmb::obs::JsonObject fields = v->as_object();
  for (auto& [name, value] : fields) {
    if (name != "plan" || !value.is_string()) continue;
    const std::string& path = value.as_string();
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) value = path.substr(slash + 1);
  }
  return JsonValue(std::move(fields)).dump();
}

/// Recursive compare with a relative tolerance on numbers; everything
/// else must match exactly. Fills `where` with the first mismatch path.
bool close_enough(const JsonValue& a, const JsonValue& b, double tol,
                  const std::string& path, std::string& where) {
  if (a.kind() != b.kind()) {
    where = path + ": kind mismatch";
    return false;
  }
  switch (a.kind()) {
    case JsonValue::Kind::kNumber: {
      const double x = a.as_number();
      const double y = b.as_number();
      const double scale = std::max({std::fabs(x), std::fabs(y), 1e-9});
      if (std::fabs(x - y) <= tol * scale) return true;
      char buf[128];
      std::snprintf(buf, sizeof buf, ": %.6g vs %.6g (rel %.3g > %.3g)", x, y,
                    std::fabs(x - y) / scale, tol);
      where = path + buf;
      return false;
    }
    case JsonValue::Kind::kArray: {
      if (a.as_array().size() != b.as_array().size()) {
        where = path + ": array length mismatch";
        return false;
      }
      for (std::size_t i = 0; i < a.as_array().size(); ++i) {
        if (!close_enough(a.as_array()[i], b.as_array()[i], tol,
                          path + "[" + std::to_string(i) + "]", where)) {
          return false;
        }
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      if (a.as_object().size() != b.as_object().size()) {
        where = path + ": object size mismatch";
        return false;
      }
      for (std::size_t i = 0; i < a.as_object().size(); ++i) {
        const auto& [ka, va] = a.as_object()[i];
        const auto& [kb, vb] = b.as_object()[i];
        if (ka != kb) {
          where = path + ": key '" + ka + "' vs '" + kb + "'";
          return false;
        }
        if (!close_enough(va, vb, tol, path + "." + ka, where)) return false;
      }
      return true;
    }
    default:
      if (a.dump() == b.dump()) return true;
      where = path + ": " + a.dump() + " vs " + b.dump();
      return false;
  }
}

struct Entry {
  std::string name;
  std::string cls;
  const JsonValue* value = nullptr;
};

bool collect_metrics(const JsonValue& doc, const char* which,
                     std::vector<Entry>& out) {
  const JsonValue* metrics = doc.get("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    std::fprintf(stderr, "error: %s: no metrics array\n", which);
    return false;
  }
  for (const JsonValue& m : metrics->as_array()) {
    Entry e;
    const JsonValue* name = m.get("name");
    const JsonValue* cls = m.get("class");
    e.name = name != nullptr && name->is_string() ? name->as_string() : "?";
    e.cls = cls != nullptr && cls->is_string() ? cls->as_string() : "?";
    e.value = &m;
    out.push_back(e);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double timing_tol = -1.0;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--timing-tol=", 13) == 0) {
      char* end = nullptr;
      timing_tol = std::strtod(argv[i] + 13, &end);
      if (end == nullptr || *end != '\0' || !(timing_tol >= 0.0)) {
        std::fprintf(stderr, "error: bad --timing-tol value '%s'\n",
                     argv[i] + 13);
        return 2;
      }
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s BASELINE.json CANDIDATE.json [--timing-tol=REL]\n",
                 argv[0]);
    return 2;
  }

  std::string base_text;
  std::string cand_text;
  if (!read_file(files[0], base_text) || !read_file(files[1], cand_text)) {
    return 2;
  }
  std::string err;
  const JsonValue base = jmb::obs::parse_json(base_text, &err);
  if (base.is_null()) {
    std::fprintf(stderr, "error: %s: %s\n", files[0], err.c_str());
    return 2;
  }
  const JsonValue cand = jmb::obs::parse_json(cand_text, &err);
  if (cand.is_null()) {
    std::fprintf(stderr, "error: %s: %s\n", files[1], err.c_str());
    return 2;
  }

  int failures = 0;
  const auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "MISMATCH: %s\n", msg.c_str());
    ++failures;
  };
  int structural = 0;
  const auto drift = [&](const std::string& msg) {
    std::fprintf(stderr, "STRUCTURAL: %s\n", msg.c_str());
    ++structural;
  };

  // Run header: these define "the same experiment". Any drift here makes
  // the physics comparison meaningless — it is structural, not a physics
  // value regression.
  for (const char* key : {"schema", "figure", "seed", "params", "faults"}) {
    const std::string a = header_of(base, key);
    const std::string b = header_of(cand, key);
    if (a != b) {
      drift(std::string(key) + ": " + a + " vs " + b);
    }
  }
  const JsonValue* schema = base.get("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "jmb.bench_result.v1") {
    std::fprintf(stderr, "error: %s: not a jmb.bench_result.v1 artifact\n",
                 files[0]);
    return 2;
  }

  std::vector<Entry> base_metrics;
  std::vector<Entry> cand_metrics;
  if (!collect_metrics(base, files[0], base_metrics) ||
      !collect_metrics(cand, files[1], cand_metrics)) {
    return 2;
  }

  // Physics: byte-identical, in export order (the registry order is part
  // of the determinism contract).
  std::vector<const Entry*> base_phys;
  std::vector<const Entry*> cand_phys;
  for (const Entry& e : base_metrics) {
    if (e.cls == "physics") base_phys.push_back(&e);
  }
  for (const Entry& e : cand_metrics) {
    if (e.cls == "physics") cand_phys.push_back(&e);
  }
  if (base_phys.size() != cand_phys.size()) {
    drift("physics metric count: " + std::to_string(base_phys.size()) +
          " vs " + std::to_string(cand_phys.size()));
  }
  std::size_t phys_checked = 0;
  for (std::size_t i = 0; i < std::min(base_phys.size(), cand_phys.size());
       ++i) {
    if (base_phys[i]->name != cand_phys[i]->name) {
      // A renamed/reordered metric is a shape change, not a value drift.
      drift("physics metric name: '" + base_phys[i]->name + "' vs '" +
            cand_phys[i]->name + "'");
      break;
    }
    const std::string a = base_phys[i]->value->dump();
    const std::string b = cand_phys[i]->value->dump();
    if (a != b) {
      fail("physics metric '" + base_phys[i]->name + "': " + a + " vs " + b);
      break;  // the first divergent metric is the story; stop the spam
    }
    ++phys_checked;
  }

  // Timing: wall-clock, only meaningful under an explicit tolerance.
  std::size_t timing_checked = 0;
  if (timing_tol >= 0.0) {
    std::vector<const Entry*> base_timing;
    std::vector<const Entry*> cand_timing;
    for (const Entry& e : base_metrics) {
      if (e.cls == "timing") base_timing.push_back(&e);
    }
    for (const Entry& e : cand_metrics) {
      if (e.cls == "timing") cand_timing.push_back(&e);
    }
    if (base_timing.size() != cand_timing.size()) {
      drift("timing metric count: " + std::to_string(base_timing.size()) +
            " vs " + std::to_string(cand_timing.size()));
    }
    for (std::size_t i = 0;
         i < std::min(base_timing.size(), cand_timing.size()); ++i) {
      if (base_timing[i]->name != cand_timing[i]->name) {
        drift("timing metric order: '" + base_timing[i]->name + "' vs '" +
              cand_timing[i]->name + "'");
        break;
      }
      std::string where;
      if (!close_enough(*base_timing[i]->value, *cand_timing[i]->value,
                        timing_tol, base_timing[i]->name, where)) {
        fail("timing " + where);
      }
      ++timing_checked;
    }
  }

  if (structural > 0) {
    std::fprintf(stderr,
                 "FAIL (structural): %s vs %s: %d drift(s), %d value "
                 "mismatch(es) — regenerate the baseline\n",
                 files[0], files[1], structural, failures);
    return 3;
  }
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %s vs %s: %d mismatch(es)\n", files[0],
                 files[1], failures);
    return 1;
  }
  std::printf("PASS: %zu physics metrics byte-identical", phys_checked);
  if (timing_tol >= 0.0) {
    std::printf(", %zu timing metrics within %.3g", timing_checked,
                timing_tol);
  } else {
    std::printf(" (timing ignored; pass --timing-tol=REL to check)");
  }
  std::printf("\n");
  return 0;
}
