#include "obs/bench_schema.hpp"

#include <algorithm>
#include <cmath>

namespace psmsys::obs {

namespace {

class Checker {
 public:
  explicit Checker(std::vector<std::string>& out) : out_(out) {}

  void fail(const std::string& where, const std::string& why) {
    out_.push_back(where + ": " + why);
  }

  const json::Value* require(const json::Value& obj, const std::string& where,
                             const char* key, json::Type type) {
    const json::Value* v = obj.find(key);
    if (!v) {
      fail(where, std::string("missing required key \"") + key + "\"");
      return nullptr;
    }
    if (v->type() != type) {
      fail(where + "." + key, "wrong type");
      return nullptr;
    }
    return v;
  }

  /// Optional key: absent is fine, wrong type is a violation.
  const json::Value* optional(const json::Value& obj, const std::string& where,
                              const char* key, json::Type type) {
    const json::Value* v = obj.find(key);
    if (!v) return nullptr;
    if (v->type() != type) {
      fail(where + "." + key, "wrong type");
      return nullptr;
    }
    return v;
  }

  bool check_int(const json::Value& v, const std::string& where, double min) {
    if (!v.is_number() || v.as_number() != std::floor(v.as_number())) {
      fail(where, "expected integer");
      return false;
    }
    if (v.as_number() < min) {
      fail(where, "below minimum " + std::to_string(static_cast<long>(min)));
      return false;
    }
    return true;
  }

 private:
  std::vector<std::string>& out_;
};

void check_env(Checker& c, const json::Value& env) {
  const std::string w = "env";
  c.require(env, w, "compiler", json::Type::String);
  c.require(env, w, "build_type", json::Type::String);
  c.require(env, w, "os", json::Type::String);
  c.require(env, w, "arch", json::Type::String);
  if (const auto* ht = c.require(env, w, "hardware_threads",
                                 json::Type::Number)) {
    c.check_int(*ht, w + ".hardware_threads", 1);
  }
}

void check_speedups(Checker& c, const json::Value& speedups,
                    const std::string& where) {
  std::size_t i = 0;
  for (const json::Value& s : speedups.as_array()) {
    const std::string w = where + "[" + std::to_string(i++) + "]";
    if (!s.is_object()) {
      c.fail(w, "expected object");
      continue;
    }
    c.require(s, w, "name", json::Type::String);
    const json::Value* points = c.require(s, w, "points", json::Type::Array);
    if (!points) continue;
    if (points->as_array().empty()) {
      c.fail(w + ".points", "speedup series must not be empty");
    }
    std::size_t j = 0;
    for (const json::Value& p : points->as_array()) {
      const std::string pw = w + ".points[" + std::to_string(j++) + "]";
      if (!p.is_object()) {
        c.fail(pw, "expected object");
        continue;
      }
      if (const auto* procs = c.require(p, pw, "procs", json::Type::Number)) {
        c.check_int(*procs, pw + ".procs", 1);
      }
      if (const auto* sp = c.require(p, pw, "speedup", json::Type::Number)) {
        if (sp->as_number() <= 0) c.fail(pw + ".speedup", "must be positive");
      }
    }
  }
}

void check_tables(Checker& c, const json::Value& tables,
                  const std::string& where) {
  std::size_t i = 0;
  for (const json::Value& t : tables.as_array()) {
    const std::string w = where + "[" + std::to_string(i++) + "]";
    if (!t.is_object()) {
      c.fail(w, "expected object");
      continue;
    }
    c.require(t, w, "name", json::Type::String);
    const json::Value* cols = c.require(t, w, "columns", json::Type::Array);
    const json::Value* rows = c.require(t, w, "rows", json::Type::Array);
    std::size_t width = 0;
    if (cols) {
      width = cols->as_array().size();
      for (const json::Value& col : cols->as_array()) {
        if (!col.is_string()) c.fail(w + ".columns", "entries must be strings");
      }
    }
    if (rows) {
      std::size_t j = 0;
      for (const json::Value& row : rows->as_array()) {
        const std::string rw = w + ".rows[" + std::to_string(j++) + "]";
        if (!row.is_array()) {
          c.fail(rw, "expected array");
          continue;
        }
        if (cols && row.as_array().size() != width) {
          c.fail(rw, "row width does not match columns");
        }
        for (const json::Value& cell : row.as_array()) {
          if (!cell.is_string()) c.fail(rw, "cells must be strings");
        }
      }
    }
  }
}

void check_case(Checker& c, const json::Value& cs, const std::string& w) {
  c.require(cs, w, "name", json::Type::String);
  if (const auto* wall = c.require(cs, w, "wall_ns", json::Type::Number)) {
    if (wall->as_number() < 0) c.fail(w + ".wall_ns", "must be >= 0");
  }
  if (const auto* cpu = c.require(cs, w, "cpu_ns", json::Type::Number)) {
    if (cpu->as_number() < 0) c.fail(w + ".cpu_ns", "must be >= 0");
  }
  if (const auto* metrics = c.optional(cs, w, "metrics", json::Type::Object)) {
    for (const auto& [k, v] : metrics->as_object()) {
      if (!v.is_number()) {
        c.fail(w + ".metrics." + k, "metric values must be numbers");
      }
    }
  }
  if (const auto* speedups = c.optional(cs, w, "speedups", json::Type::Array)) {
    check_speedups(c, *speedups, w + ".speedups");
  }
  if (const auto* tables = c.optional(cs, w, "tables", json::Type::Array)) {
    check_tables(c, *tables, w + ".tables");
  }
  if (const auto* notes = c.optional(cs, w, "notes", json::Type::Array)) {
    for (const json::Value& n : notes->as_array()) {
      if (!n.is_string()) c.fail(w + ".notes", "entries must be strings");
    }
  }
}

}  // namespace

std::vector<std::string> validate_bench_json(const json::Value& doc) {
  std::vector<std::string> violations;
  Checker c(violations);
  if (!doc.is_object()) {
    c.fail("$", "top-level value must be an object");
    return violations;
  }
  if (const auto* ver = c.require(doc, "$", "schema_version",
                                  json::Type::Number)) {
    if (ver->as_number() != kBenchSchemaVersion) {
      c.fail("$.schema_version",
             "unsupported version (expected " +
                 std::to_string(kBenchSchemaVersion) + ")");
    }
  }
  c.require(doc, "$", "suite", json::Type::String);
  if (const auto* env = c.require(doc, "$", "env", json::Type::Object)) {
    check_env(c, *env);
  }
  if (const auto* cases = c.require(doc, "$", "cases", json::Type::Array)) {
    if (cases->as_array().empty()) {
      c.fail("$.cases", "must contain at least one case");
    }
    std::size_t i = 0;
    for (const json::Value& cs : cases->as_array()) {
      const std::string w = "$.cases[" + std::to_string(i++) + "]";
      if (!cs.is_object()) {
        c.fail(w, "expected object");
        continue;
      }
      check_case(c, cs, w);
    }
  }
  return violations;
}

std::vector<std::string> validate_serve_rollup(const json::Value& doc) {
  std::vector<std::string> violations;
  Checker c(violations);
  if (!doc.is_object()) {
    c.fail("$", "top-level value must be an object");
    return violations;
  }
  if (const auto* ver = c.require(doc, "$", "schema_version", json::Type::Number)) {
    if (ver->as_number() != kServeRollupSchemaVersion) {
      c.fail("$.schema_version", "unsupported version (expected " +
                                     std::to_string(kServeRollupSchemaVersion) + ")");
    }
  }
  if (const auto* kind = c.require(doc, "$", "kind", json::Type::String)) {
    if (kind->as_string() != "serve_rollup") {
      c.fail("$.kind", "expected \"serve_rollup\"");
    }
  }

  // Counters; collected for the accounting cross-checks below.
  const auto counter = [&](const char* key, double min) -> double {
    const json::Value* v = c.require(doc, "$", key, json::Type::Number);
    if (!v || !c.check_int(*v, std::string("$.") + key, min)) return 0.0;
    return v->as_number();
  };
  const double workers = counter("workers", 1);
  (void)workers;
  const double submitted = counter("submitted", 0);
  double rejected = 0.0;
  if (const auto* rej = c.require(doc, "$", "rejected", json::Type::Object)) {
    for (const char* key : {"queue_full", "draining"}) {
      if (const auto* v = c.require(*rej, "$.rejected", key, json::Type::Number)) {
        if (c.check_int(*v, std::string("$.rejected.") + key, 0)) rejected += v->as_number();
      }
    }
  }
  const double admitted = counter("admitted", 0);
  const double completed = counter("completed", 0);
  const double quarantined = counter("quarantined", 0);
  const double aborted = counter("aborted", 0);
  counter("retries", 0);
  if (const auto* wall = c.require(doc, "$", "wall_ns", json::Type::Number)) {
    if (wall->as_number() < 0) c.fail("$.wall_ns", "must be >= 0");
  }
  if (const auto* sps = c.require(doc, "$", "scenes_per_sec", json::Type::Number)) {
    if (sps->as_number() < 0) c.fail("$.scenes_per_sec", "must be >= 0");
  }
  if (const auto* lat = c.require(doc, "$", "latency_ns", json::Type::Object)) {
    for (const char* key : {"count", "p50_ns", "p90_ns", "p99_ns", "mean_ns", "max_ns"}) {
      if (const auto* v = c.require(*lat, "$.latency_ns", key, json::Type::Number)) {
        c.check_int(*v, std::string("$.latency_ns.") + key, 0);
      }
    }
  }
  if (const auto* engine = c.require(doc, "$", "engine", json::Type::Object)) {
    for (const auto& [k, v] : engine->as_object()) {
      if (!v.is_number()) c.fail("$.engine." + k, "metric values must be numbers");
    }
  }

  // Hot-reload registry.
  double packs_completed = 0.0;
  double packs_loaded = 0.0;
  double packs_active_id = 0.0;
  bool active_id_found = false;
  std::size_t per_pack_count = 0;
  bool any_pack_scenes = false;
  if (const auto* packs = c.require(doc, "$", "packs", json::Type::Object)) {
    const std::string w = "$.packs";
    // The registry always holds at least the boot pack, and exactly one pack
    // is active — so loaded and active are 1-based, not 0-based.
    if (const auto* v = c.require(*packs, w, "loaded", json::Type::Number)) {
      if (c.check_int(*v, w + ".loaded", 1)) packs_loaded = v->as_number();
    }
    for (const char* key : {"rejected", "swaps", "rollbacks"}) {
      if (const auto* v = c.require(*packs, w, key, json::Type::Number)) {
        c.check_int(*v, w + "." + key, 0);
      }
    }
    if (const auto* v = c.require(*packs, w, "active", json::Type::Number)) {
      if (c.check_int(*v, w + ".active", 1)) packs_active_id = v->as_number();
    }
    std::size_t active_count = 0;
    if (const auto* per = c.require(*packs, w, "per_pack", json::Type::Array)) {
      std::size_t i = 0;
      for (const json::Value& p : per->as_array()) {
        const std::string pw = w + ".per_pack[" + std::to_string(i++) + "]";
        ++per_pack_count;
        if (!p.is_object()) {
          c.fail(pw, "expected object");
          continue;
        }
        double pack_id = 0.0;
        if (const auto* id = c.require(p, pw, "id", json::Type::Number)) {
          if (c.check_int(*id, pw + ".id", 1)) pack_id = id->as_number();
        }
        c.require(p, pw, "name", json::Type::String);
        c.require(p, pw, "version", json::Type::String);
        if (const auto* st = c.require(p, pw, "state", json::Type::String)) {
          const std::string& s = st->as_string();
          if (s == "active") {
            ++active_count;
            if (pack_id == packs_active_id) active_id_found = true;
          }
          if (s != "active" && s != "staged" && s != "retired" && s != "rejected") {
            c.fail(pw + ".state", "unknown pack state \"" + s + "\"");
          }
        }
        if (const auto* d = c.require(p, pw, "decision", json::Type::String)) {
          const std::string& s = d->as_string();
          if (s != "pass" && s != "warn" && s != "reject") {
            c.fail(pw + ".decision", "unknown decision \"" + s + "\"");
          }
        }
        c.require(p, pw, "gated", json::Type::Bool);
        if (const auto* sc = c.require(p, pw, "scenes_completed", json::Type::Number)) {
          if (c.check_int(*sc, pw + ".scenes_completed", 0)) {
            packs_completed += sc->as_number();
            if (sc->as_number() > 0) any_pack_scenes = true;
          }
        }
        if (const auto* wo = c.require(p, pw, "workers_on", json::Type::Number)) {
          c.check_int(*wo, pw + ".workers_on", 0);
        }
      }
      if (active_count != 1) {
        c.fail(w + ".per_pack", "exactly one pack must be active, found " +
                                    std::to_string(active_count));
      } else if (!active_id_found) {
        c.fail(w + ".active", "active pack id does not name the active per_pack entry");
      }
      if (packs_loaded != 0.0 && packs_loaded != static_cast<double>(per_pack_count)) {
        c.fail(w + ".loaded", "loaded does not match the per_pack entry count");
      }
    }
  }

  // A drain that admitted nothing cannot have attributed scenes to any pack.
  // Unconditional (not gated on a clean shape): this is the cross-check that
  // catches a rollup claiming zero admitted scenes over a non-empty registry
  // with non-zero per-pack scene counts.
  if (admitted == 0.0 && any_pack_scenes) {
    c.fail("$.packs", "zero admitted scenes but non-zero per-pack scene counts");
  }

  // Streaming sessions.
  double st_opened = 0.0, st_completed = 0.0, st_quarantined = 0.0, st_aborted = 0.0;
  double st_drained = 0.0, st_ticks = 0.0, st_ticks_completed = 0.0;
  double st_ticks_failed = 0.0, st_ticks_shed = 0.0;
  if (const auto* streams = c.require(doc, "$", "streams", json::Type::Object)) {
    const std::string w = "$.streams";
    const auto scounter = [&](const char* key) -> double {
      const json::Value* v = c.require(*streams, w, key, json::Type::Number);
      if (!v || !c.check_int(*v, w + "." + key, 0)) return 0.0;
      return v->as_number();
    };
    st_opened = scounter("opened");
    st_completed = scounter("completed");
    st_quarantined = scounter("quarantined");
    st_aborted = scounter("aborted");
    st_drained = scounter("drained");
    st_ticks = scounter("ticks");
    st_ticks_completed = scounter("ticks_completed");
    st_ticks_failed = scounter("ticks_failed");
    st_ticks_shed = scounter("ticks_shed");
    scounter("tick_retries");
    scounter("wmes_streamed");
    scounter("peak_resident_wm");
    if (const auto* lat = c.require(*streams, w, "tick_latency_ns", json::Type::Object)) {
      for (const char* key : {"count", "p50_ns", "p90_ns", "p99_ns", "mean_ns", "max_ns"}) {
        if (const auto* v = c.require(*lat, w + ".tick_latency_ns", key, json::Type::Number)) {
          c.check_int(*v, w + ".tick_latency_ns." + key, 0);
        }
      }
    }
    if (const auto* tps = c.require(*streams, w, "ticks_per_sec", json::Type::Number)) {
      if (tps->as_number() < 0) c.fail(w + ".ticks_per_sec", "must be >= 0");
    }
  }

  // Exactly-once accounting: every admission attempt ends in exactly one bin.
  if (violations.empty()) {
    if (submitted != admitted + rejected) {
      c.fail("$", "submitted != admitted + rejected (lost or double-counted scenes)");
    }
    if (admitted != completed + quarantined + aborted) {
      c.fail("$", "admitted != completed + quarantined + aborted "
                  "(lost or double-counted scenes)");
    }
    if (packs_completed != completed) {
      c.fail("$.packs", "per-pack scenes_completed do not sum to completed "
                        "(scenes mis-attributed across a swap)");
    }
    if (st_opened != st_completed + st_quarantined + st_aborted) {
      c.fail("$.streams", "opened != completed + quarantined + aborted "
                          "(lost or double-counted streams)");
    }
    if (st_drained > st_completed) {
      c.fail("$.streams", "drained exceeds completed");
    }
    if (st_ticks != st_ticks_completed + st_ticks_failed + st_ticks_shed) {
      c.fail("$.streams", "ticks != ticks_completed + ticks_failed + ticks_shed "
                          "(lost or double-counted ticks)");
    }
    // A stream is one scene: each stream bin is bounded by its scene bin.
    if (st_completed > completed || st_quarantined > quarantined || st_aborted > aborted) {
      c.fail("$.streams", "stream bins exceed their scene-level counterparts");
    }
  }
  return violations;
}

namespace {

bool check_decision_string(Checker& c, const json::Value& v, const std::string& where) {
  const std::string& s = v.as_string();
  if (s != "pass" && s != "warn" && s != "reject") {
    c.fail(where, "unknown decision \"" + s + "\"");
    return false;
  }
  return true;
}

int decision_rank(const std::string& s) {
  if (s == "pass") return 0;
  if (s == "warn") return 1;
  return 2;
}

}  // namespace

std::vector<std::string> validate_admission_verdict(const json::Value& doc) {
  std::vector<std::string> violations;
  Checker c(violations);
  if (!doc.is_object()) {
    c.fail("$", "top-level value must be an object");
    return violations;
  }
  if (const auto* schema = c.require(doc, "$", "schema", json::Type::String)) {
    if (schema->as_string() != "admission-verdict-v1") {
      c.fail("$.schema", "unsupported schema (expected \"admission-verdict-v1\")");
    }
  }
  c.require(doc, "$", "live", json::Type::String);
  c.require(doc, "$", "candidate", json::Type::String);
  int verdict_rank = 0;
  if (const auto* d = c.require(doc, "$", "decision", json::Type::String)) {
    if (check_decision_string(c, *d, "$.decision")) {
      verdict_rank = decision_rank(d->as_string());
    }
  }
  double total_errors = 0.0, total_warnings = 0.0;
  if (const auto* e = c.require(doc, "$", "errors", json::Type::Number)) {
    if (c.check_int(*e, "$.errors", 0)) total_errors = e->as_number();
  }
  if (const auto* wv = c.require(doc, "$", "warnings", json::Type::Number)) {
    if (c.check_int(*wv, "$.warnings", 0)) total_warnings = wv->as_number();
  }

  double sum_errors = 0.0, sum_warnings = 0.0;
  int worst_rank = 0;
  if (const auto* sections = c.require(doc, "$", "sections", json::Type::Array)) {
    if (sections->as_array().empty()) {
      c.fail("$.sections", "must contain at least one section");
    }
    std::size_t i = 0;
    for (const json::Value& s : sections->as_array()) {
      const std::string w = "$.sections[" + std::to_string(i++) + "]";
      if (!s.is_object()) {
        c.fail(w, "expected object");
        continue;
      }
      c.require(s, w, "analyzer", json::Type::String);
      if (const auto* d = c.require(s, w, "decision", json::Type::String)) {
        if (check_decision_string(c, *d, w + ".decision")) {
          worst_rank = std::max(worst_rank, decision_rank(d->as_string()));
        }
      }
      if (const auto* e = c.require(s, w, "errors", json::Type::Number)) {
        if (c.check_int(*e, w + ".errors", 0)) sum_errors += e->as_number();
      }
      if (const auto* wv = c.require(s, w, "warnings", json::Type::Number)) {
        if (c.check_int(*wv, w + ".warnings", 0)) sum_warnings += wv->as_number();
      }
      if (const auto* findings = c.require(s, w, "findings", json::Type::Array)) {
        std::size_t j = 0;
        for (const json::Value& f : findings->as_array()) {
          const std::string fw = w + ".findings[" + std::to_string(j++) + "]";
          if (!f.is_object()) {
            c.fail(fw, "expected object");
            continue;
          }
          if (const auto* code = c.require(f, fw, "code", json::Type::String)) {
            const std::string& cs = code->as_string();
            if (cs.size() != 5 || cs.compare(0, 2, "AN") != 0) {
              c.fail(fw + ".code", "expected an ANnnn wire code");
            }
          }
          if (const auto* sev = c.require(f, fw, "severity", json::Type::String)) {
            const std::string& ss = sev->as_string();
            if (ss != "warning" && ss != "error") {
              c.fail(fw + ".severity", "expected \"warning\" or \"error\"");
            }
          }
          c.require(f, fw, "production", json::Type::String);
          c.require(f, fw, "message", json::Type::String);
        }
      }
      c.require(s, w, "details", json::Type::Object);
    }
  }

  // Aggregation invariants: the verdict is exactly the worst section, and
  // top-level totals are the per-section sums (exact despite truncation).
  if (violations.empty()) {
    if (verdict_rank != worst_rank) {
      c.fail("$.decision", "verdict decision does not match the worst section");
    }
    if (total_errors != sum_errors) {
      c.fail("$.errors", "top-level errors != sum of section errors");
    }
    if (total_warnings != sum_warnings) {
      c.fail("$.warnings", "top-level warnings != sum of section warnings");
    }
  }
  return violations;
}

}  // namespace psmsys::obs
