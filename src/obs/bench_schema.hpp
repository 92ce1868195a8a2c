#pragma once

// Schema for the BENCH_<suite>.json documents the bench harness emits
// (documented prose version: DESIGN.md §11.4).
//
// Version 1 layout:
//
//   {
//     "schema_version": 1,
//     "suite": "<suite name>",
//     "env": {
//       "compiler": str, "build_type": str, "os": str, "arch": str,
//       "hardware_threads": int >= 1
//     },
//     "cases": [
//       {
//         "name": str,
//         "wall_ns": number >= 0,
//         "cpu_ns": number >= 0,
//         "metrics": { str: number, ... },          // optional
//         "speedups": [                              // optional
//           { "name": str,
//             "points": [ {"procs": int >= 1, "speedup": number > 0}, ... ] }
//         ],
//         "tables": [                                // optional
//           { "name": str, "columns": [str...],
//             "rows": [[str...], ...] }              // row width == columns
//         ],
//         "notes": [str...]                          // optional
//       }, ...
//     ]
//   }
//
// The validator is deliberately strict about the fields above and silent
// about unknown extra keys, so documents can grow forward-compatibly (and
// documents from earlier harnesses, which also carried a top-level size flag
// and "env.obs_enabled", still validate).

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace psmsys::obs {

inline constexpr int kBenchSchemaVersion = 1;

/// Validate a parsed BENCH document. Returns a list of human-readable
/// violations; empty means the document conforms.
[[nodiscard]] std::vector<std::string> validate_bench_json(
    const json::Value& doc);

// ---------------------------------------------------------------------------
// Serve rollup (serve::ServerStats::to_json; prose: DESIGN.md §14.4)
//
// Version 1 layout:
//
//   {
//     "schema_version": 1,
//     "kind": "serve_rollup",
//     "workers": int >= 1,            // engine contexts in the pool
//     "submitted": int >= 0,          // admission attempts
//     "admitted": int >= 0,
//     "rejected": { "queue_full": int >= 0, "draining": int >= 0 },
//     "completed": int >= 0,
//     "quarantined": int >= 0,
//     "aborted": int >= 0,
//     "retries": int >= 0,
//     "wall_ns": number >= 0,
//     "scenes_per_sec": number >= 0,
//     "packs": {                      // hot-reload registry (DESIGN.md §15)
//       "loaded": int >= 1, "rejected": int >= 0, "swaps": int >= 0,
//       "rollbacks": int >= 0, "active": int >= 1,
//       "per_pack": [
//         { "id": int >= 1, "name": str, "version": str,
//           "state": "active"|"staged"|"retired"|"rejected",
//           "decision": "pass"|"warn"|"reject", "gated": bool,
//           "scenes_completed": int >= 0, "workers_on": int >= 0 }, ...
//       ]
//     },
//     "streams": {                    // streaming sessions (DESIGN.md §16);
//       "opened": int >= 0,           //  real streams only, one-shot scenes
//       "completed": int >= 0,        //  report through the scene bins
//       "quarantined": int >= 0, "aborted": int >= 0, "drained": int >= 0,
//       "ticks": int >= 0, "ticks_completed": int >= 0,
//       "ticks_failed": int >= 0, "ticks_shed": int >= 0,
//       "tick_retries": int >= 0, "wmes_streamed": int >= 0,
//       "peak_resident_wm": int >= 0,
//       "tick_latency_ns": { same shape as latency_ns },
//       "ticks_per_sec": number >= 0
//     },
//     "latency_ns": {                 // completed scenes; all 0 when none
//       "count": int, "p50_ns": int, "p90_ns": int, "p99_ns": int,
//       "mean_ns": int, "max_ns": int
//     },
//     "engine": { ... }               // obs::RunMetrics flat object; every
//                                     // value is a number
//   }
//
// Invariants checked beyond shape: submitted == admitted + rejected.* and
// admitted == completed + quarantined + aborted (exactly-once accounting —
// the graceful-drain "no lost or double-counted scenes" contract). Both
// "packs" and "streams" are required. Packs: completed equals the sum of
// per-pack scenes_completed, loaded equals the per_pack length, exactly one
// pack is active, the active id names that pack — and, unconditionally, a
// rollup with zero admitted scenes must carry all-zero per-pack scene counts
// (a drain that served nothing cannot have attributed scenes to any pack).
// Streams: opened == completed + quarantined + aborted, drained <= completed,
// ticks == ticks_completed + ticks_failed + ticks_shed, and every stream bin
// is bounded by its scene-level counterpart (a stream is one scene).
// ---------------------------------------------------------------------------

inline constexpr int kServeRollupSchemaVersion = 1;

/// Validate a parsed serve rollup document (shape + accounting invariants).
/// Returns human-readable violations; empty means the document conforms.
[[nodiscard]] std::vector<std::string> validate_serve_rollup(
    const json::Value& doc);

// ---------------------------------------------------------------------------
// Admission verdict (analysis::AdmissionVerdict::to_json; prose: DESIGN.md §15)
//
//   {
//     "schema": "admission-verdict-v1",
//     "live": str,                    // "" for a candidate-only check
//     "candidate": str,
//     "decision": "pass"|"warn"|"reject",
//     "errors": int >= 0,             // totals over all sections (exact even
//     "warnings": int >= 0,           //  when findings are truncated)
//     "sections": [
//       { "analyzer": str,            // lint | rete_static | interference |
//         "decision": ...,            //  semantic_diff
//         "errors": int >= 0, "warnings": int >= 0,
//         "findings": [
//           { "code": "ANnnn", "severity": "warning"|"error",
//             "production": str, "message": str }, ...
//         ],
//         "details": { ... }          // analyzer-specific, deterministic
//       }, ...
//     ]
//   }
//
// Invariants beyond shape: the verdict decision is the worst section
// decision, and the top-level error/warning totals are the sums of the
// per-section counts.
// ---------------------------------------------------------------------------

/// Validate a parsed AdmissionVerdict document (shape + aggregation
/// invariants). Returns human-readable violations; empty means it conforms.
[[nodiscard]] std::vector<std::string> validate_admission_verdict(
    const json::Value& doc);

}  // namespace psmsys::obs
