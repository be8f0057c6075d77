// Service request/response documents: the wire schema of the pgmcmld
// characterization-and-attack daemon (src/service).  Both sides of the
// protocol are ordinary config documents -- schema-versioned, closed-world,
// path-qualified on every validation failure -- so a malformed request is
// answered with the same "<path>: <problem>" diagnostic pgmcml_run prints,
// never a crash or a silent default.
//
// Request shape (kind "request"), newline-delimited on the socket:
//
//   { "pgmcml_schema": 1, "kind": "request", "id": "cold-1",
//     "op": "run",                     // run | statsz | ping
//     "deadline_ms": 30000,            // optional; 0 = server default
//     "experiment": { ... } }          // required for op "run"
//
// The "experiment" member is a full experiment document (kind
// "experiment"); string-valued technology/design/plan references inside it
// resolve against the daemon's --config-root.  Clients that do not share a
// filesystem with the daemon inline the referenced documents first
// (service::inline_experiment_refs).
//
// Response shape (kind "response"), one line per request:
//
//   { "pgmcml_schema": 1, "kind": "response", "id": "cold-1",
//     "status": "ok",                  // ok | rejected | expired | error
//     "digest": "<32-hex>",            // run only: the experiment digest
//     "report": { ... },               // run: the pgmcml_run report;
//                                      // statsz: the obs snapshot document
//     "stats": { "latency_s": ..., "queue_depth": ...,
//                "cache_hits": ..., "cache_misses": ...,
//                "cache_hit_rate": ..., "newton_iterations": ... } }
//
// Non-ok responses replace digest/report with "error" (the diagnostic) and,
// for status "rejected" (admission control refused the request -- the
// 429 analogue), "retry_after_ms".  The "report" member of an ok run
// response is byte-for-byte the document pgmcml_run --config prints for the
// same experiment, which is what makes daemon answers verifiable against
// the offline runner.
#pragma once

#include <cstdint>
#include <string>

#include "pgmcml/config/experiment.hpp"

namespace pgmcml::config {

enum class RequestOp {
  kRun,     ///< execute the attached experiment document
  kStatsz,  ///< introspection: obs snapshot + queue/options state
  kPing,    ///< liveness probe; answered without touching the queue
};

/// One parsed service request.  `experiment` is meaningful only when
/// op == kRun.
struct Request {
  std::string id;
  RequestOp op = RequestOp::kPing;
  /// Per-request deadline in milliseconds from admission; 0 defers to the
  /// server's default (which may itself be "none").
  std::uint64_t deadline_ms = 0;
  Experiment experiment;
};

/// Parses and validates one request document.  File references inside the
/// experiment member resolve against `base_dir` (the daemon's config root).
Request request_from_json(const obs::json::Value& doc,
                          const std::string& doc_label,
                          const std::string& base_dir);

/// Response statuses.  kRejected is the admission-control refusal (queue
/// full or draining); kExpired is a deadline that passed before or during
/// execution; kError covers validation and execution failures.
enum class ResponseStatus { kOk, kRejected, kExpired, kError };

std::string to_string(ResponseStatus status);

/// Per-request execution observations mixed into every ok response: the
/// request's wall latency, the queue depth it saw at admission, and the
/// process-wide obs counter deltas attributable to it (exact when requests
/// run serially; approximate under concurrency, which the envelope's
/// `exact` flag records).
struct ResponseStats {
  double latency_s = 0.0;
  std::uint64_t queue_depth = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t newton_iterations = 0;
  bool exact = true;  ///< false when other requests overlapped this one

  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
  obs::json::Value to_json() const;
};

/// Builds an ok run response carrying the experiment digest and report.
obs::json::Value make_run_response(const std::string& id,
                                   const std::string& digest_hex,
                                   obs::json::Value report,
                                   const ResponseStats& stats);

/// Builds an ok response with a free-form report (statsz, ping).
obs::json::Value make_ok_response(const std::string& id,
                                  obs::json::Value report);

/// Builds a non-ok response.  `retry_after_ms` is emitted only for
/// kRejected.
obs::json::Value make_error_response(const std::string& id,
                                     ResponseStatus status,
                                     const std::string& error,
                                     std::uint64_t retry_after_ms = 0);

/// Client-side view of one response line.
struct Response {
  std::string id;
  ResponseStatus status = ResponseStatus::kError;
  std::string error;                 ///< non-ok: the diagnostic
  std::uint64_t retry_after_ms = 0;  ///< rejected: advisory back-off
  std::string digest;                ///< ok run responses
  obs::json::Value report;
  ResponseStats stats;
  bool ok() const { return status == ResponseStatus::kOk; }
};

/// Parses a response document (throws std::runtime_error on an envelope the
/// daemon could not have produced -- wrong kind, unknown status).
Response response_from_json(const obs::json::Value& doc);

}  // namespace pgmcml::config
