// Request routing and JSON request/response bodies for the
// verification service (`iotsan serve`).
//
// API surface (docs/server.md has the full reference):
//   POST /v1/check      body: iotsan.request/1 {deployment, appSources?,
//                       properties?, options?} -> verdict + report +
//                       `text` byte-identical to `iotsan check`
//   POST /v1/attribute  body adds {"app": {"source": …} | {"corpus": …}}
//   GET  /v1/health     liveness + drain state + version/build + uptime
//                       + in-flight and queue-depth gauges
//   GET  /v1/status     live snapshot of in-flight verification requests
//                       (groups done/total, states/s, store bytes,
//                       elapsed vs deadline) — what `iotsan top` polls
//   GET  /v1/metrics    telemetry Registry counters + server gauges;
//                       content-negotiates JSON (default) vs Prometheus
//                       text exposition (`?format=prometheus` or an
//                       Accept header preferring text/plain)
//   GET  /v1/version    util/build_info
//   GET  /v1/events     SSE stream of progress/verdict events — served
//                       by the connection loop (server.cpp), not Route,
//                       because it holds the response open (chunked)
//
// Fleet registry (served only when `iotsan serve` runs with a
// registry; docs/fleet.md):
//   GET    /v1/deployments          status list: revision, last verdict,
//                                   groups total/recomputed, last check
//                                   duration
//   PUT    /v1/deployments/{id}     upsert a versioned deployment; the
//                                   response's ETag is the new revision
//   GET    /v1/deployments/{id}     the stored deployment (+ ETag)
//   DELETE /v1/deployments/{id}     remove deployment and its record
//   POST   /v1/deployments/{id}/check  check the stored revision, reusing
//                                   the result cache; If-Match pins a
//                                   revision (409 when stale)
//
// Correlation: every request gets a request id (taken from an
// X-Request-Id header when well-formed, generated otherwise), echoed in
// the response header and JSON body (except the byte-stable metrics
// document), attached to the trace spans the request opens, and stamped
// into violation artifacts.
//
// Error responses are always structured JSON with a machine-readable
// code: {"error": {"code": "bad_json", "message": "..."}} — malformed
// bodies, wrong schema versions, and oversized payloads are client
// errors, never crashes or silent defaults.
#pragma once

#include <atomic>
#include <chrono>
#include <string>

#include "core/service.hpp"
#include "server/events.hpp"
#include "server/http.hpp"
#include "util/error.hpp"

namespace iotsan::registry {
class Fleet;
}  // namespace iotsan::registry

namespace iotsan::cluster {
class Coordinator;
}  // namespace iotsan::cluster

namespace iotsan::server {

/// Machine-readable error codes carried in `error.code`.
inline constexpr const char* kErrBadJson = "bad_json";          // 400
inline constexpr const char* kErrBadSchema = "bad_schema";      // 400
inline constexpr const char* kErrBadRequest = "bad_request";    // 400
inline constexpr const char* kErrTooLarge = "payload_too_large";  // 413
inline constexpr const char* kErrNotFound = "not_found";        // 404
inline constexpr const char* kErrMethod = "method_not_allowed"; // 405
inline constexpr const char* kErrConflict = "revision_conflict"; // 409
inline constexpr const char* kErrQueueFull = "queue_full";      // 503
inline constexpr const char* kErrTimeout = "request_timeout";   // 408
inline constexpr const char* kErrInternal = "internal";         // 500

/// Request schema version accepted by the POST endpoints.
inline constexpr const char* kRequestSchema = "iotsan.request/1";
/// Response schema version stamped on every POST response.
inline constexpr const char* kResponseSchema = "iotsan.response/1";

/// Shared long-lived state the handlers run against: the warm thread
/// pool and result cache (this is where the resident-service throughput
/// win comes from), the per-request deadline, and live server gauges
/// surfaced by /v1/metrics and /v1/health.
struct ServiceState {
  core::ServiceEnv env;  // pool + cache shared across all requests
  double request_deadline_seconds = 0;
  /// True once a graceful drain began (health reports "draining").
  const std::atomic<bool>* draining = nullptr;
  std::atomic<std::uint64_t>* active_connections = nullptr;
  std::atomic<std::uint64_t>* queue_depth = nullptr;
  std::chrono::steady_clock::time_point start_time{};  // for uptime
  /// Live-introspection surfaces (server-owned; null in bare-handler
  /// tests): the /v1/status in-flight table and the /v1/events broker
  /// check requests publish progress/verdict events to.
  InflightTable* inflight = nullptr;
  EventBroker* events = nullptr;
  /// Fleet registry backing /v1/deployments (null = endpoints 404).
  registry::Fleet* registry = nullptr;
  /// Cluster coordinator (`iotsan serve --coordinator --workers ...`):
  /// when set, whole-deployment /v1/check requests are planned into work
  /// units and dispatched to the worker fleet instead of running
  /// locally.  Unit requests (a "units" list) always run locally —
  /// they ARE the worker side of the protocol.  Null = standalone node.
  cluster::Coordinator* coordinator = nullptr;
};

/// A client error with an HTTP status and a machine-readable code;
/// Route turns it into a structured error response.
class RequestError : public Error {
 public:
  RequestError(int status, std::string code, const std::string& message)
      : Error(message), status_(status), code_(std::move(code)) {}
  int status() const { return status_; }
  const std::string& code() const { return code_; }

 private:
  int status_;
  std::string code_;
};

/// {"error": {"code": ..., "message": ...}} with the given HTTP status.
/// A non-empty `request_id` is echoed in the body and X-Request-Id
/// header.
HttpResponse ErrorResponse(int status, const std::string& code,
                           const std::string& message,
                           const std::string& request_id = "");

/// Per-request correlation facts Route reports back to the connection
/// loop (for the access log): the resolved request id and, for error
/// responses, the machine-readable error code.
struct RequestContext {
  std::string request_id;
  std::string error_code;
  /// Deployment id for /v1/deployments requests ("" elsewhere) — the
  /// access log's per-tenant attribution field.
  std::string deployment_id;
};

/// Accepts an X-Request-Id value when it is non-empty, at most 64
/// characters, and uses only [A-Za-z0-9._-]; anything else is replaced
/// by a generated id (so logs stay one-token-per-field parseable).
bool IsValidRequestId(const std::string& id);

/// 16 lowercase hex digits, unique within the process.
std::string GenerateRequestId();

/// Dispatches one parsed request.  Never throws: handler exceptions
/// become structured 400/500 responses.  Fills `context` (may be null)
/// for the caller's access log.
HttpResponse Route(const HttpRequest& request, const ServiceState& state,
                   RequestContext* context = nullptr);

/// Parses and validates POST bodies; options the body leaves out keep
/// their value in `defaults`.  Throw RequestError on malformed JSON,
/// wrong schema version, or invalid structure; exposed for the negative
/// tests.
core::CheckRequest ParseCheckRequest(
    const std::string& body, const core::RequestOptions& defaults = {});
core::AttributeRequest ParseAttributeRequest(
    const std::string& body, const core::RequestOptions& defaults = {});

}  // namespace iotsan::server
