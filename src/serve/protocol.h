#ifndef ANONSAFE_SERVE_PROTOCOL_H_
#define ANONSAFE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "util/json.h"
#include "util/status.h"

namespace anonsafe {
namespace serve {

/// \name Envelope versions.
///
/// The server speaks two envelope versions at once:
///
///   * **v1** — the original envelope. A v1 request is answered with a
///     v1-stamped response that is bit-identical to what the v1-only
///     server produced; v2-only verbs (`assess_risk_batch`) and fields
///     (`tenant`) are invisible to it.
///   * **v2** — adds the top-level `tenant` field (per-tenant quotas and
///     fair-share admission) and the `assess_risk_batch` verb with
///     per-item error envelopes.
///
/// Any other (or missing) version is rejected with `bad_schema_version`
/// so unknown clients fail loudly instead of being half-understood.
/// Responses echo the request's version; lines too malformed to carry a
/// version are answered at v1, the floor every client understands.
/// @{
inline constexpr int64_t kServeSchemaVersionMin = 1;
inline constexpr int64_t kServeSchemaVersion = 2;
/// @}

/// \brief Default cap on one request line. Lines longer than this are
/// answered with `oversized_line` without being parsed — the parser never
/// sees unbounded untrusted input.
inline constexpr size_t kDefaultMaxLineBytes = 4u << 20;

/// \name Protocol error codes (the `error.code` field).
/// @{
inline constexpr char kErrParse[] = "parse_error";
inline constexpr char kErrOversizedLine[] = "oversized_line";
inline constexpr char kErrBadSchemaVersion[] = "bad_schema_version";
inline constexpr char kErrUnknownVerb[] = "unknown_verb";
inline constexpr char kErrInvalidParams[] = "invalid_params";
inline constexpr char kErrNotFound[] = "not_found";
inline constexpr char kErrQueueFull[] = "queue_full";
inline constexpr char kErrQuotaExceeded[] = "quota_exceeded";
inline constexpr char kErrDeadlineExceeded[] = "deadline_exceeded";
inline constexpr char kErrShuttingDown[] = "shutting_down";
inline constexpr char kErrIo[] = "io_error";
inline constexpr char kErrInternal[] = "internal";
/// @}

/// \brief A decoded request envelope:
/// `{"schema_version": 1|2, "id": ..., "verb": "...", "tenant": "...",
///   "params": {...}}`.
/// `id` is opaque to the server and echoed verbatim in the response
/// (null when the client sent none); `params` defaults to an empty
/// object. `tenant` is only read from v2 envelopes (a v1 request cannot
/// name one — it lands in the anonymous bucket) and is empty when the
/// client sent none.
struct Request {
  json::Value id;
  std::string verb;
  json::Value params = json::Value::Object();
  int64_t schema_version = kServeSchemaVersionMin;
  std::string tenant;
};

/// \brief `{"schema_version": v, "id": ..., "ok": true, "result": ...}`.
/// `version` is the version of the *request* being answered, echoed so a
/// v1 client never sees a v2 stamp.
json::Value MakeOkResponse(const json::Value& id, json::Value result,
                           int64_t version = kServeSchemaVersionMin);

/// \brief `{"schema_version": v, "id": ..., "ok": false,
///           "error": {"code": ..., "message": ...}}`.
json::Value MakeErrorResponse(const json::Value& id, const std::string& code,
                              const std::string& message,
                              int64_t version = kServeSchemaVersionMin);

/// \brief Outcome of decoding one request line: either a request, or a
/// complete error *response* ready to send (malformed input never
/// reaches a verb handler).
struct ParsedLine {
  bool ok = false;
  Request request;
  json::Value error;
};

/// \brief Decodes and validates one line: size cap, JSON parse, envelope
/// shape, schema version (1 or 2). Pure — no server state involved.
ParsedLine ParseRequestLine(const std::string& line, size_t max_line_bytes);

/// \brief Maps a handler Status onto a protocol error code
/// (InvalidArgument, OutOfRange and Unimplemented → invalid_params,
/// NotFound → not_found, Cancelled → deadline_exceeded, IOError →
/// io_error, anything else → internal).
const char* ErrorCodeForStatus(const Status& status);

}  // namespace serve
}  // namespace anonsafe

#endif  // ANONSAFE_SERVE_PROTOCOL_H_
