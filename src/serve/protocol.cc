#include "serve/protocol.h"

namespace anonsafe {
namespace serve {

json::Value MakeOkResponse(const json::Value& id, json::Value result,
                           int64_t version) {
  json::Value v = json::Value::Object();
  v.Set("schema_version", json::Value(version));
  v.Set("id", id);
  v.Set("ok", json::Value(true));
  v.Set("result", std::move(result));
  return v;
}

json::Value MakeErrorResponse(const json::Value& id, const std::string& code,
                              const std::string& message, int64_t version) {
  json::Value err = json::Value::Object();
  err.Set("code", json::Value(code));
  err.Set("message", json::Value(message));
  json::Value v = json::Value::Object();
  v.Set("schema_version", json::Value(version));
  v.Set("id", id);
  v.Set("ok", json::Value(false));
  v.Set("error", std::move(err));
  return v;
}

ParsedLine ParseRequestLine(const std::string& line, size_t max_line_bytes) {
  ParsedLine out;
  if (line.size() > max_line_bytes) {
    out.error = MakeErrorResponse(
        json::Value(), kErrOversizedLine,
        "request line of " + std::to_string(line.size()) +
            " bytes exceeds the limit of " + std::to_string(max_line_bytes));
    return out;
  }
  Result<json::Value> doc = json::Value::Parse(line);
  if (!doc.ok()) {
    out.error = MakeErrorResponse(json::Value(), kErrParse,
                                  doc.status().message());
    return out;
  }
  if (!doc->is_object()) {
    out.error = MakeErrorResponse(json::Value(), kErrParse,
                                  "request must be a JSON object");
    return out;
  }
  // The id is echoed even on later failures, so recover it first.
  if (const json::Value* id = doc->Find("id")) out.request.id = *id;

  const json::Value* version = doc->Find("schema_version");
  const bool version_ok =
      version != nullptr && version->is_number() &&
      version->AsDouble() >= static_cast<double>(kServeSchemaVersionMin) &&
      version->AsDouble() <= static_cast<double>(kServeSchemaVersion) &&
      version->AsDouble() ==
          static_cast<double>(static_cast<int64_t>(version->AsDouble()));
  if (!version_ok) {
    out.error = MakeErrorResponse(
        out.request.id, kErrBadSchemaVersion,
        "request must carry \"schema_version\" between " +
            std::to_string(kServeSchemaVersionMin) + " and " +
            std::to_string(kServeSchemaVersion));
    return out;
  }
  out.request.schema_version = static_cast<int64_t>(version->AsDouble());
  const json::Value* verb = doc->Find("verb");
  if (verb == nullptr || !verb->is_string() || verb->AsString().empty()) {
    out.error = MakeErrorResponse(out.request.id, kErrInvalidParams,
                                  "request lacks a string \"verb\"",
                                  out.request.schema_version);
    return out;
  }
  out.request.verb = verb->AsString();
  if (json::Value* params = doc->Find("params")) {
    if (!params->is_object()) {
      out.error = MakeErrorResponse(out.request.id, kErrInvalidParams,
                                    "\"params\" must be an object",
                                    out.request.schema_version);
      return out;
    }
    // Moved, not copied: a load_dataset's inline content can be large.
    out.request.params = std::move(*params);
  }
  // `tenant` exists only in the v2 envelope; a v1 request carrying the
  // key keeps its pre-v2 behaviour (unknown top-level keys are ignored).
  if (out.request.schema_version >= 2) {
    if (const json::Value* tenant = doc->Find("tenant")) {
      if (!tenant->is_string()) {
        out.error = MakeErrorResponse(out.request.id, kErrInvalidParams,
                                      "\"tenant\" must be a string",
                                      out.request.schema_version);
        return out;
      }
      out.request.tenant = tenant->AsString();
    }
  }
  out.ok = true;
  return out;
}

const char* ErrorCodeForStatus(const Status& status) {
  // OutOfRange and Unimplemented are engine refusals of this request's
  // params (an exact estimate past the Ryser cutoff, a weighted
  // adversary off the O-estimate), not server faults.
  if (status.IsInvalidArgument() || status.IsOutOfRange() ||
      status.IsUnimplemented()) {
    return kErrInvalidParams;
  }
  if (status.IsNotFound()) return kErrNotFound;
  if (status.IsCancelled()) return kErrDeadlineExceeded;
  if (status.IsIOError()) return kErrIo;
  return kErrInternal;
}

}  // namespace serve
}  // namespace anonsafe
