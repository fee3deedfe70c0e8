#include "server/protocol.h"

#include <sys/socket.h>

#include <cerrno>

#include "common/json_text.h"

namespace gpml {
namespace server {

WireError ToWireError(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return {0, "OK"};
    case StatusCode::kInvalidArgument: return {100, "INVALID_ARGUMENT"};
    case StatusCode::kSyntaxError: return {101, "SYNTAX_ERROR"};
    case StatusCode::kSemanticError: return {102, "SEMANTIC_ERROR"};
    case StatusCode::kNonTerminating: return {103, "NON_TERMINATING"};
    case StatusCode::kNotFound: return {104, "NOT_FOUND"};
    case StatusCode::kAlreadyExists: return {105, "ALREADY_EXISTS"};
    case StatusCode::kResourceExhausted: return {106, "RESOURCE_EXHAUSTED"};
    case StatusCode::kUnimplemented: return {107, "UNIMPLEMENTED"};
    case StatusCode::kInternal: return {108, "INTERNAL"};
  }
  return {108, "INTERNAL"};
}

StatusCode FromWireCode(int code) {
  // StatusCode values run 0 .. kWireErrorTableSize - 1.
  for (size_t i = 0; i < kWireErrorTableSize; ++i) {
    const auto status_code = static_cast<StatusCode>(i);
    if (ToWireError(status_code).code == code) return status_code;
  }
  return StatusCode::kInternal;
}

Result<Value> WireJsonToValue(const JsonValue& json) {
  switch (json.type) {
    case JsonValue::Type::kNull: return Value::Null();
    case JsonValue::Type::kBool: return Value::Bool(json.bool_v);
    case JsonValue::Type::kInt: return Value::Int(json.int_v);
    case JsonValue::Type::kDouble: return Value::Double(json.double_v);
    case JsonValue::Type::kString: return Value::String(json.string_v);
    case JsonValue::Type::kArray:
    case JsonValue::Type::kObject:
      return Status::InvalidArgument(
          "parameter values must be scalars (null/bool/number/string)");
  }
  return Status::InvalidArgument("unrecognized parameter value");
}

Result<Params> WireJsonToParams(const JsonValue& json) {
  Params params;
  if (json.is_null()) return params;  // Absent "params" = no bindings.
  if (!json.is_object()) {
    return Status::InvalidArgument("\"params\" must be a JSON object");
  }
  for (const auto& [name, value_json] : json.object_v) {
    GPML_ASSIGN_OR_RETURN(Value value, WireJsonToValue(value_json));
    params[name] = std::move(value);
  }
  return params;
}

std::string ParamsToWireJson(const Params& params) {
  std::string out = "{";
  for (const auto& [name, value] : params) {
    if (out.size() > 1) out.push_back(',');
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendJsonValue(&out, value);
  }
  out.push_back('}');
  return out;
}

std::string ErrorResponse(const Status& status, const std::string& reason,
                          const std::string& id_raw) {
  WireError wire = ToWireError(status.code());
  std::string out = "{\"ok\":false";
  if (!id_raw.empty()) out += ",\"id\":" + id_raw;
  out += ",\"error\":{\"code\":" + std::to_string(wire.code) + ",\"name\":\"" +
         wire.name + "\",\"message\":\"" + JsonEscape(status.message()) + "\"";
  if (!reason.empty()) {
    out += ",\"reason\":\"" + JsonEscape(reason) + "\"";
  }
  out += "}}";
  return out;
}

std::string OkResponseHead(const std::string& id_raw) {
  std::string out = "{\"ok\":true";
  if (!id_raw.empty()) out += ",\"id\":" + id_raw;
  return out;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Status StatusFromWireError(const JsonValue& error) {
  StatusCode code = StatusCode::kInternal;
  const JsonValue* code_json = error.Find("code");
  if (code_json != nullptr && code_json->is_int()) {
    code = FromWireCode(static_cast<int>(code_json->int_v));
  }
  std::string message = "server error";
  const JsonValue* msg_json = error.Find("message");
  if (msg_json != nullptr && msg_json->is_string()) {
    message = msg_json->string_v;
  }
  std::string reason = ReasonFromWireError(error);
  if (!reason.empty()) message = "[" + reason + "] " + message;
  if (code == StatusCode::kOk) code = StatusCode::kInternal;
  return Status(code, std::move(message));
}

std::string ReasonFromWireError(const JsonValue& error) {
  const JsonValue* reason = error.Find("reason");
  if (reason != nullptr && reason->is_string()) return reason->string_v;
  return "";
}

}  // namespace server
}  // namespace gpml
