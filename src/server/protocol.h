#ifndef GPML_SERVER_PROTOCOL_H_
#define GPML_SERVER_PROTOCOL_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "eval/params.h"
#include "server/json.h"

namespace gpml {
namespace server {

/// The wire protocol version served by this build. Bumped only on
/// incompatible changes; `hello` reports it so clients can refuse.
inline constexpr int kProtocolVersion = 1;

/// One row of the StatusCode <-> wire-error table: the numeric code and
/// the SCREAMING_SNAKE name that go into every error response,
///
///   {"ok":false,"error":{"code":104,"name":"NOT_FOUND","message":"..."}}
///
/// Codes are STABLE protocol surface — clients switch on them, dashboards
/// group by them — so existing values never change; new StatusCodes get
/// new numbers. Both the server's response writer and the client
/// library's status reconstruction go through this one table
/// (server_protocol_test pins every StatusCode's mapping).
struct WireError {
  int code = 0;
  const char* name = "";
};

/// The wire mapping of `code`. Total: every StatusCode has a row.
WireError ToWireError(StatusCode code);

/// Inverse lookup; unknown wire codes (a newer server talking to an older
/// client) degrade to kInternal rather than failing the decode.
StatusCode FromWireCode(int code);

/// Number of StatusCode values the table covers. server_protocol_test
/// asserts this matches its own exhaustive list, so adding a StatusCode
/// without extending the table is a test failure, not a silent kInternal.
inline constexpr size_t kWireErrorTableSize = 10;

/// Machine-readable reasons for server-layer rejections that share a
/// StatusCode with engine errors (all kResourceExhausted / kNotFound /
/// kInvalidArgument at the Status level). Sent as error.reason; stable.
inline constexpr const char* kReasonSessionExpired = "SESSION_EXPIRED";
inline constexpr const char* kReasonServerSaturated = "SERVER_SATURATED";
inline constexpr const char* kReasonServerStopping = "SERVER_STOPPING";
inline constexpr const char* kReasonTenantSessions = "TENANT_SESSIONS";
inline constexpr const char* kReasonTenantConcurrency = "TENANT_CONCURRENCY";
inline constexpr const char* kReasonTenantStepBudget = "TENANT_STEP_BUDGET";
inline constexpr const char* kReasonBadRequest = "BAD_REQUEST";

/// Decodes a request parameter value: null/bool/string map directly,
/// numbers map to Int when the document spelled an integer and Double
/// otherwise. Arrays/objects are a kInvalidArgument (parameters are
/// scalars).
Result<Value> WireJsonToValue(const JsonValue& json);

/// Decodes an `{"name": value, ...}` object into engine Params.
Result<Params> WireJsonToParams(const JsonValue& json);

/// Renders a Params map as a JSON object (client request encoding).
std::string ParamsToWireJson(const Params& params);

/// Builds the standard error response line (no trailing newline):
///   {"ok":false,"error":{"code":N,"name":"...","message":"..."[,
///    "reason":"..."]}[,"id":<id>]}
/// `id_raw` is the request's raw "id" span, echoed verbatim when present.
std::string ErrorResponse(const Status& status, const std::string& reason = "",
                          const std::string& id_raw = "");

/// Prefix of a success response: `{"ok":true` plus the echoed id — the
/// handler appends its own fields and the closing brace.
std::string OkResponseHead(const std::string& id_raw);

/// Writes all of `data` to socket `fd`, riding out short writes and EINTR.
/// MSG_NOSIGNAL: a peer that hung up surfaces as a failed send, not
/// SIGPIPE. Both ends of the protocol send through here.
bool SendAll(int fd, const std::string& data);

/// Reconstructs a Status from a parsed error response object (the value
/// under "error"). Missing/malformed fields degrade gracefully.
Status StatusFromWireError(const JsonValue& error);

/// The "reason" field of a parsed error response object, or "".
std::string ReasonFromWireError(const JsonValue& error);

}  // namespace server
}  // namespace gpml

#endif  // GPML_SERVER_PROTOCOL_H_
