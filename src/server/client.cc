#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/json_text.h"

namespace gpml {
namespace server {

namespace {

/// The member `key` of a response object when `is` holds for it.
const JsonValue* Member(const JsonValue& response, const char* key,
                        bool (JsonValue::*is)() const) {
  const JsonValue* v = response.Find(key);
  return v != nullptr && (v->*is)() ? v : nullptr;
}

/// The member `key` a successful `op` response carries, or Internal.
Result<const JsonValue*> Required(const Client::RawResponse& response,
                                  const char* op, const char* key,
                                  bool (JsonValue::*is)() const) {
  if (const JsonValue* v = Member(response.parsed, key, is)) return v;
  return Status::Internal(std::string(op) + " response without \"" + key +
                          "\": " + response.raw);
}

bool BoolOr(const JsonValue& response, const char* key, bool fallback) {
  const JsonValue* v = Member(response, key, &JsonValue::is_bool);
  return v != nullptr ? v->bool_v : fallback;
}

std::vector<std::string> Strings(const JsonValue& response, const char* key) {
  std::vector<std::string> out;
  if (const JsonValue* v = Member(response, key, &JsonValue::is_array)) {
    for (const JsonValue& item : v->array_v) {
      if (item.is_string()) out.push_back(item.string_v);
    }
  }
  return out;
}

/// The execute / open request for a prepared statement.
std::string StatementRequest(const char* op, int64_t stmt,
                             const Params& params,
                             std::optional<uint64_t> limit) {
  std::string request = std::string("{\"op\":\"") + op +
                        "\",\"stmt\":" + std::to_string(stmt) +
                        ",\"params\":" + ParamsToWireJson(params);
  if (limit.has_value()) request += ",\"limit\":" + std::to_string(*limit);
  request += "}";
  return request;
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept { *this = std::move(other); }

Client& Client::operator=(Client&& other) noexcept {
  if (this == &other) return *this;
  Close();
  fd_ = other.fd_;
  other.fd_ = -1;
  hello_ = std::move(other.hello_);
  last_reason_ = std::move(other.last_reason_);
  read_buf_ = std::move(other.read_buf_);
  read_pos_ = other.read_pos_;
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Client> Client::Connect(const std::string& host, int port,
                               const std::string& tenant) {
  Client client;
  client.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client.fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address '" + host +
                                   "' (numeric IPv4 expected)");
  }
  if (::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::Internal("connect to " + host + ":" +
                            std::to_string(port) + ": " +
                            std::strerror(errno));
  }
  std::string request = "{\"op\":\"hello\"";
  if (!tenant.empty()) {
    request += ",\"tenant\":\"" + JsonEscape(tenant) + "\"";
  }
  request += "}";
  GPML_ASSIGN_OR_RETURN(RawResponse response, client.Call(request));
  const JsonValue& hello = response.parsed;
  if (const JsonValue* v = Member(hello, "protocol", &JsonValue::is_int)) {
    client.hello_.protocol = static_cast<int>(v->int_v);
  }
  if (const JsonValue* v = Member(hello, "session", &JsonValue::is_int)) {
    client.hello_.session_id = static_cast<uint64_t>(v->int_v);
  }
  if (const JsonValue* v = Member(hello, "tenant", &JsonValue::is_string)) {
    client.hello_.tenant = v->string_v;
  }
  if (client.hello_.protocol != kProtocolVersion) {
    return Status::InvalidArgument(
        "server speaks protocol " + std::to_string(client.hello_.protocol) +
        ", this client needs " + std::to_string(kProtocolVersion));
  }
  return client;
}

Result<Client::RawResponse> Client::RoundTrip(
    const std::string& request_line) {
  if (fd_ < 0) return Status::InvalidArgument("client is not connected");
  if (!SendAll(fd_, request_line + "\n")) {
    Close();
    return Status::Internal("connection lost while sending request");
  }
  // Read one response line (the server never pushes unsolicited data).
  while (true) {
    size_t nl = read_buf_.find('\n', read_pos_);
    if (nl != std::string::npos) {
      RawResponse response;
      response.raw.assign(read_buf_, read_pos_, nl - read_pos_);
      read_pos_ = nl + 1;
      if (read_pos_ >= (1u << 20)) {
        read_buf_.erase(0, read_pos_);
        read_pos_ = 0;
      }
      GPML_ASSIGN_OR_RETURN(response.parsed, ParseJson(response.raw));
      return response;
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::Internal("connection closed by server mid-response");
    }
    read_buf_.append(chunk, static_cast<size_t>(n));
  }
}

Result<Client::RawResponse> Client::Call(const std::string& request_line) {
  last_reason_.clear();
  GPML_ASSIGN_OR_RETURN(RawResponse response, RoundTrip(request_line));
  const JsonValue* ok = response.parsed.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::Internal("malformed server response (no \"ok\" field): " +
                            response.raw);
  }
  if (!ok->bool_v) {
    const JsonValue* error = response.parsed.Find("error");
    if (error == nullptr) {
      return Status::Internal("error response without \"error\" object: " +
                              response.raw);
    }
    last_reason_ = ReasonFromWireError(*error);
    return StatusFromWireError(*error);
  }
  return response;
}

Status Client::Ping() { return Call("{\"op\":\"ping\"}").status(); }

Status Client::Bye() {
  Status status = Call("{\"op\":\"bye\"}").status();
  Close();
  return status;
}

Result<std::vector<std::string>> Client::ListGraphs() {
  GPML_ASSIGN_OR_RETURN(RawResponse response,
                        Call("{\"op\":\"list_graphs\"}"));
  return Strings(response.parsed, "graphs");
}

Result<bool> Client::LoadGraph(const std::string& name,
                               const std::string& kind,
                               const std::string& extra_fields) {
  std::string request = "{\"op\":\"load_graph\",\"name\":\"" +
                        JsonEscape(name) + "\",\"kind\":\"" +
                        JsonEscape(kind) + "\"";
  if (!extra_fields.empty()) request += "," + extra_fields;
  request += "}";
  GPML_ASSIGN_OR_RETURN(RawResponse response, Call(request));
  return BoolOr(response.parsed, "created", false);
}

Status Client::UseGraph(const std::string& name) {
  return Call("{\"op\":\"use_graph\",\"graph\":\"" + JsonEscape(name) +
              "\"}")
      .status();
}

Result<Client::PreparedInfo> Client::Prepare(const std::string& query) {
  GPML_ASSIGN_OR_RETURN(RawResponse response,
                        Call("{\"op\":\"prepare\",\"query\":\"" +
                             JsonEscape(query) + "\"}"));
  GPML_ASSIGN_OR_RETURN(
      const JsonValue* stmt,
      Required(response, "prepare", "stmt", &JsonValue::is_int));
  PreparedInfo info;
  info.stmt = stmt->int_v;
  info.params = Strings(response.parsed, "params");
  info.from_cache = BoolOr(response.parsed, "from_cache", false);
  info.always_empty = BoolOr(response.parsed, "always_empty", false);
  return info;
}

Status Client::CloseStatement(int64_t stmt) {
  return Call("{\"op\":\"close_stmt\",\"stmt\":" + std::to_string(stmt) + "}")
      .status();
}

Result<ExecuteResult> Client::DecodeRows(RawResponse response) {
  ExecuteResult result;
  // The response is ours: its rows are moved out, not copied.
  auto* rows = const_cast<JsonValue*>(response.parsed.Find("rows"));
  if (rows != nullptr && rows->is_array()) {
    result.rows.reserve(rows->array_v.size());
    for (JsonValue& row : rows->array_v) {
      // RawSpan hands back the server's bytes untouched — the transport
      // half of the byte-identity contract (re-serializing here could
      // legally reformat numbers and reorder nothing but still differ).
      result.rows.push_back(
          ClientRow{row.RawSpan(response.raw), std::move(row)});
    }
  }
  result.truncated = BoolOr(response.parsed, "truncated", false);
  result.hit_limit = BoolOr(response.parsed, "hit_limit", false);
  result.done = BoolOr(response.parsed, "done", true);
  return result;
}

Result<ExecuteResult> Client::Execute(int64_t stmt, const Params& params,
                                      std::optional<uint64_t> limit) {
  GPML_ASSIGN_OR_RETURN(RawResponse response,
                        Call(StatementRequest("execute", stmt, params, limit)));
  return DecodeRows(std::move(response));
}

Result<int64_t> Client::Open(int64_t stmt, const Params& params,
                             std::optional<uint64_t> limit) {
  GPML_ASSIGN_OR_RETURN(RawResponse response,
                        Call(StatementRequest("open", stmt, params, limit)));
  GPML_ASSIGN_OR_RETURN(
      const JsonValue* cursor,
      Required(response, "open", "cursor", &JsonValue::is_int));
  return cursor->int_v;
}

Result<ExecuteResult> Client::Fetch(int64_t cursor, int64_t max_rows) {
  GPML_ASSIGN_OR_RETURN(
      RawResponse response,
      Call("{\"op\":\"fetch\",\"cursor\":" + std::to_string(cursor) +
           ",\"max_rows\":" + std::to_string(max_rows) + "}"));
  return DecodeRows(std::move(response));
}

Status Client::CloseCursor(int64_t cursor) {
  return Call("{\"op\":\"close_cursor\",\"cursor\":" +
              std::to_string(cursor) + "}")
      .status();
}

Result<std::string> Client::Explain(const std::string& query) {
  GPML_ASSIGN_OR_RETURN(RawResponse response,
                        Call("{\"op\":\"explain\",\"query\":\"" +
                             JsonEscape(query) + "\"}"));
  GPML_ASSIGN_OR_RETURN(
      const JsonValue* plan,
      Required(response, "explain", "plan", &JsonValue::is_string));
  return plan->string_v;
}

Result<std::string> Client::Metrics() {
  GPML_ASSIGN_OR_RETURN(RawResponse response, Call("{\"op\":\"metrics\"}"));
  GPML_ASSIGN_OR_RETURN(
      const JsonValue* text,
      Required(response, "metrics", "text", &JsonValue::is_string));
  return text->string_v;
}

Result<std::string> Client::SlowQueries(const std::string& graph) {
  std::string request = "{\"op\":\"slow_queries\"";
  if (!graph.empty()) {
    request += ",\"graph\":\"" + JsonEscape(graph) + "\"";
  }
  request += "}";
  GPML_ASSIGN_OR_RETURN(RawResponse response, Call(request));
  GPML_ASSIGN_OR_RETURN(
      const JsonValue* records,
      Required(response, "slow_queries", "records", &JsonValue::is_array));
  return records->RawSpan(response.raw);
}

Result<std::string> Client::QueryStats(const std::string& graph,
                                       const std::string& tenant) {
  std::string request = "{\"op\":\"query_stats\"";
  if (!graph.empty()) {
    request += ",\"graph\":\"" + JsonEscape(graph) + "\"";
  }
  if (!tenant.empty()) {
    request += ",\"tenant\":\"" + JsonEscape(tenant) + "\"";
  }
  request += "}";
  GPML_ASSIGN_OR_RETURN(RawResponse response, Call(request));
  GPML_ASSIGN_OR_RETURN(
      const JsonValue* entries,
      Required(response, "query_stats", "entries", &JsonValue::is_array));
  return entries->RawSpan(response.raw);
}

Status Client::DebugSleep(int64_t ms) {
  return Call("{\"op\":\"debug_sleep\",\"ms\":" + std::to_string(ms) + "}")
      .status();
}

}  // namespace server
}  // namespace gpml
