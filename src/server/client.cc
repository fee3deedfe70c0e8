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
  if (const JsonValue* v = response.parsed.Find("protocol");
      v != nullptr && v->is_int()) {
    client.hello_.protocol = static_cast<int>(v->int_v);
  }
  if (const JsonValue* v = response.parsed.Find("session");
      v != nullptr && v->is_int()) {
    client.hello_.session_id = static_cast<uint64_t>(v->int_v);
  }
  if (const JsonValue* v = response.parsed.Find("tenant");
      v != nullptr && v->is_string()) {
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
  std::vector<std::string> names;
  if (const JsonValue* graphs = response.parsed.Find("graphs");
      graphs != nullptr && graphs->is_array()) {
    for (const JsonValue& name : graphs->array_v) {
      if (name.is_string()) names.push_back(name.string_v);
    }
  }
  return names;
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
  const JsonValue* created = response.parsed.Find("created");
  return created != nullptr && created->is_bool() && created->bool_v;
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
  PreparedInfo info;
  const JsonValue* stmt = response.parsed.Find("stmt");
  if (stmt == nullptr || !stmt->is_int()) {
    return Status::Internal("prepare response without \"stmt\" handle: " +
                            response.raw);
  }
  info.stmt = stmt->int_v;
  if (const JsonValue* params = response.parsed.Find("params");
      params != nullptr && params->is_array()) {
    for (const JsonValue& name : params->array_v) {
      if (name.is_string()) info.params.push_back(name.string_v);
    }
  }
  if (const JsonValue* v = response.parsed.Find("from_cache");
      v != nullptr && v->is_bool()) {
    info.from_cache = v->bool_v;
  }
  if (const JsonValue* v = response.parsed.Find("always_empty");
      v != nullptr && v->is_bool()) {
    info.always_empty = v->bool_v;
  }
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
  if (const JsonValue* v = response.parsed.Find("truncated");
      v != nullptr && v->is_bool()) {
    result.truncated = v->bool_v;
  }
  if (const JsonValue* v = response.parsed.Find("hit_limit");
      v != nullptr && v->is_bool()) {
    result.hit_limit = v->bool_v;
  }
  if (const JsonValue* v = response.parsed.Find("done");
      v != nullptr && v->is_bool()) {
    result.done = v->bool_v;
  }
  return result;
}

Result<ExecuteResult> Client::Execute(int64_t stmt, const Params& params,
                                      std::optional<uint64_t> limit) {
  std::string request = "{\"op\":\"execute\",\"stmt\":" +
                        std::to_string(stmt) +
                        ",\"params\":" + ParamsToWireJson(params);
  if (limit.has_value()) {
    request += ",\"limit\":" + std::to_string(*limit);
  }
  request += "}";
  GPML_ASSIGN_OR_RETURN(RawResponse response, Call(request));
  return DecodeRows(std::move(response));
}

Result<int64_t> Client::Open(int64_t stmt, const Params& params,
                             std::optional<uint64_t> limit) {
  std::string request = "{\"op\":\"open\",\"stmt\":" + std::to_string(stmt) +
                        ",\"params\":" + ParamsToWireJson(params);
  if (limit.has_value()) {
    request += ",\"limit\":" + std::to_string(*limit);
  }
  request += "}";
  GPML_ASSIGN_OR_RETURN(RawResponse response, Call(request));
  const JsonValue* cursor = response.parsed.Find("cursor");
  if (cursor == nullptr || !cursor->is_int()) {
    return Status::Internal("open response without \"cursor\" handle: " +
                            response.raw);
  }
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
  const JsonValue* plan = response.parsed.Find("plan");
  if (plan == nullptr || !plan->is_string()) {
    return Status::Internal("explain response without \"plan\": " +
                            response.raw);
  }
  return plan->string_v;
}

Result<std::string> Client::Metrics() {
  GPML_ASSIGN_OR_RETURN(RawResponse response, Call("{\"op\":\"metrics\"}"));
  const JsonValue* text = response.parsed.Find("text");
  if (text == nullptr || !text->is_string()) {
    return Status::Internal("metrics response without \"text\": " +
                            response.raw);
  }
  return text->string_v;
}

Result<std::string> Client::SlowQueries(const std::string& graph) {
  std::string request = "{\"op\":\"slow_queries\"";
  if (!graph.empty()) {
    request += ",\"graph\":\"" + JsonEscape(graph) + "\"";
  }
  request += "}";
  GPML_ASSIGN_OR_RETURN(RawResponse response, Call(request));
  const JsonValue* records = response.parsed.Find("records");
  if (records == nullptr || !records->is_array()) {
    return Status::Internal("slow_queries response without \"records\": " +
                            response.raw);
  }
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
  const JsonValue* entries = response.parsed.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return Status::Internal("query_stats response without \"entries\": " +
                            response.raw);
  }
  return entries->RawSpan(response.raw);
}

Status Client::DebugSleep(int64_t ms) {
  return Call("{\"op\":\"debug_sleep\",\"ms\":" + std::to_string(ms) + "}")
      .status();
}

}  // namespace server
}  // namespace gpml
