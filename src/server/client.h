#ifndef GPML_SERVER_CLIENT_H_
#define GPML_SERVER_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/params.h"
#include "server/json.h"
#include "server/protocol.h"

namespace gpml {
namespace server {

/// One result row as received: the exact bytes the server serialized
/// (RowToJson output, byte-identical to an in-process ExportJson row —
/// bench_server diffs them) plus the parsed tree for convenience.
struct ClientRow {
  std::string raw;  // Verbatim row object bytes from the response.
  JsonValue parsed;
};

/// The outcome of execute/fetch beyond the rows themselves.
struct ExecuteResult {
  std::vector<ClientRow> rows;
  bool truncated = false;  // Budget tripped under BudgetPolicy::kTruncate.
  bool hit_limit = false;  // Stream ended by the requested LIMIT.
  bool done = true;        // fetch: stream exhausted (execute: always).
};

/// What hello reports about the server.
struct HelloInfo {
  int protocol = 0;
  uint64_t session_id = 0;
  std::string tenant;
};

/// A blocking client for the NDJSON wire protocol (docs/server.md) — the
/// reference implementation the server tests and bench_server drive.
/// One Client is one connection is one server session; not thread-safe
/// (open one Client per thread, as bench_server does).
///
/// Error handling: transport failures and server error responses both
/// surface as non-OK Status. Server errors reconstruct the original
/// StatusCode through the shared wire-error table (protocol.h), with the
/// machine-readable reason (SESSION_EXPIRED, SERVER_SATURATED, ...)
/// retrievable from last_reason() after any failed call.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and sends hello under `tenant` ("" = the default tenant).
  static Result<Client> Connect(const std::string& host, int port,
                                const std::string& tenant = "");

  bool connected() const { return fd_ >= 0; }
  void Close();

  const HelloInfo& hello() const { return hello_; }

  /// The error.reason of the most recent failed call ("" when the failure
  /// was transport-level or the server sent no reason).
  const std::string& last_reason() const { return last_reason_; }

  Status Ping();
  /// Polite teardown (server closes after acknowledging).
  Status Bye();

  Result<std::vector<std::string>> ListGraphs();
  /// Asks the server to materialize a generator graph under `name`;
  /// returns whether it was created now (false: name already existed).
  Result<bool> LoadGraph(const std::string& name, const std::string& kind,
                         const std::string& extra_fields = "");
  Status UseGraph(const std::string& name);

  /// Prepares `query`, returning the server-side statement handle.
  struct PreparedInfo {
    int64_t stmt = 0;
    std::vector<std::string> params;  // $names the query binds.
    bool from_cache = false;
    bool always_empty = false;
  };
  Result<PreparedInfo> Prepare(const std::string& query);
  Status CloseStatement(int64_t stmt);

  /// One-shot execution of a prepared handle.
  Result<ExecuteResult> Execute(int64_t stmt, const Params& params = {},
                                std::optional<uint64_t> limit = std::nullopt);

  /// Cursor paging: Open, then Fetch until done, then CloseCursor.
  Result<int64_t> Open(int64_t stmt, const Params& params = {},
                       std::optional<uint64_t> limit = std::nullopt);
  Result<ExecuteResult> Fetch(int64_t cursor, int64_t max_rows = 256);
  Status CloseCursor(int64_t cursor);

  Result<std::string> Explain(const std::string& query);
  /// The server's Prometheus rendering (same text as GET /metrics).
  Result<std::string> Metrics();
  /// Slow-query records as a raw JSON array ("" = all graphs).
  Result<std::string> SlowQueries(const std::string& graph = "");
  /// Per-fingerprint workload statistics as a raw JSON array, sorted by
  /// total time descending ("" = no graph / tenant filter) — same JSON
  /// the HTTP /query_stats endpoint serves.
  Result<std::string> QueryStats(const std::string& graph = "",
                                 const std::string& tenant = "");
  /// debug_sleep (test servers only; see ServerOptions::enable_debug_ops).
  Status DebugSleep(int64_t ms);

  /// Sends one raw request line and returns the parsed response plus its
  /// raw bytes — the escape hatch tests use for malformed requests.
  struct RawResponse {
    std::string raw;
    JsonValue parsed;
  };
  Result<RawResponse> RoundTrip(const std::string& request_line);

 private:
  /// RoundTrip plus the standard envelope handling: a transport failure or
  /// `"ok":false` response becomes a non-OK Status (reconstructed through
  /// the wire table, reason stashed in last_reason_).
  Result<RawResponse> Call(const std::string& request_line);

  Result<ExecuteResult> DecodeRows(RawResponse response);

  int fd_ = -1;
  HelloInfo hello_;
  std::string last_reason_;
  std::string read_buf_;
  size_t read_pos_ = 0;
};

}  // namespace server
}  // namespace gpml

#endif  // GPML_SERVER_CLIENT_H_
