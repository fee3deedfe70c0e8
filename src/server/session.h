#ifndef GPML_SERVER_SESSION_H_
#define GPML_SERVER_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "graph/property_graph.h"

namespace gpml {
namespace server {

/// A server-side prepared-statement handle: the shared compiled plan
/// (through the graph's plan cache) plus the graph shared_ptr keeping it
/// valid. Session-scoped: handles are meaningless outside the session
/// that prepared them.
struct PreparedHandle {
  PreparedQuery query;
  std::shared_ptr<const PropertyGraph> graph;
  std::string text;  // The prepared MATCH text (diagnostics, slow log).
};

/// A server-side open cursor: the streaming Cursor plus the metrics
/// struct its executions write into (EngineOptions::metrics points here;
/// one struct per cursor, so interleaved cursors never clobber each
/// other's counters) and the running step count already charged to the
/// tenant's cumulative budget.
struct CursorHandle {
  std::unique_ptr<Cursor> cursor;
  std::unique_ptr<EngineMetrics> metrics;
  std::shared_ptr<const PropertyGraph> graph;
  uint64_t steps_charged = 0;
};

/// One client connection's server-side state: tenant identity, selected
/// graph, owned prepared statements and cursors, and the idle clock the
/// reaper checks. All fields are guarded by `mu` — the connection thread
/// and the reaper are the only writers, and the reaper only touches
/// sessions with no request in flight.
class ServerSession {
 public:
  ServerSession(uint64_t id, std::string tenant, obs::Counter* steps_counter)
      : id_(id), tenant_(std::move(tenant)), steps_counter_(steps_counter) {}

  uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  /// gpml_tenant_steps_total{tenant=...} of this session's tenant, resolved
  /// once when the session is created (a session's tenant never changes).
  obs::Counter* steps_counter() const { return steps_counter_; }

  /// Guards every mutable field below.
  std::mutex mu;

  std::shared_ptr<const PropertyGraph> graph;  // Selected via use_graph.
  std::string graph_name;
  std::map<int64_t, PreparedHandle> statements;
  std::map<int64_t, CursorHandle> cursors;
  int64_t next_handle = 1;

  /// Monotonic micros of the last request; the reaper compares against
  /// the idle timeout.
  uint64_t last_active_us = 0;
  /// Requests currently executing against this session (the reaper skips
  /// sessions with in_flight > 0).
  int in_flight = 0;
  /// Set by the reaper: statements and cursors are gone; every
  /// state-carrying op answers SESSION_EXPIRED from now on.
  bool expired = false;
  /// True once the session's admission slot was released (by the reaper
  /// or connection teardown) — guards against double release.
  bool admission_released = false;

 private:
  const uint64_t id_;
  const std::string tenant_;
  obs::Counter* const steps_counter_;
};

/// The server's session table. Sessions are created at connection setup,
/// removed at connection teardown, and expired in place by ReapIdle when
/// idle past the timeout (the connection may still be open — its next
/// request gets a structured SESSION_EXPIRED error, not a disconnect).
class SessionRegistry {
 public:
  /// Registers a session of `tenant`; `steps_counter` is its tenant's
  /// step counter, resolved once by the caller.
  std::shared_ptr<ServerSession> Create(const std::string& tenant,
                                        obs::Counter* steps_counter);
  void Remove(uint64_t id);
  std::shared_ptr<ServerSession> Find(uint64_t id) const;
  size_t size() const;

  /// Expires sessions idle for longer than `idle_us`: drops their
  /// statements and cursors, marks them expired, and reports them (the
  /// caller releases admission slots). A session whose clock is at or past
  /// `now_us` — a request finished after the caller sampled the time — is
  /// not idle. Sessions with a request in flight
  /// are never reaped, whatever their clock says — an open cursor mid-
  /// fetch cannot be destroyed under the fetch.
  std::vector<std::shared_ptr<ServerSession>> ReapIdle(uint64_t now_us,
                                                       uint64_t idle_us);

  std::vector<std::shared_ptr<ServerSession>> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<ServerSession>> sessions_;
  uint64_t next_id_ = 1;
};

}  // namespace server
}  // namespace gpml

#endif  // GPML_SERVER_SESSION_H_
