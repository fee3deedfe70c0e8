#ifndef GPML_SERVER_ADMISSION_H_
#define GPML_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/result.h"
#include "eval/matcher.h"

namespace gpml {
namespace server {

/// Per-tenant resource quotas. The per-query caps are mapped onto the
/// engine's SharedBudget: every admitted execution runs with
/// MatcherOptions::max_steps / max_matches tightened to
/// min(server default, tenant cap, remaining cumulative step budget), so
/// one tenant's pathological query trips its own budget — a structured
/// RESOURCE_EXHAUSTED — instead of starving the box (docs/server.md).
struct TenantQuota {
  /// Concurrent open sessions (connections). 0 = unlimited.
  size_t max_sessions = 0;
  /// Queries in flight at once (execute/open/fetch count while running).
  /// 0 = unlimited.
  size_t max_concurrent = 0;
  /// Per-query matcher step cap; feeds the query's SharedBudget. 0 keeps
  /// the server's engine default.
  size_t max_steps_per_query = 0;
  /// Per-query accepted-match cap; feeds the query's SharedBudget. 0
  /// keeps the server's engine default.
  size_t max_matches_per_query = 0;
  /// Cumulative matcher steps across the tenant's lifetime; once spent,
  /// further queries are rejected with TENANT_STEP_BUDGET. 0 = unlimited.
  uint64_t max_total_steps = 0;
};

/// Admission decisions for sessions and queries, per tenant, and the
/// server-wide run slots: at most `run_slots` (0 means 1) admitted queries
/// run at once, each on the connection thread that read it, and at most
/// `max_waiting` more wait for a slot in arrival order. All methods are
/// thread-safe; a query that finds a slot free takes one short critical
/// section.
class AdmissionController {
 public:
  AdmissionController(TenantQuota default_quota, size_t run_slots,
                      size_t max_waiting)
      : default_quota_(default_quota),
        run_slots_(run_slots == 0 ? 1 : run_slots),
        max_waiting_(max_waiting) {}

  /// Installs a tenant-specific quota (before or after traffic starts).
  void SetQuota(const std::string& tenant, TenantQuota quota);

  /// Claims a session slot. kResourceExhausted (reason TENANT_SESSIONS)
  /// when the tenant is at max_sessions.
  Status AdmitSession(const std::string& tenant);
  void ReleaseSession(const std::string& tenant);

  /// Claims an in-flight query slot of the tenant, then a run slot: at
  /// once when one is free and no query waits, else after the queries
  /// that wait already. A refusal is kResourceExhausted, and `*reason`
  /// names its cause: TENANT_STEP_BUDGET (cumulative steps spent) or
  /// TENANT_CONCURRENCY (at max_concurrent), both without waiting, or
  /// SERVER_SATURATED (max_waiting queries wait already). `*waited_us` is
  /// the wait for the run slot. On success the caller MUST balance with
  /// ReleaseQuery; use QueryTicket for that.
  Status AdmitQuery(const std::string& tenant, const char** reason,
                    uint64_t* waited_us);
  /// Frees the tenant's in-flight slot and the run slot, and wakes the
  /// query that waited longest.
  void ReleaseQuery(const std::string& tenant);

  /// Records `steps` executed by a completed query against the tenant's
  /// cumulative budget.
  void ChargeSteps(const std::string& tenant, uint64_t steps);

  /// Tightens `matcher` to the tenant's per-query caps and remaining
  /// cumulative budget — the quota -> SharedBudget mapping (the engine
  /// builds each execution's SharedBudget from these two fields).
  MatcherOptions ApplyQuota(const std::string& tenant,
                            MatcherOptions matcher) const;

  /// Live counters for a stats endpoint / tests.
  struct TenantCounts {
    size_t sessions = 0;
    size_t in_flight = 0;
    uint64_t total_steps = 0;
  };
  TenantCounts CountsFor(const std::string& tenant) const;

  /// Server-wide: queries holding a run slot, and queries waiting for one.
  struct RunCounts {
    size_t active = 0;
    size_t queue_depth = 0;
  };
  RunCounts Runs() const;

 private:
  struct TenantState {
    TenantQuota quota;
    bool quota_set = false;  // False: track counts under the default quota.
    size_t sessions = 0;
    size_t in_flight = 0;
    uint64_t total_steps = 0;
  };

  const TenantState* FindLocked(const std::string& tenant) const;
  TenantState& GetLocked(const std::string& tenant);
  const TenantQuota& EffectiveQuotaLocked(const TenantState& state) const;

  mutable std::mutex mu_;
  TenantQuota default_quota_;
  std::map<std::string, TenantState> tenants_;

  const size_t run_slots_;
  const size_t max_waiting_;
  size_t running_ = 0;
  // Waiters take consecutive turns; the waiter whose turn is next_turn_
  // takes the next free slot, so slots go out in arrival order.
  uint64_t turns_issued_ = 0;
  uint64_t next_turn_ = 0;
  std::condition_variable slot_freed_;
};

/// RAII in-flight and run slot of an admitted query: releases both on
/// destruction.
class QueryTicket {
 public:
  QueryTicket(AdmissionController* controller, std::string tenant)
      : controller_(controller), tenant_(std::move(tenant)) {}
  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;
  ~QueryTicket() { controller_->ReleaseQuery(tenant_); }

 private:
  AdmissionController* const controller_;
  const std::string tenant_;
};

}  // namespace server
}  // namespace gpml

#endif  // GPML_SERVER_ADMISSION_H_
