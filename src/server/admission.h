#ifndef GPML_SERVER_ADMISSION_H_
#define GPML_SERVER_ADMISSION_H_

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

/// Admission decisions for sessions and queries, per tenant. All methods
/// are thread-safe; the per-query fast path is one short critical section.
class AdmissionController {
 public:
  explicit AdmissionController(TenantQuota default_quota = {})
      : default_quota_(default_quota) {}

  /// Installs a tenant-specific quota (before or after traffic starts).
  void SetQuota(const std::string& tenant, TenantQuota quota);

  /// Claims a session slot. kResourceExhausted (reason TENANT_SESSIONS)
  /// when the tenant is at max_sessions.
  Status AdmitSession(const std::string& tenant);
  void ReleaseSession(const std::string& tenant);

  /// Claims an in-flight query slot. A refusal is kResourceExhausted, and
  /// `*reason` names its cause: TENANT_STEP_BUDGET (cumulative steps spent)
  /// or TENANT_CONCURRENCY (at max_concurrent). On success the caller MUST
  /// balance with ReleaseQuery; use QueryTicket for that.
  Status AdmitQuery(const std::string& tenant, const char** reason);
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
};

/// RAII in-flight query slot of an admitted query: releases on
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
