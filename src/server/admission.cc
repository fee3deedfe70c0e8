#include "server/admission.h"

#include <algorithm>

#include "server/protocol.h"

namespace gpml {
namespace server {

void AdmissionController::SetQuota(const std::string& tenant,
                                   TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  state.quota = quota;
  state.quota_set = true;
}

Status AdmissionController::AdmitSession(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  const TenantQuota& quota = EffectiveQuotaLocked(state);
  if (quota.max_sessions != 0 && state.sessions >= quota.max_sessions) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' is at its session quota (" +
        std::to_string(quota.max_sessions) + ")");
  }
  ++state.sessions;
  return Status::OK();
}

void AdmissionController::ReleaseSession(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  if (state.sessions > 0) --state.sessions;
}

Status AdmissionController::AdmitQuery(const std::string& tenant,
                                       const char** reason) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  const TenantQuota& quota = EffectiveQuotaLocked(state);
  if (quota.max_total_steps != 0 &&
      state.total_steps >= quota.max_total_steps) {
    *reason = kReasonTenantStepBudget;
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' spent its cumulative step budget (" +
        std::to_string(quota.max_total_steps) + " steps)");
  }
  if (quota.max_concurrent != 0 && state.in_flight >= quota.max_concurrent) {
    *reason = kReasonTenantConcurrency;
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' is at its concurrency quota (" +
        std::to_string(quota.max_concurrent) + " queries in flight)");
  }
  ++state.in_flight;
  return Status::OK();
}

void AdmissionController::ReleaseQuery(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  if (state.in_flight > 0) --state.in_flight;
}

void AdmissionController::ChargeSteps(const std::string& tenant,
                                      uint64_t steps) {
  std::lock_guard<std::mutex> lock(mu_);
  GetLocked(tenant).total_steps += steps;
}

MatcherOptions AdmissionController::ApplyQuota(const std::string& tenant,
                                               MatcherOptions matcher) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TenantState* state = FindLocked(tenant);
  const TenantQuota& quota =
      state != nullptr ? EffectiveQuotaLocked(*state) : default_quota_;
  if (quota.max_steps_per_query != 0) {
    matcher.max_steps = std::min(matcher.max_steps, quota.max_steps_per_query);
  }
  if (quota.max_total_steps != 0) {
    const uint64_t spent = state != nullptr ? state->total_steps : 0;
    const uint64_t remaining =
        spent >= quota.max_total_steps ? 0 : quota.max_total_steps - spent;
    if (remaining < matcher.max_steps) {
      matcher.max_steps = static_cast<size_t>(remaining);
    }
  }
  if (quota.max_matches_per_query != 0) {
    matcher.max_matches =
        std::min(matcher.max_matches, quota.max_matches_per_query);
  }
  return matcher;
}

AdmissionController::TenantCounts AdmissionController::CountsFor(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TenantState* state = FindLocked(tenant);
  if (state == nullptr) return {};
  return {state->sessions, state->in_flight, state->total_steps};
}

const AdmissionController::TenantState* AdmissionController::FindLocked(
    const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

AdmissionController::TenantState& AdmissionController::GetLocked(
    const std::string& tenant) {
  return tenants_[tenant];
}

const TenantQuota& AdmissionController::EffectiveQuotaLocked(
    const TenantState& state) const {
  return state.quota_set ? state.quota : default_quota_;
}

}  // namespace server
}  // namespace gpml
