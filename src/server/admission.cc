#include "server/admission.h"

#include <algorithm>

#include "obs/clock.h"
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
                                       const char** reason,
                                       uint64_t* waited_us) {
  *waited_us = 0;
  std::unique_lock<std::mutex> lock(mu_);
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
  const uint64_t waiting = turns_issued_ - next_turn_;
  const bool must_wait = running_ >= run_slots_ || waiting > 0;
  if (must_wait && waiting >= max_waiting_) {
    *reason = kReasonServerSaturated;
    return Status::ResourceExhausted(
        "every run slot is taken and the wait queue is full; retry later");
  }
  // A waiting query holds its tenant's in-flight slot too.
  ++state.in_flight;
  if (must_wait) {
    const uint64_t turn = turns_issued_++;
    const uint64_t wait_start_us = obs::MonotonicMicros();
    slot_freed_.wait(lock, [this, turn] {
      return turn == next_turn_ && running_ < run_slots_;
    });
    ++next_turn_;
    *waited_us = obs::MonotonicMicros() - wait_start_us;
    // The next waiter may find a slot free too.
    if (next_turn_ != turns_issued_ && running_ + 1 < run_slots_) {
      slot_freed_.notify_all();
    }
  }
  ++running_;
  return Status::OK();
}

void AdmissionController::ReleaseQuery(const std::string& tenant) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TenantState& state = GetLocked(tenant);
    if (state.in_flight > 0) --state.in_flight;
    --running_;
  }
  slot_freed_.notify_all();
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

AdmissionController::RunCounts AdmissionController::Runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {running_, static_cast<size_t>(turns_issued_ - next_turn_)};
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
