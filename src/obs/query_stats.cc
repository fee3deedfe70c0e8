#include "obs/query_stats.h"

#include <algorithm>
#include <iterator>

#include "obs/clock.h"

namespace gpml {
namespace obs {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv1a(const std::string& text, uint64_t h = kFnvOffset) {
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t HashPlanText(const std::string& explain_text) {
  return Fnv1a(explain_text);
}

uint64_t HashFingerprint(const std::string& fingerprint) {
  return Fnv1a(fingerprint);
}

QueryStatsStore::RecordOutcome QueryStatsStore::Record(
    const QueryObservation& obs) {
  ExecutionRecord record;
  record.plan_hash = obs.plan_hash;
  record.total_ms = obs.total_ms;
  record.rows = obs.rows;
  record.seeds = obs.seeds;
  record.steps = obs.steps;
  record.error = obs.error;
  record.truncated = obs.truncated;
  record.cache_hit = obs.cache_hit;
  record.batch_blocks = obs.batch_engaged ? 1 : 0;
  return Record(obs.tenant, obs.fingerprint, HashFingerprint(obs.fingerprint),
                obs.graph_token, record);
}

QueryStatsStore::RecordOutcome QueryStatsStore::Record(
    const std::string& tenant, const std::string& fingerprint,
    uint64_t fingerprint_hash, uint64_t graph_token,
    const ExecutionRecord& record) {
  RecordOutcome outcome;
  const uint64_t now_us = MonotonicMicros();
  const double total_ms = record.total_ms;
  const uint64_t latency_us =
      static_cast<uint64_t>(total_ms > 0 ? total_ms * 1e3 : 0.0);
  const size_t bucket = Histogram::BucketIndex(latency_us);
  // Fold the tenant in only when there is one: in-process hosts record
  // under "", whose key hash is then the precomputed fingerprint hash.
  uint64_t key_hash = fingerprint_hash;
  if (!tenant.empty()) {
    key_hash ^= Fnv1a(tenant) + 0x9e3779b97f4a7c15ull + (key_hash << 6) +
                (key_hash >> 2);
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;

  Lru::iterator pos = lru_.end();
  auto [first, last] = index_.equal_range(key_hash);
  for (auto it = first; it != last; ++it) {
    if (it->second->stats.fingerprint == fingerprint &&
        it->second->stats.tenant == tenant) {
      pos = it->second;
      break;
    }
  }
  if (pos == lru_.end()) {
    outcome.new_entry = true;
    if (lru_.size() >= capacity_) {
      // Evict the least-recently-updated entry.
      Lru::iterator victim = std::prev(lru_.end());
      auto [vfirst, vlast] = index_.equal_range(victim->key_hash);
      for (auto it = vfirst; it != vlast; ++it) {
        if (it->second == victim) {
          index_.erase(it);
          break;
        }
      }
      lru_.erase(victim);
      ++evictions_;
      outcome.evicted = true;
    }
    lru_.emplace_front();
    pos = lru_.begin();
    pos->key_hash = key_hash;
    pos->stats.fingerprint = fingerprint;
    pos->stats.tenant = tenant;
    pos->stats.latency_buckets.assign(Histogram::kNumBounds + 1, 0);
    index_.emplace(key_hash, pos);
  } else {
    lru_.splice(lru_.begin(), lru_, pos);
  }

  QueryStatEntry& s = pos->stats;
  const bool first_call = s.calls == 0;
  s.graph_token = graph_token;  // Last writer wins (stable in practice).
  ++s.calls;
  if (record.error) ++s.errors;
  if (record.truncated) ++s.truncations;
  s.rows += record.rows;
  s.seeds += record.seeds;
  s.steps += record.steps;
  if (record.cache_hit) {
    ++s.cache_hits;
  } else {
    ++s.cache_misses;
  }
  if (record.batch_blocks > 0) ++s.batch_calls;
  s.total_ms += total_ms;
  if (first_call || total_ms < s.min_ms) s.min_ms = total_ms;
  if (first_call || total_ms > s.max_ms) s.max_ms = total_ms;
  s.latency_buckets[bucket] += 1;

  // Plan ring: find the observation's plan among the remembered ones.
  const uint64_t plan_hash = record.plan_hash;
  PlanRecord* rec = nullptr;
  for (PlanRecord& p : s.plans) {
    if (p.plan_hash == plan_hash) {
      rec = &p;
      break;
    }
  }
  // back() is the plan currently in use; arriving under any other hash —
  // brand new or a remembered older plan — is a change.
  const bool current_plan =
      !s.plans.empty() && s.plans.back().plan_hash == plan_hash;
  if (!s.plans.empty() && !current_plan) {
    outcome.plan_changed = true;
    s.plan_changed = true;
    ++s.plan_changes;
  }
  if (rec == nullptr) {
    if (s.plans.size() >= kMaxPlans) {
      s.plans.erase(s.plans.begin());  // Drop the oldest remembered plan.
    }
    s.plans.push_back(PlanRecord{});
    rec = &s.plans.back();
    rec->plan_hash = plan_hash;
    rec->first_seen_us = now_us;
    rec->min_ms = total_ms;
    rec->max_ms = total_ms;
  } else if (!current_plan) {
    // Revisited an older remembered plan: move it to the current slot.
    PlanRecord revived = *rec;
    s.plans.erase(s.plans.begin() + (rec - s.plans.data()));
    s.plans.push_back(revived);
    rec = &s.plans.back();
  }
  rec->last_seen_us = now_us;
  ++rec->calls;
  rec->total_ms += total_ms;
  if (total_ms < rec->min_ms) rec->min_ms = total_ms;
  if (total_ms > rec->max_ms) rec->max_ms = total_ms;

  return outcome;
}

std::vector<QueryStatEntry> QueryStatsStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryStatEntry> out;
  out.reserve(lru_.size());
  for (const Entry& entry : lru_) out.push_back(entry.stats);
  return out;
}

uint64_t QueryStatsStore::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t QueryStatsStore::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t QueryStatsStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void QueryStatsStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

QueryStatsStore& GlobalQueryStats() {
  static QueryStatsStore* store = new QueryStatsStore();
  return *store;
}

}  // namespace obs
}  // namespace gpml
