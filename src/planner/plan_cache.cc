#include "planner/plan_cache.h"

#include "ast/print.h"
#include "obs/execution_record.h"

namespace gpml {
namespace planner {

std::string PlanFingerprint(const GraphPattern& pattern) {
  // Print covers mode, every declaration (selector, restrictor, path var,
  // pattern) and the postfilter WHERE; parse(Print(x)) == x structurally, so
  // the rendering is injective on parseable patterns.
  return Print(pattern);
}

std::shared_ptr<const CachedPlan> LookupPlan(const PropertyGraph& g,
                                             const std::string& fingerprint,
                                             obs::MetricsRegistry* registry) {
  std::shared_ptr<const PlanCache> cache = g.plan_cache();
  std::shared_ptr<const CachedPlan> entry;
  if (cache != nullptr && cache->graph_token == g.identity_token()) {
    auto it = cache->entries.find(fingerprint);
    if (it != cache->entries.end()) entry = it->second;
  }
  if (registry != nullptr) {
    obs::ExecutionSeries& series = registry->execution_series();
    (entry != nullptr ? series.plan_cache_hits : series.plan_cache_misses)
        ->Increment();
  }
  return entry;
}

void StorePlan(const PropertyGraph& g, const std::string& fingerprint,
               std::shared_ptr<const CachedPlan> entry) {
  std::shared_ptr<const PlanCache> cur = g.plan_cache();
  auto next = std::make_shared<PlanCache>();
  next->graph_token = g.identity_token();
  if (cur != nullptr && cur->graph_token == g.identity_token() &&
      cur->entries.size() < kPlanCacheMaxEntries) {
    next->entries = cur->entries;  // Shallow: values are shared immutables.
  }
  next->entries[fingerprint] = std::move(entry);
  g.set_plan_cache(std::move(next));
}

}  // namespace planner
}  // namespace gpml
