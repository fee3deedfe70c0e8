#include "eval/selector.h"

#include <utility>

namespace gpml {

bool SelectorKeeps(const Selector& sel, const SelectorPartition& p,
                   uint32_t len) {
  switch (sel.kind) {
    case Selector::Kind::kAny:
    case Selector::Kind::kAnyShortest:
      // First (= shortest, thanks to the length ordering) per partition.
      return p.kept == 0;
    case Selector::Kind::kAllShortest:
      return p.kept == 0 || len == p.min_len;
    case Selector::Kind::kAnyK:
    case Selector::Kind::kShortestK:
      return p.kept < static_cast<size_t>(sel.k);
    case Selector::Kind::kShortestKGroup:
      return p.groups < static_cast<uint32_t>(sel.k) ||
             (p.kept > 0 && len == p.last_len);
    case Selector::Kind::kNone:
      return true;
  }
  return true;
}

void SelectorRecordKept(SelectorPartition* p, uint32_t len) {
  if (p->kept == 0) p->min_len = len;
  if (p->kept == 0 || len != p->last_len) ++p->groups;
  p->last_len = len;
  ++p->kept;
}

void ApplySelector(const Selector& sel, std::vector<PathBinding>* bindings) {
  if (sel.IsNone()) return;

  SelectorPartitions parts;
  std::vector<PathBinding> kept;
  kept.reserve(bindings->size());

  for (PathBinding& pb : *bindings) {
    SelectorPartition& p = parts.Of(pb.path.Start(), pb.path.End());
    uint32_t len = static_cast<uint32_t>(pb.path.Length());
    if (!SelectorKeeps(sel, p, len)) continue;
    SelectorRecordKept(&p, len);
    kept.push_back(std::move(pb));
  }
  *bindings = std::move(kept);
}

}  // namespace gpml
