#include "eval/selector.h"

#include <algorithm>
#include <map>
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
      return p.lengths.size() < static_cast<size_t>(sel.k) ||
             std::find(p.lengths.begin(), p.lengths.end(), len) !=
                 p.lengths.end();
    case Selector::Kind::kNone:
      return true;
  }
  return true;
}

void SelectorRecordKept(const Selector& sel, SelectorPartition* p,
                        uint32_t len) {
  if (p->kept == 0) p->min_len = len;
  if (sel.kind == Selector::Kind::kShortestKGroup &&
      std::find(p->lengths.begin(), p->lengths.end(), len) ==
          p->lengths.end()) {
    p->lengths.push_back(len);
  }
  ++p->kept;
}

void ApplySelector(const Selector& sel, std::vector<PathBinding>* bindings) {
  if (sel.IsNone()) return;

  std::map<std::pair<NodeId, NodeId>, SelectorPartition> parts;
  std::vector<PathBinding> kept;
  kept.reserve(bindings->size());

  for (PathBinding& pb : *bindings) {
    SelectorPartition& p = parts[{pb.path.Start(), pb.path.End()}];
    uint32_t len = static_cast<uint32_t>(pb.path.Length());
    if (!SelectorKeeps(sel, p, len)) continue;
    SelectorRecordKept(sel, &p, len);
    kept.push_back(std::move(pb));
  }
  *bindings = std::move(kept);
}

}  // namespace gpml
