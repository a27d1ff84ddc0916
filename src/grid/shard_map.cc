#include "grid/shard_map.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace gir {

std::vector<uint32_t> ShardMap::RoundRobin(size_t shards, size_t weights) {
  std::vector<uint32_t> owner(weights);
  for (size_t i = 0; i < weights; ++i) {
    owner[i] = static_cast<uint32_t>(i % shards);
  }
  return owner;
}

ShardMap::ShardMap(size_t shards, std::vector<uint32_t> owner,
                   uint64_t insert_counter)
    : owner_(std::move(owner)), insert_counter_(insert_counter) {
  std::vector<std::vector<VectorId>> maps(shards);
  for (size_t g = 0; g < owner_.size(); ++g) {
    maps[owner_[g]].push_back(static_cast<VectorId>(g));
  }
  to_global_.reserve(shards);
  for (auto& map : maps) {
    to_global_.push_back(
        std::make_shared<const std::vector<VectorId>>(std::move(map)));
  }
}

uint32_t ShardMap::AddWeight() {
  const uint32_t s = next_owner();
  ++insert_counter_;
  const VectorId g = static_cast<VectorId>(owner_.size());
  owner_.push_back(s);
  auto next = std::make_shared<std::vector<VectorId>>(*to_global_[s]);
  next->push_back(g);
  to_global_[s] = std::move(next);
  return s;
}

VectorId ShardMap::LocalId(VectorId g) const {
  // The weight's position in its owner's strictly increasing map.
  const std::vector<VectorId>& map = *to_global_[owner_[g]];
  return static_cast<VectorId>(std::lower_bound(map.begin(), map.end(), g) -
                               map.begin());
}

void ShardMap::RemoveWeight(VectorId g) {
  owner_.erase(owner_.begin() + g);
  // Every later global id shifts down by one, so every shard's map is
  // republished (the owner's also drops the entry itself). O(|W|) of u32
  // traffic, and in-flight queries keep the cut they pinned.
  for (IdMap& map : to_global_) {
    auto next = std::make_shared<std::vector<VectorId>>();
    next->reserve(map->size());
    for (VectorId id : *map) {
      if (id == g) continue;
      next->push_back(id > g ? id - 1 : id);
    }
    map = std::move(next);
  }
}

namespace {

/// k-way merge of sorted lists, stopping after `limit` entries.
template <typename T>
std::vector<T> KWayMerge(std::vector<std::vector<T>>& parts, size_t limit) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  const size_t take = std::min(limit, total);
  std::vector<T> out;
  out.reserve(take);
  std::vector<size_t> pos(parts.size(), 0);
  while (out.size() < take) {
    size_t best = parts.size();
    for (size_t s = 0; s < parts.size(); ++s) {
      if (pos[s] >= parts[s].size()) continue;
      if (best == parts.size() || parts[s][pos[s]] < parts[best][pos[best]]) {
        best = s;
      }
    }
    out.push_back(parts[best][pos[best]++]);
  }
  return out;
}

/// Shard-local to global ids, in place. The map is strictly increasing, so
/// an answer's order is preserved.
void ToGlobal(ReverseTopKResult& answer, const std::vector<VectorId>& map) {
  for (VectorId& id : answer) id = map[id];
}

void ToGlobal(ReverseKRanksResult& answer, const std::vector<VectorId>& map) {
  for (RankedWeight& e : answer) e.weight_id = map[e.weight_id];
}

template <typename Answer>
std::vector<Answer> CollectGlobal(std::vector<Answer>& parts,
                                  const std::vector<ShardMap::IdMap>& maps,
                                  const std::vector<uint32_t>& shards) {
  std::vector<Answer> mapped;
  mapped.reserve(shards.size());
  for (uint32_t s : shards) {
    ToGlobal(parts[s], *maps[s]);
    mapped.push_back(std::move(parts[s]));
  }
  return mapped;
}

ReverseTopKResult MergeRtk(std::vector<ReverseTopKResult>& parts) {
  return KWayMerge(parts, std::numeric_limits<size_t>::max());
}

ReverseKRanksResult MergeRkr(std::vector<ReverseKRanksResult>& parts,
                             size_t k) {
  return KWayMerge(parts, k);
}

}  // namespace

ReverseTopKResult MergeShards(std::vector<ReverseTopKResult>& parts,
                              const std::vector<ShardMap::IdMap>& maps,
                              const std::vector<uint32_t>& shards,
                              size_t /*k*/) {
  std::vector<ReverseTopKResult> mapped = CollectGlobal(parts, maps, shards);
  return MergeRtk(mapped);
}

ReverseKRanksResult MergeShards(std::vector<ReverseKRanksResult>& parts,
                                const std::vector<ShardMap::IdMap>& maps,
                                const std::vector<uint32_t>& shards,
                                size_t k) {
  std::vector<ReverseKRanksResult> mapped = CollectGlobal(parts, maps, shards);
  return MergeRkr(mapped, k);
}

}  // namespace gir
