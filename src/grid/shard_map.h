#ifndef GIR_GRID_SHARD_MAP_H_
#define GIR_GRID_SHARD_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/query_types.h"
#include "core/types.h"

namespace gir {

/// ShardMap — the weight-id bookkeeping of a weight-partitioned index,
/// shared by ShardedGirIndex (in-process lanes) and DistRouter (remote
/// lanes); DESIGN.md §15.
///
/// Weight i, counted over every insert ever (the insert counter), lives on
/// shard i mod N. The map keeps the global live order — insertion order
/// filtered to alive, exactly the single-index live-id rule — twice: as
/// the owning shard of every global live id, and as one strictly
/// increasing local→global map per shard. The per-shard maps are
/// copy-on-write: a query pins them at admission and keeps that cut while
/// later mutations publish fresh ones.
///
/// Not synchronized: each router keeps its map under its admission mutex.
class ShardMap {
 public:
  /// One shard's local→global live-id map (strictly increasing).
  using IdMap = std::shared_ptr<const std::vector<VectorId>>;

  /// Owners of `weights` initially placed weights over `shards` shards.
  static std::vector<uint32_t> RoundRobin(size_t shards, size_t weights);

  /// REQUIRES every owner < shards.
  ShardMap(size_t shards, std::vector<uint32_t> owner,
           uint64_t insert_counter);

  size_t shards() const { return to_global_.size(); }
  size_t live_weights() const { return owner_.size(); }
  /// Owning shard of every global live weight, in global live order.
  const std::vector<uint32_t>& owners() const { return owner_; }
  uint64_t insert_counter() const { return insert_counter_; }
  size_t shard_weights(size_t s) const { return to_global_[s]->size(); }

  /// The shard the next inserted weight goes to.
  uint32_t next_owner() const {
    return static_cast<uint32_t>(insert_counter_ % shards());
  }
  /// Places the next inserted weight on next_owner() as the newest global
  /// live id and advances the round-robin cursor; returns its shard.
  uint32_t AddWeight();
  /// Advances the cursor without placing a weight (an insert whose owner
  /// cannot take it), so later inserts still rotate.
  void SkipWeight() { ++insert_counter_; }

  /// REQUIRES g < live_weights().
  uint32_t owner_of(VectorId g) const { return owner_[g]; }
  /// Shard-local id of global live weight g on its owner.
  VectorId LocalId(VectorId g) const;
  /// Drops global live weight g. Every later global id shifts down by one,
  /// as single-index live ids renumber after a delete.
  void RemoveWeight(VectorId g);

  /// The current per-shard maps, for a query to pin at admission.
  std::vector<IdMap> Pin() const { return to_global_; }

 private:
  std::vector<uint32_t> owner_;
  std::vector<IdMap> to_global_;
  uint64_t insert_counter_;
};

/// Maps the answers of `shards` (shard-local ids, in `parts[s]`) through
/// the pinned `maps` and k-way merges them; answers of shards not listed
/// are ignored, and the parts are consumed. Reverse top-k answers are
/// disjoint, so their merge is a sorted union. Reverse k-ranks answers
/// merge by the (rank, weight_id) tie rule, truncated to k — exact because
/// every shard answered its own full top k: one shard may own all k
/// global winners, so a per-shard k/N would not be (DESIGN.md §15).
ReverseTopKResult MergeShards(std::vector<ReverseTopKResult>& parts,
                              const std::vector<ShardMap::IdMap>& maps,
                              const std::vector<uint32_t>& shards, size_t k);
ReverseKRanksResult MergeShards(std::vector<ReverseKRanksResult>& parts,
                                const std::vector<ShardMap::IdMap>& maps,
                                const std::vector<uint32_t>& shards,
                                size_t k);

/// MergeShards per query over batch answers (`parts[s][qi]`).
template <typename Answer>
std::vector<Answer> MergeShardBatches(
    std::vector<std::vector<Answer>>& parts,
    const std::vector<ShardMap::IdMap>& maps,
    const std::vector<uint32_t>& shards, size_t k, size_t num_queries) {
  std::vector<Answer> out(num_queries);
  std::vector<Answer> one(parts.size());
  for (size_t qi = 0; qi < num_queries; ++qi) {
    for (uint32_t s : shards) one[s] = std::move(parts[s][qi]);
    out[qi] = MergeShards(one, maps, shards, k);
  }
  return out;
}

}  // namespace gir

#endif  // GIR_GRID_SHARD_MAP_H_
