#ifndef GIR_GRID_INDEX_IO_H_
#define GIR_GRID_INDEX_IO_H_

#include <memory>
#include <string>

#include "core/status.h"
#include "grid/dynamic_index.h"
#include "grid/gir_queries.h"
#include "grid/sharded_index.h"

namespace gir {

/// Persistence of a built GirIndex — the paper's §3.2 storage pipeline:
/// the approximate vectors are written bit-packed (b bits per cell,
/// b = ceil(log2(n))), so the on-disk index is a small fraction of the
/// original data, and queries can start from the packed file instead of
/// re-quantizing P and W.
///
/// File layout (little-endian): magic "GIRIDX01"; options (partitions,
/// bound mode, use_domin); both partitioners' boundary arrays (so
/// adaptive grids round-trip too); both cell arrays as bit-packed blobs.

/// Writes `index` to `path`, replacing any existing file.
Status SaveGirIndex(const std::string& path, const GirIndex& index);

/// Loads an index previously written with SaveGirIndex and re-attaches it
/// to `points` / `weights`, which must be the datasets the index was
/// built from (shape and range are validated; cell contents are trusted —
/// pass `verify_cells = true` to re-check every cell against the data).
/// Hostile headers (shape mismatches, payload sizes that disagree with
/// the file size, out-of-range partition counts) are rejected as
/// Corruption before anything is allocated from them.
Result<GirIndex> LoadGirIndex(const std::string& path, const Dataset& points,
                              const Dataset& weights,
                              bool verify_cells = false);

/// Persistence of a τ-index (grid/tau_index.h). File layout
/// (little-endian): magic "GIRTAU01"; k_cap, bins, dim as u32; |W|, |P| as
/// u64; then the raw component arrays — τ (k_cap·|W| doubles, k-major),
/// per-weight max scores (|W| doubles), prefix-summed histograms
/// (|W|·bins u32). Sizes are implied by the header; the loader checks the
/// implied payload (computed overflow-safely) against the actual file
/// size before allocating, so truncation, trailing garbage and
/// allocation-bomb headers are all rejected, and the arrays' internal
/// invariants (sorted τ rows, monotone prefixes summing to |P|) are
/// re-validated before accepting the file.
Status SaveTauIndex(const std::string& path, const TauIndex& index);

/// Loads a τ-index written with SaveTauIndex. `weights` must be the
/// preference set it was built from (the column mirror is rebuilt from
/// it); shape mismatches are rejected as Corruption.
Result<TauIndex> LoadTauIndex(const std::string& path,
                              const Dataset& weights);

/// Persistence of a DynamicGirIndex — the generation-stamped "GIRDYN01"
/// envelope. Unlike GIRIDX01, the envelope embeds the datasets themselves
/// (a churned index has no external file to re-attach to): magic; u64
/// generation; u32 dim; u32 flags (bit 0: τ blob present); the options
/// block; the four datasets (base/delta × points/weights, each u64 count
/// + raw doubles); the four alive bitmaps (raw bytes, sizes implied); and,
/// when the index runs in τ mode, the base generation's τ-index as an
/// embedded GIRTAU01 section so loading skips the P×W sweep. The grid and
/// the delta correction structures are deterministic functions of the
/// payload and are rebuilt at load.
Status SaveDynamicIndex(const std::string& path,
                        const DynamicGirIndex& index);

/// Loads an index written with SaveDynamicIndex. The result answers
/// queries bit-identically to the saved instance (same base generation,
/// same delta buffer, same tombstones).
Result<DynamicGirIndex> LoadDynamicIndex(const std::string& path);

/// Persistence of a ShardedGirIndex — the "GIRSHD01" sharded envelope.
/// Layout (little-endian): magic; u32 shard count; u32 dim; u64 admitted
/// sequence number; u64 round-robin weight insert counter; u64 live point
/// count; u64 live weight count followed by the owner map (u32 shard id
/// per global live weight, in global live order); then, per shard, a u64
/// byte length and an embedded generation-stamped GIRDYN01 blob. The
/// writer quiesces the router first, so the file captures one consistent
/// cut of the operation stream.
Status SaveShardedIndex(const std::string& path,
                        const ShardedGirIndex& index);

/// Loads a router written with SaveShardedIndex. Header fields and the
/// owner map are vetted against the file size and the shard count before
/// anything is allocated from them; each shard blob is parsed with the
/// full standalone GIRDYN01 validation battery; and the reassembled
/// router replays bit-identically to the saved instance.
/// `background_compact` picks the loaded router's compaction mode (the
/// envelope does not pin it — it is a deployment choice, not index
/// state).
Result<std::unique_ptr<ShardedGirIndex>> LoadShardedIndex(
    const std::string& path, bool background_compact = false);

/// The GIRSHD01 header + owner map without the shard blobs — what the
/// distributed router needs to boot: the cluster shape (shard count, dim,
/// sequence, insert counter) and the weight→owner assignment, leaving the
/// per-shard payloads to the shard servers that own them.
struct ShardedManifest {
  uint32_t shard_count = 0;
  uint32_t dim = 0;
  uint64_t sequence = 0;
  /// Round-robin weight insert counter (>= owner.size(); the difference
  /// is deleted weights).
  uint64_t insert_counter = 0;
  uint64_t live_points = 0;
  /// Owning shard id per global live weight, in global live order.
  std::vector<uint32_t> owner;
};

/// Reads the GIRSHD01 header + owner map of `path`, validated exactly as
/// LoadShardedIndex validates them, without touching the shard blobs.
Result<ShardedManifest> LoadShardedManifest(const std::string& path);

/// Extracts shard `lane` of a GIRSHD01 envelope as a standalone
/// DynamicGirIndex — the `gir_cli shard split` / `gir_serve --shard-lane`
/// loading path: preceding blobs are skipped by their length prefixes and
/// the selected blob gets the full standalone GIRDYN01 validation battery.
Result<DynamicGirIndex> LoadShardLane(const std::string& path, uint32_t lane);

}  // namespace gir

#endif  // GIR_GRID_INDEX_IO_H_
