#include "grid/index_io.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "grid/bit_packed.h"
#include "grid/block_max.h"
#include "grid/blocked_scan.h"
#include "grid/sharded_index.h"
#include "io/atomic_file.h"
#include "io/checked_reader.h"
#include "io/envelope.h"

namespace gir {

namespace {

// Shared envelope mechanics (io/envelope.h); every format below keeps its
// own error strings and validation policy.
using envio::PayloadBudget;
using envio::WithPath;
using envio::WriteDouble;
using envio::WriteDoubles;
using envio::WriteU32;
using envio::WriteU64;

constexpr char kMagic[8] = {'G', 'I', 'R', 'I', 'D', 'X', '0', '1'};
constexpr char kTauMagic[8] = {'G', 'I', 'R', 'T', 'A', 'U', '0', '1'};
constexpr char kDynMagic[8] = {'G', 'I', 'R', 'D', 'Y', 'N', '0', '1'};
constexpr char kBmxMagic[8] = {'G', 'I', 'R', 'B', 'M', 'X', '0', '1'};
constexpr char kShdMagic[8] = {'G', 'I', 'R', 'S', 'H', 'D', '0', '1'};

/// Partitioner boundary arrays are structurally capped far below this;
/// the embedded-count reads reject anything larger before allocating.
constexpr uint64_t kMaxBoundaryCount = 1u << 20;

uint32_t BitsForPartitions(size_t n) {
  uint32_t bits = 1;
  while ((size_t{1} << bits) < n) ++bits;
  return bits;
}

Status WritePacked(std::ostream& out, const ApproxVectors& cells,
                   size_t partitions) {
  auto packed = BitPackedVectors::Pack(cells, BitsForPartitions(partitions));
  if (!packed.ok()) return packed.status();
  const PackedBlob blob = packed.value().ToBlob();
  WriteU32(out, blob.bits_per_cell);
  WriteU32(out, blob.dim);
  WriteU64(out, blob.count);
  out.write(reinterpret_cast<const char*>(blob.payload.data()),
            static_cast<std::streamsize>(blob.payload.size()));
  return Status::OK();
}

/// `expected_count` / `expected_dim` come from the dataset the caller is
/// re-attaching to; a header that disagrees is rejected before the
/// payload size it implies is ever trusted (a forged count whose
/// BytesPerVector product wraps around would otherwise under-allocate and
/// let the unpack index out of range).
Result<ApproxVectors> ReadPacked(CheckedReader& reader, size_t expected_count,
                                 size_t expected_dim) {
  PackedBlob blob;
  if (!reader.ReadU32(&blob.bits_per_cell) || !reader.ReadU32(&blob.dim) ||
      !reader.ReadU64(&blob.count)) {
    return Status::Corruption("truncated packed header");
  }
  if (blob.bits_per_cell == 0 || blob.bits_per_cell > 8 || blob.dim == 0) {
    return Status::Corruption("invalid packed parameters");
  }
  if (blob.count != expected_count || blob.dim != expected_dim) {
    return Status::Corruption("packed shape does not match the dataset");
  }
  PayloadBudget budget(reader);
  if (!budget.Add(blob.count, blob.BytesPerVector()) || !budget.FitsFile()) {
    return Status::Corruption("packed payload exceeds the file size");
  }
  if (!reader.ReadArray(static_cast<size_t>(budget.total()),
                        &blob.payload)) {
    return Status::Corruption("truncated packed payload");
  }
  auto packed = BitPackedVectors::FromBlob(std::move(blob));
  if (!packed.ok()) return packed.status();
  return packed.value().Unpack();
}

Status SaveTauIndexToStream(std::ostream& out, const TauIndex& index) {
  out.write(kTauMagic, sizeof(kTauMagic));
  WriteU32(out, static_cast<uint32_t>(index.k_cap()));
  WriteU32(out, static_cast<uint32_t>(index.bins()));
  WriteU32(out, static_cast<uint32_t>(index.dim()));
  WriteU64(out, index.num_weights());
  WriteU64(out, index.num_points());
  const std::vector<double>& tau = index.tau();
  const std::vector<double>& score_max = index.score_max();
  const std::vector<uint32_t>& hist = index.hist_prefix();
  out.write(reinterpret_cast<const char*>(tau.data()),
            static_cast<std::streamsize>(tau.size() * sizeof(double)));
  out.write(reinterpret_cast<const char*>(score_max.data()),
            static_cast<std::streamsize>(score_max.size() * sizeof(double)));
  out.write(reinterpret_cast<const char*>(hist.data()),
            static_cast<std::streamsize>(hist.size() * sizeof(uint32_t)));
  return Status::OK();
}

/// `embedded` loads a GIRTAU01 section inside a larger envelope: payloads
/// may be followed by more envelope sections, so the no-trailing-bytes
/// check is skipped (the envelope loader does its own).
Result<TauIndex> LoadTauIndexFromStream(CheckedReader& reader,
                                        const Dataset& weights,
                                        bool embedded) {
  if (!reader.ReadMagic(kTauMagic)) {
    return Status::Corruption("bad tau index header");
  }
  uint32_t k_cap = 0, bins = 0, dim = 0;
  uint64_t num_weights = 0, num_points = 0;
  if (!reader.ReadU32(&k_cap) || !reader.ReadU32(&bins) ||
      !reader.ReadU32(&dim) || !reader.ReadU64(&num_weights) ||
      !reader.ReadU64(&num_points)) {
    return Status::Corruption("truncated tau index header");
  }
  if (k_cap == 0 || num_points == 0 || k_cap > num_points || bins < 2 ||
      bins > (1u << 20)) {
    return Status::Corruption("invalid tau index parameters");
  }
  if (dim != weights.dim() || num_weights != weights.size()) {
    return Status::Corruption(
        "tau index shape does not match the supplied weights");
  }
  // Vet the header-implied payload against the bytes actually present
  // before any allocation: k_cap and num_points are attacker-controlled,
  // and their products can reach allocation-bomb or wraparound territory.
  PayloadBudget budget(reader);
  if (!budget.Add(uint64_t{k_cap} * num_weights, sizeof(double)) ||
      !budget.Add(num_weights, sizeof(double)) ||
      !budget.Add(uint64_t{bins} * num_weights, sizeof(uint32_t))) {
    return Status::Corruption("tau index payload size overflows");
  }
  if (!budget.FitsFile()) {
    return Status::Corruption("tau index payload exceeds the file size");
  }
  std::vector<double> tau;
  std::vector<double> score_max;
  std::vector<uint32_t> hist;
  if (!reader.ReadArray(size_t{k_cap} * num_weights, &tau) ||
      !reader.ReadArray(num_weights, &score_max) ||
      !reader.ReadArray(size_t{bins} * num_weights, &hist)) {
    return Status::Corruption("truncated tau index payload");
  }
  if (!embedded && !reader.AtEnd()) {
    return Status::Corruption("trailing bytes after tau index");
  }
  return TauIndex::FromParts(weights, num_points, k_cap, bins,
                             std::move(tau), std::move(score_max),
                             std::move(hist));
}

void SaveBlockMaxToStream(std::ostream& out, const BlockMaxIndex& bmx) {
  out.write(kBmxMagic, sizeof(kBmxMagic));
  WriteU32(out, static_cast<uint32_t>(bmx.dim()));
  WriteU64(out, bmx.num_points());
  WriteU64(out, bmx.block_points());
  // Array lengths are implied by the header (2 * dim edges, 2 * dim *
  // num_blocks codes), so a forged length cannot disagree with the shape.
  out.write(reinterpret_cast<const char*>(bmx.dim_lo().data()),
            static_cast<std::streamsize>(bmx.dim_lo().size() *
                                         sizeof(double)));
  out.write(reinterpret_cast<const char*>(bmx.dim_hi().data()),
            static_cast<std::streamsize>(bmx.dim_hi().size() *
                                         sizeof(double)));
  out.write(reinterpret_cast<const char*>(bmx.qmin().data()),
            static_cast<std::streamsize>(bmx.qmin().size() *
                                         sizeof(uint16_t)));
  out.write(reinterpret_cast<const char*>(bmx.qmax().data()),
            static_cast<std::streamsize>(bmx.qmax().size() *
                                         sizeof(uint16_t)));
}

/// Parses a GIRBMX01 section and re-verifies its bounds against `points`
/// — the float fallback check: quantized bounds from an untrusted file
/// are only trusted after they provably bracket the raw doubles, since an
/// unsound bound would silently change query results (a merely loose one
/// cannot).
Result<BlockMaxIndex> LoadBlockMaxFromStream(CheckedReader& reader,
                                             const Dataset& points) {
  if (!reader.ReadMagic(kBmxMagic)) {
    return Status::Corruption("bad block-max section header");
  }
  uint32_t dim = 0;
  uint64_t num_points = 0, block_points = 0;
  if (!reader.ReadU32(&dim) || !reader.ReadU64(&num_points) ||
      !reader.ReadU64(&block_points)) {
    return Status::Corruption("truncated block-max header");
  }
  if (dim != points.dim() || num_points != points.size()) {
    return Status::Corruption(
        "block-max shape does not match the supplied points");
  }
  if (block_points == 0 || block_points > num_points + 8192) {
    return Status::Corruption("block-max block size out of range");
  }
  const uint64_t nb = (num_points + block_points - 1) / block_points;
  // Vet the header-implied payload against the bytes present before any
  // allocation; dim * nb products are attacker-controlled.
  PayloadBudget budget(reader);
  if (!budget.Add(uint64_t{dim} * 2, sizeof(double)) ||
      !budget.Add(uint64_t{dim} * nb * 2, sizeof(uint16_t))) {
    return Status::Corruption("block-max payload size overflows");
  }
  if (!budget.FitsFile()) {
    return Status::Corruption("block-max payload exceeds the file size");
  }
  std::vector<double> dim_lo, dim_hi;
  std::vector<uint16_t> qmin, qmax;
  if (!reader.ReadArray(dim, &dim_lo) || !reader.ReadArray(dim, &dim_hi) ||
      !reader.ReadArray(static_cast<size_t>(dim * nb), &qmin) ||
      !reader.ReadArray(static_cast<size_t>(dim * nb), &qmax)) {
    return Status::Corruption("truncated block-max payload");
  }
  auto bmx = BlockMaxIndex::FromParts(
      dim, num_points, block_points, std::move(dim_lo), std::move(dim_hi),
      std::move(qmin), std::move(qmax));
  if (!bmx.ok()) {
    return Status::Corruption("invalid block-max contents (" +
                              bmx.status().message() + ")");
  }
  if (!bmx.value().SoundFor(points)) {
    return Status::Corruption(
        "block-max bounds do not bracket the supplied points");
  }
  return bmx;
}

void WriteDataset(std::ostream& out, const Dataset& data) {
  WriteU64(out, data.size());
  out.write(reinterpret_cast<const char*>(data.flat().data()),
            static_cast<std::streamsize>(data.flat().size() *
                                         sizeof(double)));
}

Result<Dataset> ReadDataset(CheckedReader& reader, size_t dim) {
  uint64_t count = 0;
  if (!reader.ReadU64(&count)) {
    return Status::Corruption("truncated dataset header");
  }
  PayloadBudget budget(reader);
  if (!budget.Add(count, uint64_t{dim} * sizeof(double)) ||
      !budget.FitsFile()) {
    return Status::Corruption("dataset payload exceeds the file size");
  }
  std::vector<double> flat;
  if (!reader.ReadArray(static_cast<size_t>(count) * dim, &flat)) {
    return Status::Corruption("truncated dataset payload");
  }
  return Dataset::FromFlat(dim, std::move(flat));
}

}  // namespace

Status SaveGirIndex(const std::string& path, const GirIndex& index) {
  // Atomic replace (io/atomic_file.h): a crash or full disk mid-save can
  // never clobber the previous good file — the same contract the other
  // three Save* entry points below now share.
  return AtomicWriteFile(path, [&index](std::ostream& out) -> Status {
    out.write(kMagic, sizeof(kMagic));
    const GirOptions& options = index.options();
    WriteU32(out, static_cast<uint32_t>(options.partitions));
    WriteU32(out, static_cast<uint32_t>(options.bound_mode));
    WriteU32(out, options.use_domin ? 1 : 0);
    WriteU32(out, index.grid().point_partitioner().is_uniform() ? 1 : 0);
    WriteU32(out, index.grid().weight_partitioner().is_uniform() ? 1 : 0);
    WriteDoubles(out, index.grid().point_partitioner().boundaries());
    WriteDoubles(out, index.grid().weight_partitioner().boundaries());
    Status s = WritePacked(out, index.point_cells(),
                           index.grid().point_partitions());
    if (!s.ok()) return s;
    s = WritePacked(out, index.weight_cells(),
                    index.grid().weight_partitions());
    if (!s.ok()) return s;
    // Optional trailing section: the block-max skip structure, so loads
    // can arm the blocked engine's cursor without an O(n·d) rebuild.
    // Files written by indexes built with use_block_max off simply end
    // here, and old readers never looked past the weight cells.
    if (index.block_max() != nullptr) {
      SaveBlockMaxToStream(out, *index.block_max());
    }
    return Status::OK();
  });
}

Result<GirIndex> LoadGirIndex(const std::string& path, const Dataset& points,
                              const Dataset& weights, bool verify_cells) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  CheckedReader reader(in);
  if (!reader.ReadMagic(kMagic)) {
    return Status::Corruption("bad index header: " + path);
  }
  uint32_t partitions = 0, bound_mode = 0, use_domin = 0;
  uint32_t uniform_p = 0, uniform_w = 0;
  if (!reader.ReadU32(&partitions) || !reader.ReadU32(&bound_mode) ||
      !reader.ReadU32(&use_domin) || !reader.ReadU32(&uniform_p) ||
      !reader.ReadU32(&uniform_w)) {
    return Status::Corruption("truncated index options: " + path);
  }
  if (partitions == 0 || partitions > Partitioner::kMaxPartitions) {
    return Status::Corruption("partition count out of range: " + path);
  }
  if (bound_mode > static_cast<uint32_t>(BoundMode::kExactWeight)) {
    return Status::Corruption("unknown bound mode: " + path);
  }
  std::vector<double> p_bounds, w_bounds;
  if (!reader.ReadCountedDoubles(&p_bounds, kMaxBoundaryCount) ||
      !reader.ReadCountedDoubles(&w_bounds, kMaxBoundaryCount)) {
    return Status::Corruption("truncated boundaries: " + path);
  }
  if (p_bounds.size() > Partitioner::kMaxPartitions + 1 ||
      w_bounds.size() > Partitioner::kMaxPartitions + 1) {
    return Status::Corruption("boundary count out of range: " + path);
  }
  auto MakePartitioner = [](const std::vector<double>& bounds,
                            bool uniform) -> Result<Partitioner> {
    if (uniform) {
      if (bounds.size() < 2) {
        return Status::Corruption("invalid boundary count");
      }
      return Partitioner::Uniform(bounds.size() - 1, bounds.back());
    }
    return Partitioner::FromBoundaries(bounds);
  };
  auto pp = MakePartitioner(p_bounds, uniform_p != 0);
  if (!pp.ok()) return pp.status();
  auto wp = MakePartitioner(w_bounds, uniform_w != 0);
  if (!wp.ok()) return wp.status();

  auto point_cells = ReadPacked(reader, points.size(), points.dim());
  if (!point_cells.ok()) return point_cells.status();
  auto weight_cells = ReadPacked(reader, weights.size(), weights.dim());
  if (!weight_cells.ok()) return weight_cells.status();

  if (verify_cells) {
    auto check = [](const Dataset& data, const ApproxVectors& cells,
                    const Partitioner& part) {
      for (size_t i = 0; i < data.size(); ++i) {
        ConstRow row = data.row(i);
        for (size_t j = 0; j < data.dim(); ++j) {
          if (cells.row(i)[j] != part.CellOf(row[j])) return false;
        }
      }
      return true;
    };
    if (!check(points, point_cells.value(), pp.value()) ||
        !check(weights, weight_cells.value(), wp.value())) {
      return Status::Corruption(
          "persisted cells do not match the supplied datasets: " + path);
    }
  }

  // Optional trailing GIRBMX01 section. Legacy files end at the weight
  // cells; for those the skip structure is rebuilt from the points (one
  // O(n·d) pass), so old indexes gain the cursor on load too.
  std::shared_ptr<const BlockMaxIndex> bmx;
  // Remaining() peeks without consuming (AtEnd() would eat the first
  // magic byte of a present section).
  if (reader.Remaining() > 0) {
    auto loaded = LoadBlockMaxFromStream(reader, points);
    if (!loaded.ok()) return WithPath(loaded.status(), path);
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after block-max: " + path);
    }
    bmx = std::make_shared<const BlockMaxIndex>(std::move(loaded).value());
  } else {
    auto built = BlockMaxIndex::Build(
        points, BlockedScanner::BlockPointsFor(points.dim()));
    if (!built.ok()) return built.status();
    bmx = std::make_shared<const BlockMaxIndex>(std::move(built).value());
  }

  GirOptions options;
  options.partitions = partitions;
  options.bound_mode = static_cast<BoundMode>(bound_mode);
  options.use_domin = use_domin != 0;
  auto index = GirIndex::Assemble(points, weights, std::move(pp).value(),
                                  std::move(wp).value(),
                                  std::move(point_cells).value(),
                                  std::move(weight_cells).value(), options);
  if (!index.ok()) return index;
  Status attach = index.value().AttachBlockMax(std::move(bmx));
  if (!attach.ok()) {
    // A well-formed, sound section whose geometry nonetheless cannot arm
    // this build's scanner (e.g. a foreign block size) is corruption from
    // the loader's point of view.
    return Status::Corruption("unusable block-max section (" +
                              attach.message() + "): " + path);
  }
  return index;
}

Status SaveTauIndex(const std::string& path, const TauIndex& index) {
  return AtomicWriteFile(path, [&index](std::ostream& out) {
    return SaveTauIndexToStream(out, index);
  });
}

Result<TauIndex> LoadTauIndex(const std::string& path,
                              const Dataset& weights) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  CheckedReader reader(in);
  auto loaded = LoadTauIndexFromStream(reader, weights, /*embedded=*/false);
  if (!loaded.ok()) {
    return WithPath(loaded.status(), path);
  }
  return loaded;
}

namespace {

/// Writes one GIRDYN01 envelope to `out` — the body shared by the
/// standalone file writer and the GIRSHD01 per-shard blobs.
Status SaveDynamicIndexToStream(std::ostream& out,
                                const DynamicGirIndex& index) {
  const DynamicIndexOptions& options = index.options();
  const TauIndex* tau = index.base().tau_index();
  const bool save_tau =
      options.gir.scan_mode == ScanMode::kTauIndex && tau != nullptr;
  out.write(kDynMagic, sizeof(kDynMagic));
  WriteU64(out, index.generation());
  WriteU32(out, static_cast<uint32_t>(index.dim()));
  WriteU32(out, save_tau ? 1 : 0);
  WriteU32(out, static_cast<uint32_t>(options.gir.partitions));
  WriteU32(out, static_cast<uint32_t>(options.gir.bound_mode));
  WriteU32(out, options.gir.use_domin ? 1 : 0);
  WriteU32(out, static_cast<uint32_t>(options.gir.scan_mode));
  WriteU32(out, static_cast<uint32_t>(options.gir.tau.k_max));
  WriteU32(out, static_cast<uint32_t>(options.gir.tau.bins));
  WriteDouble(out, options.compact_threshold);
  WriteU32(out, options.auto_compact ? 1 : 0);
  WriteDataset(out, index.base_points());
  WriteDataset(out, index.base_weights());
  WriteDataset(out, index.delta_points());
  WriteDataset(out, index.delta_weights());
  auto write_bitmap = [&out](const std::vector<uint8_t>& bitmap) {
    out.write(reinterpret_cast<const char*>(bitmap.data()),
              static_cast<std::streamsize>(bitmap.size()));
  };
  write_bitmap(index.base_point_alive());
  write_bitmap(index.base_weight_alive());
  write_bitmap(index.delta_point_alive());
  write_bitmap(index.delta_weight_alive());
  if (save_tau) {
    Status s = SaveTauIndexToStream(out, *tau);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// Parses one GIRDYN01 envelope. `embedded` skips the no-trailing-bytes
/// check (the GIRSHD01 loader bounds each blob itself). Error strings are
/// path-free; the public entry points attach the filename via WithPath.
Result<DynamicGirIndex> LoadDynamicIndexFromStream(CheckedReader& reader,
                                                   bool embedded) {
  if (!reader.ReadMagic(kDynMagic)) {
    return Status::Corruption("bad dynamic index header");
  }
  uint64_t generation = 0;
  uint32_t dim = 0, flags = 0;
  uint32_t partitions = 0, bound_mode = 0, use_domin = 0, scan_mode = 0;
  uint32_t tau_k_max = 0, tau_bins = 0;
  double compact_threshold = 0.0;
  uint32_t auto_compact = 0;
  if (!reader.ReadU64(&generation) || !reader.ReadU32(&dim) ||
      !reader.ReadU32(&flags) || !reader.ReadU32(&partitions) ||
      !reader.ReadU32(&bound_mode) || !reader.ReadU32(&use_domin) ||
      !reader.ReadU32(&scan_mode) || !reader.ReadU32(&tau_k_max) ||
      !reader.ReadU32(&tau_bins) || !reader.ReadDouble(&compact_threshold) ||
      !reader.ReadU32(&auto_compact)) {
    return Status::Corruption("truncated dynamic index header");
  }
  if (dim == 0 || dim > (1u << 16)) {
    return Status::Corruption("dimension out of range");
  }
  if (flags > 1) {
    return Status::Corruption("unknown dynamic index flags");
  }
  if (partitions == 0 || partitions > Partitioner::kMaxPartitions) {
    return Status::Corruption("partition count out of range");
  }
  if (bound_mode > static_cast<uint32_t>(BoundMode::kExactWeight)) {
    return Status::Corruption("unknown bound mode");
  }
  if (scan_mode > static_cast<uint32_t>(ScanMode::kTauIndex)) {
    return Status::Corruption("unknown scan mode");
  }
  if (!(compact_threshold > 0.0) || compact_threshold > 1e6) {
    return Status::Corruption("compact threshold out of range");
  }
  DynamicIndexOptions options;
  options.gir.partitions = partitions;
  options.gir.bound_mode = static_cast<BoundMode>(bound_mode);
  options.gir.use_domin = use_domin != 0;
  options.gir.scan_mode = static_cast<ScanMode>(scan_mode);
  options.gir.tau.k_max = tau_k_max;
  options.gir.tau.bins = tau_bins;
  options.compact_threshold = compact_threshold;
  options.auto_compact = auto_compact != 0;

  auto base_points = ReadDataset(reader, dim);
  if (!base_points.ok()) return base_points.status();
  auto base_weights = ReadDataset(reader, dim);
  if (!base_weights.ok()) return base_weights.status();
  auto delta_points = ReadDataset(reader, dim);
  if (!delta_points.ok()) return delta_points.status();
  auto delta_weights = ReadDataset(reader, dim);
  if (!delta_weights.ok()) return delta_weights.status();
  PayloadBudget budget(reader);
  if (!budget.Add(base_points.value().size(), 1) ||
      !budget.Add(base_weights.value().size(), 1) ||
      !budget.Add(delta_points.value().size(), 1) ||
      !budget.Add(delta_weights.value().size(), 1) || !budget.FitsFile()) {
    return Status::Corruption("alive bitmaps exceed the file size");
  }
  std::vector<uint8_t> bp_alive, bw_alive, dp_alive, dw_alive;
  if (!reader.ReadArray(base_points.value().size(), &bp_alive) ||
      !reader.ReadArray(base_weights.value().size(), &bw_alive) ||
      !reader.ReadArray(delta_points.value().size(), &dp_alive) ||
      !reader.ReadArray(delta_weights.value().size(), &dw_alive)) {
    return Status::Corruption("truncated alive bitmaps");
  }
  std::shared_ptr<const TauIndex> tau;
  if ((flags & 1) != 0) {
    if (options.gir.scan_mode != ScanMode::kTauIndex) {
      return Status::Corruption("tau blob present but scan mode is not tau");
    }
    auto loaded = LoadTauIndexFromStream(reader, base_weights.value(),
                                         /*embedded=*/true);
    if (!loaded.ok()) return loaded.status();
    tau = std::make_shared<const TauIndex>(std::move(loaded).value());
  }
  if (!embedded && !reader.AtEnd()) {
    return Status::Corruption("trailing bytes after dynamic index");
  }
  auto index = DynamicGirIndex::FromParts(
      options, generation, std::move(base_points).value(),
      std::move(base_weights).value(), std::move(bp_alive),
      std::move(bw_alive), std::move(delta_points).value(),
      std::move(delta_weights).value(), std::move(dp_alive),
      std::move(dw_alive), std::move(tau));
  if (!index.ok()) {
    // A structurally well-formed file whose contents violate the index
    // invariants (bad bitmap bytes, dead shapes) is still corruption from
    // the loader's point of view.
    return Status::Corruption("invalid dynamic index contents (" +
                              index.status().message() + ")");
  }
  return index;
}

}  // namespace

Status SaveDynamicIndex(const std::string& path,
                        const DynamicGirIndex& index) {
  return AtomicWriteFile(path, [&index](std::ostream& out) {
    return SaveDynamicIndexToStream(out, index);
  });
}

Result<DynamicGirIndex> LoadDynamicIndex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  CheckedReader reader(in);
  auto loaded = LoadDynamicIndexFromStream(reader, /*embedded=*/false);
  if (!loaded.ok()) return WithPath(loaded.status(), path);
  return loaded;
}

Status SaveShardedIndex(const std::string& path,
                        const ShardedGirIndex& index) {
  // Drain every admitted operation first: the shard snapshots below read
  // raw shard state, which is only stable once the lanes are empty. A
  // caller racing new mutations against Save gets some consistent prefix.
  index.Quiesce();
  return AtomicWriteFile(path, [&index](std::ostream& out) -> Status {
    const std::vector<uint32_t> owner = index.WeightOwners();
    out.write(kShdMagic, sizeof(kShdMagic));
    WriteU32(out, static_cast<uint32_t>(index.shard_count()));
    WriteU32(out, static_cast<uint32_t>(index.dim()));
    WriteU64(out, index.sequence());
    WriteU64(out, index.weight_insert_counter());
    WriteU64(out, index.live_point_count());
    WriteU64(out, owner.size());
    out.write(reinterpret_cast<const char*>(owner.data()),
              static_cast<std::streamsize>(owner.size() * sizeof(uint32_t)));
    // Each shard is one length-prefixed, generation-stamped GIRDYN01 blob
    // — the same envelope the standalone writer emits, so the shard
    // format inherits every GIRDYN01 validation on the way back in.
    for (size_t s = 0; s < index.shard_count(); ++s) {
      std::ostringstream blob(std::ios::binary);
      Status st = SaveDynamicIndexToStream(blob, index.shard(s));
      if (!st.ok()) return st;
      const std::string bytes = std::move(blob).str();
      WriteU64(out, bytes.size());
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return Status::OK();
  });
}

namespace {

/// Parses the GIRSHD01 header + owner map (everything before the shard
/// blobs), with the same validation battery LoadShardedIndex has always
/// applied — shared by the full loader, the manifest loader and the
/// single-lane extractor.
Status ReadShardedHeader(CheckedReader& reader, const std::string& path,
                         ShardedManifest* out) {
  if (!reader.ReadMagic(kShdMagic)) {
    return Status::Corruption("bad sharded index header: " + path);
  }
  uint64_t num_weights = 0;
  if (!reader.ReadU32(&out->shard_count) || !reader.ReadU32(&out->dim) ||
      !reader.ReadU64(&out->sequence) ||
      !reader.ReadU64(&out->insert_counter) ||
      !reader.ReadU64(&out->live_points) || !reader.ReadU64(&num_weights)) {
    return Status::Corruption("truncated sharded index header: " + path);
  }
  if (out->shard_count == 0 || out->shard_count > ShardedGirIndex::kMaxShards) {
    return Status::Corruption("shard count out of range: " + path);
  }
  if (out->dim == 0 || out->dim > (1u << 16)) {
    return Status::Corruption("dimension out of range: " + path);
  }
  if (out->insert_counter < num_weights) {
    return Status::Corruption("weight insert counter below the live count: " +
                              path);
  }
  PayloadBudget owner_budget(reader);
  if (!owner_budget.Add(num_weights, sizeof(uint32_t)) ||
      !owner_budget.FitsFile()) {
    return Status::Corruption("owner map exceeds the file size: " + path);
  }
  if (!reader.ReadArray(static_cast<size_t>(num_weights), &out->owner)) {
    return Status::Corruption("truncated owner map: " + path);
  }
  for (uint32_t s : out->owner) {
    if (s >= out->shard_count) {
      return Status::Corruption("weight owner out of range: " + path);
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ShardedGirIndex>> LoadShardedIndex(
    const std::string& path, bool background_compact) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  CheckedReader reader(in);
  ShardedManifest manifest;
  Status header = ReadShardedHeader(reader, path, &manifest);
  if (!header.ok()) return header;
  const uint32_t num_shards = manifest.shard_count;
  const uint32_t dim = manifest.dim;
  const uint64_t sequence = manifest.sequence;
  const uint64_t insert_counter = manifest.insert_counter;
  const uint64_t live_points = manifest.live_points;
  std::vector<uint32_t> owner = std::move(manifest.owner);
  std::vector<std::unique_ptr<DynamicGirIndex>> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    uint64_t blob_bytes = 0;
    if (!reader.ReadU64(&blob_bytes)) {
      return Status::Corruption("truncated shard blob header: " + path);
    }
    PayloadBudget blob_budget(reader);
    if (!blob_budget.Add(blob_bytes, 1) || !blob_budget.FitsFile()) {
      return Status::Corruption("shard blob exceeds the file size: " + path);
    }
    // Parse the blob from its own bounded stream so the embedded GIRDYN01
    // envelope gets the full standalone validation battery, including the
    // trailing-garbage check at the declared blob boundary.
    std::vector<char> bytes;
    if (!reader.ReadArray(static_cast<size_t>(blob_bytes), &bytes)) {
      return Status::Corruption("truncated shard blob: " + path);
    }
    std::istringstream blob_in(std::string(bytes.data(), bytes.size()),
                               std::ios::binary);
    CheckedReader blob_reader(blob_in);
    auto loaded = LoadDynamicIndexFromStream(blob_reader, /*embedded=*/false);
    if (!loaded.ok()) {
      return WithPath(
          Status::Corruption("shard " + std::to_string(s) + ": " +
                             loaded.status().message()),
          path);
    }
    shards.push_back(
        std::make_unique<DynamicGirIndex>(std::move(loaded).value()));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after sharded index: " + path);
  }
  if (shards[0]->dim() != dim ||
      shards[0]->live_point_count() != live_points) {
    return Status::Corruption(
        "sharded header disagrees with the shard blobs: " + path);
  }
  ShardedIndexOptions options;
  options.shards = num_shards;
  options.dynamic = shards[0]->options();
  options.background_compact = background_compact;
  auto index = ShardedGirIndex::FromParts(std::move(options),
                                          std::move(shards), std::move(owner),
                                          sequence, insert_counter);
  if (!index.ok()) {
    return Status::Corruption("invalid sharded index contents (" +
                              index.status().message() + "): " + path);
  }
  return index;
}

Result<ShardedManifest> LoadShardedManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  CheckedReader reader(in);
  ShardedManifest manifest;
  Status header = ReadShardedHeader(reader, path, &manifest);
  if (!header.ok()) return header;
  return manifest;
}

Result<DynamicGirIndex> LoadShardLane(const std::string& path,
                                      uint32_t lane) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  CheckedReader reader(in);
  ShardedManifest manifest;
  Status header = ReadShardedHeader(reader, path, &manifest);
  if (!header.ok()) return header;
  if (lane >= manifest.shard_count) {
    return Status::InvalidArgument(
        "shard lane " + std::to_string(lane) + " out of range (file has " +
        std::to_string(manifest.shard_count) + " shards): " + path);
  }
  for (uint32_t s = 0; s <= lane; ++s) {
    uint64_t blob_bytes = 0;
    if (!reader.ReadU64(&blob_bytes)) {
      return Status::Corruption("truncated shard blob header: " + path);
    }
    PayloadBudget blob_budget(reader);
    if (!blob_budget.Add(blob_bytes, 1) || !blob_budget.FitsFile()) {
      return Status::Corruption("shard blob exceeds the file size: " + path);
    }
    std::vector<char> bytes;
    if (!reader.ReadArray(static_cast<size_t>(blob_bytes), &bytes)) {
      return Status::Corruption("truncated shard blob: " + path);
    }
    if (s < lane) continue;  // a preceding lane: skipped by its length
    std::istringstream blob_in(std::string(bytes.data(), bytes.size()),
                               std::ios::binary);
    CheckedReader blob_reader(blob_in);
    auto loaded = LoadDynamicIndexFromStream(blob_reader, /*embedded=*/false);
    if (!loaded.ok()) {
      return WithPath(Status::Corruption("shard " + std::to_string(s) + ": " +
                                         loaded.status().message()),
                      path);
    }
    return loaded;
  }
  return Status::Internal("unreachable");
}

}  // namespace gir
