#include "dist/router_core.h"

#include <cstdlib>
#include <sstream>
#include <utility>

namespace gir {

namespace {

uint64_t Bit(size_t s) { return uint64_t{1} << s; }

/// A version no shard ever reports: a batch answer of the wrong length
/// cannot come from the pinned history either, so it fails the check.
constexpr uint64_t kNoVersion = ~uint64_t{0};

/// Fills `out`. An op is degraded unless it covered every shard it
/// needed; degraded ops are counted in `degraded`.
void Cover(uint64_t version, uint64_t coverage, uint64_t needed,
           uint32_t shards, std::atomic<uint64_t>& degraded,
           DistCoverage* out) {
  out->version = version;
  out->coverage = coverage;
  out->shard_count = shards;
  out->degraded = coverage != needed;
  if (out->degraded) degraded.fetch_add(1, std::memory_order_relaxed);
}

/// A fan-out RPC that stores shard s's answer in parts[s].
template <typename Answer, typename Call>
auto StoreInto(std::vector<Answer>& parts, Call call) {
  return [&parts, call](size_t s, uint64_t* version) -> Status {
    Result<Answer> r = call(s, version);
    if (!r.ok()) return r.status();
    parts[s] = std::move(r).value();
    return Status::OK();
  };
}

const char* BreakerName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

}  // namespace

DistRouter::DistRouter(ShardedManifest manifest,
                       std::vector<ShardEndpoint> endpoints,
                       ShardClientOptions client_options)
    : shard_count_(manifest.shard_count),
      dim_(manifest.dim),
      endpoints_(std::move(endpoints)),
      sequence_(manifest.sequence),
      live_points_(manifest.live_points),
      map_(manifest.shard_count, std::move(manifest.owner),
           manifest.insert_counter),
      admitted_muts_(shard_count_, 0),
      desynced_(shard_count_, false) {
  for (uint32_t s = 0; s < shard_count_ && s < endpoints_.size(); ++s) {
    clients_.push_back(std::make_unique<ShardClient>(
        endpoints_[s].host, endpoints_[s].port, client_options));
  }
}

DistRouter::~DistRouter() { Shutdown(); }

Status DistRouter::Connect() {
  if (endpoints_.size() != shard_count_) {
    return Status::InvalidArgument(
        "endpoint count " + std::to_string(endpoints_.size()) +
        " != manifest shard count " + std::to_string(shard_count_));
  }
  for (uint32_t s = 0; s < shard_count_; ++s) {
    Status c = clients_[s]->Connect();
    if (!c.ok()) {
      return Status::IOError("shard " + std::to_string(s) + " (" +
                             endpoints_[s].host + ":" +
                             std::to_string(endpoints_[s].port) +
                             "): " + c.message());
    }
    uint64_t boot_version = 0;
    Result<NetInfo> info = clients_[s]->Info(&boot_version);
    if (!info.ok()) {
      return Status::IOError("shard " + std::to_string(s) +
                             " info: " + info.status().message());
    }
    if (info.value().dim != dim_) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " dim " +
          std::to_string(info.value().dim) + " != manifest dim " +
          std::to_string(dim_));
    }
    if (info.value().live_points != live_points_) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " live points " +
          std::to_string(info.value().live_points) + " != manifest " +
          std::to_string(live_points_));
    }
    if (info.value().live_weights != map_.shard_weights(s)) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " live weights " +
          std::to_string(info.value().live_weights) +
          " != manifest owner map " + std::to_string(map_.shard_weights(s)));
    }
    // The shard's boot version is its local baseline; every admitted
    // mutation advances it by one, which each response re-verifies.
    admitted_muts_[s] = boot_version;
  }
  lanes_ = std::make_unique<ShardLanes>(shard_count_);
  return Status::OK();
}

void DistRouter::Shutdown() { lanes_.reset(); }

void DistRouter::MarkDesyncedLocked(size_t s) {
  if (!desynced_[s]) {
    desynced_[s] = true;
    desync_events_.fetch_add(1, std::memory_order_relaxed);
  }
}

uint64_t DistRouter::all_shards_mask() const {
  return shard_count_ >= 64 ? ~uint64_t{0} : Bit(shard_count_) - 1;
}

uint64_t DistRouter::sequence() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return sequence_;
}

uint64_t DistRouter::live_points() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return live_points_;
}

uint64_t DistRouter::live_weights() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return map_.live_weights();
}

uint64_t DistRouter::live_mask() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return LiveMaskLocked();
}

uint64_t DistRouter::LiveMaskLocked() const {
  uint64_t mask = 0;
  for (uint32_t s = 0; s < shard_count_; ++s) {
    if (!desynced_[s]) mask |= Bit(s);
  }
  return mask;
}

// ---- Fan-out -----------------------------------------------------------

bool DistRouter::AckIfUnreachable(uint64_t needed, DistCoverage* out) {
  if ((needed & LiveMaskLocked()) != 0) return false;
  Cover(sequence_, 0, needed, shard_count_, degraded_mutations_, out);
  return true;
}

Status DistRouter::Apply(std::unique_lock<std::mutex> lk, uint64_t needed,
                         const ShardRpc& rpc, DistCoverage* out) {
  const uint32_t n = shard_count_;
  const uint64_t reachable = needed & LiveMaskLocked();
  std::vector<uint32_t> targets;
  for (uint32_t s = 0; s < n; ++s) {
    if ((reachable & Bit(s)) != 0) targets.push_back(s);
  }
  std::vector<Status> statuses(n);
  std::vector<uint64_t> versions(n, 0);
  std::vector<uint64_t> expected(n, 0);
  const uint64_t version = ++sequence_;
  for (uint32_t s : targets) expected[s] = ++admitted_muts_[s];
  lanes_->FanOut(
      targets, [&](size_t s) { statuses[s] = rpc(s, &versions[s]); }, lk);

  uint64_t coverage = 0;
  lk.lock();
  for (uint32_t s : targets) {
    if (statuses[s].ok() && versions[s] == expected[s]) {
      coverage |= Bit(s);
    } else {
      // Mutations are never retried: a failed or diverged apply leaves the
      // shard's history unknown.
      MarkDesyncedLocked(s);
    }
  }
  lk.unlock();
  // A weight op needs only its owner: covering that one shard is full
  // coverage for the op.
  Cover(version, coverage, needed, n, degraded_mutations_, out);
  return Status::OK();
}

std::vector<uint32_t> DistRouter::FanOutQuery(
    const ShardRpc& rpc, std::vector<ShardMap::IdMap>* maps,
    DistCoverage* out) {
  const uint32_t n = shard_count_;
  std::vector<uint32_t> targets;
  std::vector<Status> statuses(n);
  std::vector<uint64_t> versions(n, 0);
  std::vector<uint64_t> expected(n, 0);
  std::unique_lock<std::mutex> lk(seq_mu_);
  const uint64_t version = sequence_;
  *maps = map_.Pin();  // the admission-time cut's id mapping
  for (uint32_t s = 0; s < n; ++s) {
    if (desynced_[s] || !clients_[s]->BreakerAllows()) continue;
    targets.push_back(s);
    expected[s] = admitted_muts_[s];
  }
  lanes_->FanOut(
      targets, [&](size_t s) { statuses[s] = rpc(s, &versions[s]); }, lk);

  std::vector<uint32_t> covered;
  uint64_t coverage = 0;
  lk.lock();
  for (uint32_t s : targets) {
    if (!statuses[s].ok()) continue;  // idempotent miss: no desync
    if (versions[s] != expected[s]) {
      // The shard executed at a version the router never admitted — an
      // out-of-band writer. Its answers can no longer be merged.
      MarkDesyncedLocked(s);
      continue;
    }
    coverage |= Bit(s);
    covered.push_back(s);
  }
  lk.unlock();
  Cover(version, coverage, all_shards_mask(), n, degraded_queries_, out);
  return covered;
}

// ---- Mutations (admission order = lane FIFO order) ---------------------

Status DistRouter::InsertPoint(ConstRow p, DistCoverage* out) {
  if (p.size() != dim_) {
    return Status::InvalidArgument("row width does not match dim");
  }
  if (!RowValuesValid(p)) {
    return Status::InvalidArgument(
        "dataset values must be finite and non-negative");
  }
  std::unique_lock<std::mutex> lk(seq_mu_);
  if (AckIfUnreachable(all_shards_mask(), out)) return Status::OK();
  ++live_points_;
  return Apply(
      std::move(lk), all_shards_mask(),
      [this, p](size_t s, uint64_t* v) {
        return clients_[s]->InsertPoint(p, v);
      },
      out);
}

Status DistRouter::DeletePoint(VectorId live_id, DistCoverage* out) {
  std::unique_lock<std::mutex> lk(seq_mu_);
  if (live_id >= live_points_) {
    return Status::InvalidArgument("point live id out of range");
  }
  if (AckIfUnreachable(all_shards_mask(), out)) return Status::OK();
  --live_points_;
  return Apply(
      std::move(lk), all_shards_mask(),
      [this, live_id](size_t s, uint64_t* v) {
        return clients_[s]->DeletePoint(live_id, v);
      },
      out);
}

Status DistRouter::InsertWeight(ConstRow w, DistCoverage* out) {
  if (w.size() != dim_) {
    return Status::InvalidArgument("weight width does not match dim");
  }
  Status vst = ValidateWeight(w, 1e-6);
  if (!vst.ok()) return vst;
  std::unique_lock<std::mutex> lk(seq_mu_);
  const uint64_t needed = Bit(map_.next_owner());
  if (AckIfUnreachable(needed, out)) {
    // The round-robin cursor advances even when the owner is dead —
    // otherwise every future insert would route to the same dead shard.
    map_.SkipWeight();
    return Status::OK();
  }
  map_.AddWeight();
  return Apply(
      std::move(lk), needed,
      [this, w](size_t s, uint64_t* v) {
        return clients_[s]->InsertWeight(w, v);
      },
      out);
}

Status DistRouter::DeleteWeight(VectorId live_id, DistCoverage* out) {
  std::unique_lock<std::mutex> lk(seq_mu_);
  if (live_id >= map_.live_weights()) {
    return Status::InvalidArgument("weight live id out of range");
  }
  // With the owner gone the weight cannot be removed, and the map keeps
  // the entry so the global live-id space stays aligned with what
  // clients observe.
  const uint64_t needed = Bit(map_.owner_of(live_id));
  if (AckIfUnreachable(needed, out)) return Status::OK();
  // The wire carries shard-local ids, exactly as the in-process lane does.
  const uint64_t local = map_.LocalId(live_id);
  map_.RemoveWeight(live_id);
  return Apply(
      std::move(lk), needed,
      [this, local](size_t s, uint64_t* v) {
        return clients_[s]->DeleteWeight(local, v);
      },
      out);
}

Status DistRouter::Compact(DistCoverage* out) {
  std::unique_lock<std::mutex> lk(seq_mu_);
  if (AckIfUnreachable(all_shards_mask(), out)) return Status::OK();
  return Apply(
      std::move(lk), all_shards_mask(),
      [this](size_t s, uint64_t* v) { return clients_[s]->Compact(v); },
      out);
}

// ---- Queries (fan-out, per-shard version pinning, k-way merge) ---------

Result<ReverseTopKResult> DistRouter::ReverseTopK(ConstRow q, size_t k,
                                                  DistCoverage* out) {
  if (q.size() != dim_) {
    return Status::InvalidArgument("query dimension does not match");
  }
  std::vector<ReverseTopKResult> parts(shard_count_);
  std::vector<ShardMap::IdMap> maps;
  const std::vector<uint32_t> covered = FanOutQuery(
      StoreInto(parts,
                [&](size_t s, uint64_t* v) {
                  return clients_[s]->ReverseTopK(
                      q, static_cast<uint32_t>(k), v);
                }),
      &maps, out);
  return MergeShards(parts, maps, covered, k);
}

Result<ReverseKRanksResult> DistRouter::ReverseKRanks(ConstRow q, size_t k,
                                                      DistCoverage* out,
                                                      int64_t initial_cap) {
  if (q.size() != dim_) {
    return Status::InvalidArgument("query dimension does not match");
  }
  std::vector<ReverseKRanksResult> parts(shard_count_);
  std::vector<ShardMap::IdMap> maps;
  // The shared global-k-th bound of DESIGN.md §15, shipped per request:
  // each lane reads the tightest bound known at its dispatch moment, and
  // every full top-k answer tightens it (a subset's k-th rank is always
  // an upper bound on the global k-th rank, so the cap stays sound).
  std::atomic<int64_t> cap{initial_cap};
  const std::vector<uint32_t> covered = FanOutQuery(
      StoreInto(parts,
                [&](size_t s, uint64_t* v) {
                  Result<ReverseKRanksResult> r =
                      clients_[s]->ReverseKRanksCapped(
                          q, static_cast<uint32_t>(k),
                          cap.load(std::memory_order_relaxed), v);
                  if (r.ok() && k > 0 && r.value().size() >= k) {
                    const int64_t kth = r.value().back().rank;
                    int64_t cur = cap.load(std::memory_order_relaxed);
                    while (kth < cur &&
                           !cap.compare_exchange_weak(
                               cur, kth, std::memory_order_relaxed)) {
                    }
                  }
                  return r;
                }),
      &maps, out);
  return MergeShards(parts, maps, covered, k);
}

Result<std::vector<ReverseTopKResult>> DistRouter::ReverseTopKBatch(
    const Dataset& queries, size_t k, DistCoverage* out) {
  if (queries.dim() != dim_) {
    return Status::InvalidArgument("query dimension does not match");
  }
  const size_t nq = queries.size();
  std::vector<std::vector<ReverseTopKResult>> parts(shard_count_);
  std::vector<ShardMap::IdMap> maps;
  const std::vector<uint32_t> covered = FanOutQuery(
      StoreInto(parts,
                [&](size_t s, uint64_t* v) {
                  auto r = clients_[s]->ReverseTopKBatch(
                      queries, static_cast<uint32_t>(k), v);
                  if (r.ok() && r.value().size() != nq) *v = kNoVersion;
                  return r;
                }),
      &maps, out);
  return MergeShardBatches(parts, maps, covered, k, nq);
}

Result<std::vector<ReverseKRanksResult>> DistRouter::ReverseKRanksBatch(
    const Dataset& queries, size_t k, DistCoverage* out) {
  if (queries.dim() != dim_) {
    return Status::InvalidArgument("query dimension does not match");
  }
  const size_t nq = queries.size();
  std::vector<std::vector<ReverseKRanksResult>> parts(shard_count_);
  std::vector<ShardMap::IdMap> maps;
  const std::vector<uint32_t> covered = FanOutQuery(
      StoreInto(parts,
                [&](size_t s, uint64_t* v) {
                  auto r = clients_[s]->ReverseKRanksBatch(
                      queries, static_cast<uint32_t>(k), v);
                  if (r.ok() && r.value().size() != nq) *v = kNoVersion;
                  return r;
                }),
      &maps, out);
  return MergeShardBatches(parts, maps, covered, k, nq);
}

// ---- STATS -------------------------------------------------------------

std::string DistRouter::RenderStats() const {
  std::ostringstream out;
  uint64_t seq = 0, points = 0, weights = 0;
  std::vector<bool> desynced;
  {
    std::lock_guard<std::mutex> lk(seq_mu_);
    seq = sequence_;
    points = live_points_;
    weights = map_.live_weights();
    desynced = desynced_;
  }
  out << "router.sequence " << seq << "\n";
  out << "router.live_points " << points << "\n";
  out << "router.live_weights " << weights << "\n";
  out << "router.shards " << shard_count_ << "\n";
  out << "router.degraded_queries "
      << degraded_queries_.load(std::memory_order_relaxed) << "\n";
  out << "router.degraded_mutations "
      << degraded_mutations_.load(std::memory_order_relaxed) << "\n";
  out << "router.desync_events "
      << desync_events_.load(std::memory_order_relaxed) << "\n";
  for (uint32_t s = 0; s < shard_count_; ++s) {
    const ShardClient::StatsSnapshot snap = clients_[s]->Snapshot();
    const std::string p = "shard" + std::to_string(s) + ".";
    out << p << "endpoint " << endpoints_[s].host << ":" << endpoints_[s].port
        << "\n";
    out << p << "requests " << snap.requests << "\n";
    out << p << "failures " << snap.failures << "\n";
    out << p << "retries " << snap.retries << "\n";
    out << p << "reconnects " << snap.reconnects << "\n";
    out << p << "breaker_opens " << snap.breaker_opens << "\n";
    out << p << "breaker " << BreakerName(snap.breaker) << "\n";
    out << p << "desynced " << (desynced[s] ? 1 : 0) << "\n";
    out << p << "rtt_us_hist";
    for (uint64_t count : snap.rtt_hist) out << " " << count;
    out << "\n";
  }
  return out.str();
}

Result<std::vector<ShardEndpoint>> ParseShardList(const std::string& spec) {
  std::vector<ShardEndpoint> endpoints;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == item.size()) {
      return Status::InvalidArgument("bad shard endpoint (want host:port): " +
                                     item);
    }
    ShardEndpoint ep;
    ep.host = item.substr(0, colon);
    char* end = nullptr;
    const unsigned long port = std::strtoul(item.c_str() + colon + 1, &end, 10);
    if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
      return Status::InvalidArgument("bad shard port: " + item);
    }
    ep.port = static_cast<uint16_t>(port);
    endpoints.push_back(std::move(ep));
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("empty shard list");
  }
  return endpoints;
}

}  // namespace gir
