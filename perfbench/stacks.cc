#include "stacks.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "grid/index_io.h"
#include "io/dataset_io.h"
#include "io/wal.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

OpOutcome FromStatus(const gir::Status& s) {
  OpOutcome o;
  if (!s.ok()) o.status = kStatusError;
  return o;
}

std::string PointsFile(const std::string& dir) { return dir + "/points.bin"; }
std::string WeightsFile(const std::string& dir) { return dir + "/weights.bin"; }
std::string WalDir(const std::string& dir) { return dir + "/wal"; }
std::string EnvelopeFile(const std::string& dir) {
  return dir + "/shards.gir";
}

gir::Status Serve(ServedStack* stack) {
  stack->server = std::make_unique<gir::QueryServer>(stack->index.get(),
                                                     gir::ServerOptions{});
  gir::Status started = stack->server->Start();
  if (!started.ok()) return started;
  auto client = gir::RemoteClient::Connect("127.0.0.1", stack->server->port());
  if (!client.ok()) return client.status();
  stack->client.emplace(std::move(client).value());
  return gir::Status::OK();
}

gir::Status ApplyMutation(gir::ShardedGirIndex* index, const Op& op) {
  switch (op.kind) {
    case OpKind::kInsertPoint: return index->InsertPoint(op.row);
    case OpKind::kDeletePoint: return index->DeletePoint(op.id);
    case OpKind::kInsertWeight: return index->InsertWeight(op.row);
    case OpKind::kDeleteWeight: return index->DeleteWeight(op.id);
    default: return gir::Status::InvalidArgument("not a mutation");
  }
}

// ---- Targets --------------------------------------------------------------

class ClientTargetImpl final : public Target {
 public:
  explicit ClientTargetImpl(gir::RemoteClient* c) : c_(c) {}

  OpOutcome Run(const Op& op, uint32_t k) override {
    OpOutcome o;
    gir::Status status;
    switch (op.kind) {
      case OpKind::kRtk: {
        auto r = c_->ReverseTopK(op.row, k);
        status = r.status();
        if (r.ok()) o.digest = DigestAnswer(r.value());
        break;
      }
      case OpKind::kRkr: {
        auto r = c_->ReverseKRanks(op.row, k);
        status = r.status();
        if (r.ok()) o.digest = DigestAnswer(r.value());
        break;
      }
      case OpKind::kInsertPoint: status = c_->InsertPoint(op.row); break;
      case OpKind::kDeletePoint: status = c_->DeletePoint(op.id); break;
      case OpKind::kInsertWeight: status = c_->InsertWeight(op.row); break;
      case OpKind::kDeleteWeight: status = c_->DeleteWeight(op.id); break;
    }
    o.version = c_->last_index_version();
    o.cache_hit = c_->last_cache_hit();
    if (c_->last_net_status() == gir::NetStatus::kOverloaded) {
      o.status = kStatusOverloaded;
    } else if (c_->last_degraded()) {
      o.status = kStatusDegraded;
    } else if (!status.ok()) {
      o.status = kStatusError;
    }
    return o;
  }

 private:
  gir::RemoteClient* c_;
};

class ShardedTargetImpl final : public Target {
 public:
  explicit ShardedTargetImpl(gir::ShardedGirIndex* index) : index_(index) {}

  OpOutcome Run(const Op& op, uint32_t k) override {
    if (op.kind == OpKind::kRtk) {
      OpOutcome o;
      o.digest = DigestAnswer(index_->ReverseTopK(op.row, k, nullptr,
                                                  &o.version));
      return o;
    }
    if (op.kind == OpKind::kRkr) {
      OpOutcome o;
      o.digest = DigestAnswer(index_->ReverseKRanks(op.row, k, nullptr,
                                                    &o.version));
      return o;
    }
    OpOutcome o = FromStatus(ApplyMutation(index_, op));
    o.version = index_->sequence();
    return o;
  }

 private:
  gir::ShardedGirIndex* index_;
};

class DynamicTargetImpl final : public Target {
 public:
  explicit DynamicTargetImpl(gir::DynamicGirIndex* index) : index_(index) {}

  OpOutcome Run(const Op& op, uint32_t k) override {
    OpOutcome o;
    switch (op.kind) {
      case OpKind::kRtk:
        o.digest = DigestAnswer(index_->ReverseTopK(op.row, k));
        return o;
      case OpKind::kRkr:
        o.digest = DigestAnswer(index_->ReverseKRanks(op.row, k));
        return o;
      case OpKind::kInsertPoint: return FromStatus(index_->InsertPoint(op.row));
      case OpKind::kDeletePoint: return FromStatus(index_->DeletePoint(op.id));
      case OpKind::kInsertWeight:
        return FromStatus(index_->InsertWeight(op.row));
      case OpKind::kDeleteWeight:
        return FromStatus(index_->DeleteWeight(op.id));
    }
    return o;
  }

 private:
  gir::DynamicGirIndex* index_;
};

class DistTargetImpl final : public Target {
 public:
  explicit DistTargetImpl(gir::DistRouter* router) : router_(router) {}

  OpOutcome Run(const Op& op, uint32_t k) override {
    OpOutcome o;
    gir::DistCoverage cov;
    gir::Status status;
    switch (op.kind) {
      case OpKind::kRtk: {
        auto r = router_->ReverseTopK(op.row, k, &cov);
        status = r.status();
        if (r.ok()) o.digest = DigestAnswer(r.value());
        break;
      }
      case OpKind::kRkr: {
        auto r = router_->ReverseKRanks(op.row, k, &cov);
        status = r.status();
        if (r.ok()) o.digest = DigestAnswer(r.value());
        break;
      }
      case OpKind::kInsertPoint:
        status = router_->InsertPoint(op.row, &cov);
        break;
      case OpKind::kDeletePoint:
        status = router_->DeletePoint(op.id, &cov);
        break;
      case OpKind::kInsertWeight:
        status = router_->InsertWeight(op.row, &cov);
        break;
      case OpKind::kDeleteWeight:
        status = router_->DeleteWeight(op.id, &cov);
        break;
    }
    o.version = cov.version;
    if (!status.ok()) {
      o.status = kStatusError;
    } else if (cov.degraded) {
      o.status = kStatusDegraded;
    }
    return o;
  }

 private:
  gir::DistRouter* router_;
};

}  // namespace

gir::ShardedIndexOptions IndexOptions(const WorkloadSpec& spec) {
  gir::ShardedIndexOptions o;
  o.shards = spec.shards;
  o.dynamic = OracleOptions();
  o.background_compact = spec.workload == Workload::kDurableChurn;
  return o;
}

gir::DynamicIndexOptions OracleOptions() {
  gir::DynamicIndexOptions o;
  o.gir.scan_mode = gir::ScanMode::kTauIndex;
  return o;
}

gir::Result<std::unique_ptr<ServedStack>> BuildServed(
    const WorkloadSpec& spec, const Inputs& inputs) {
  auto stack = std::make_unique<ServedStack>();
  auto index =
      gir::ShardedGirIndex::Build(inputs.points, inputs.weights,
                                  IndexOptions(spec));
  if (!index.ok()) return index.status();
  stack->index = std::move(index).value();
  gir::Status served = Serve(stack.get());
  if (!served.ok()) return served;
  return stack;
}

gir::Status PrepareDurableFiles(const WorkloadSpec& spec,
                                const Inputs& inputs,
                                const std::vector<Op>& prelude,
                                const std::string& dir) {
  std::filesystem::create_directories(WalDir(dir));
  gir::Status s = gir::SaveDataset(PointsFile(dir), inputs.points);
  if (s.ok()) s = gir::SaveDataset(WeightsFile(dir), inputs.weights);
  if (!s.ok()) return s;
  auto index = gir::ShardedGirIndex::Build(inputs.points, inputs.weights,
                                           IndexOptions(spec));
  if (!index.ok()) return index.status();
  auto wal = gir::ShardedWal::Open(WalDir(dir),
                                   static_cast<uint32_t>(spec.shards), 0,
                                   gir::FsyncPolicy::kNever);
  if (!wal.ok()) return wal.status();
  s = index.value()->AttachWal(std::move(wal).value());
  for (size_t i = 0; s.ok() && i < prelude.size(); ++i) {
    s = ApplyMutation(index.value().get(), prelude[i]);
  }
  if (s.ok()) index.value()->WaitBackgroundIdle();
  return s;
}

gir::Result<std::unique_ptr<ServedStack>> RestartDurable(
    const WorkloadSpec& spec, const std::string& dir, bool serve,
    bool attach_wal) {
  auto stack = std::make_unique<ServedStack>();
  Clock::time_point t0 = Clock::now();
  auto points = gir::LoadDataset(PointsFile(dir));
  if (!points.ok()) return points.status();
  auto weights = gir::LoadDataset(WeightsFile(dir));
  if (!weights.ok()) return weights.status();
  auto index = gir::ShardedGirIndex::Build(points.value(), weights.value(),
                                           IndexOptions(spec));
  if (!index.ok()) return index.status();
  stack->index = std::move(index).value();
  stack->io.build_s = SecondsSince(t0);

  t0 = Clock::now();
  auto log = gir::ReadWalDir(WalDir(dir));
  if (!log.ok()) return log.status();
  stack->io.wal_read_s = SecondsSince(t0);
  t0 = Clock::now();
  gir::Status s = stack->index->ReplayWal(log.value().records);
  if (!s.ok()) return s;
  stack->io.wal_replay_s = SecondsSince(t0);

  if (attach_wal) {
    auto wal = gir::ShardedWal::Open(
        WalDir(dir), static_cast<uint32_t>(stack->index->shard_count()),
        stack->index->sequence(), gir::FsyncPolicy::kNever);
    if (!wal.ok()) return wal.status();
    s = stack->index->AttachWal(std::move(wal).value());
    if (!s.ok()) return s;
  }
  if (serve) {
    s = Serve(stack.get());
    if (!s.ok()) return s;
  }
  return stack;
}

RoutedStack::~RoutedStack() {
  client.reset();
  if (front) front->Shutdown();
  if (router) router->Shutdown();
  for (auto& server : lane_servers) server->Shutdown();
}

gir::Status PrepareEnvelope(const WorkloadSpec& spec, const Inputs& inputs,
                            const std::string& dir) {
  std::filesystem::create_directories(dir);
  auto index = gir::ShardedGirIndex::Build(inputs.points, inputs.weights,
                                           IndexOptions(spec));
  if (!index.ok()) return index.status();
  return gir::SaveShardedIndex(EnvelopeFile(dir), *index.value());
}

gir::Result<std::unique_ptr<RoutedStack>> BootRouted(const std::string& dir,
                                                     bool router,
                                                     bool front) {
  auto stack = std::make_unique<RoutedStack>();
  const std::string path = EnvelopeFile(dir);
  auto manifest = gir::LoadShardedManifest(path);
  if (!manifest.ok()) return manifest.status();
  std::vector<gir::ShardEndpoint> endpoints;
  for (uint32_t lane = 0; lane < manifest.value().shard_count; ++lane) {
    // The gir_serve --shard-lane L --read-only shape, in-process.
    auto part = gir::LoadShardLane(path, lane);
    if (!part.ok()) return part.status();
    gir::ShardedIndexOptions options;
    options.shards = 1;
    options.dynamic = part.value().options();
    const uint64_t live_weights = part.value().live_weight_count();
    std::vector<std::unique_ptr<gir::DynamicGirIndex>> parts;
    parts.push_back(
        std::make_unique<gir::DynamicGirIndex>(std::move(part).value()));
    auto index = gir::ShardedGirIndex::FromParts(
        std::move(options), std::move(parts),
        std::vector<uint32_t>(static_cast<size_t>(live_weights), 0), 0,
        live_weights);
    if (!index.ok()) return index.status();
    stack->lanes.push_back(std::move(index).value());
    gir::ServerOptions server_options;
    server_options.read_only = true;
    stack->lane_servers.push_back(std::make_unique<gir::QueryServer>(
        stack->lanes.back().get(), server_options));
    gir::Status s = stack->lane_servers.back()->Start();
    if (!s.ok()) return s;
    endpoints.push_back({"127.0.0.1", stack->lane_servers.back()->port()});
  }
  if (!router) return stack;
  stack->router = std::make_unique<gir::DistRouter>(
      std::move(manifest).value(), std::move(endpoints),
      gir::ShardClientOptions{});
  gir::Status s = stack->router->Connect();
  if (!s.ok()) return s;
  if (!front) return stack;
  stack->front = std::make_unique<gir::RouterServer>(
      stack->router.get(), gir::RouterServerOptions{});
  s = stack->front->Start();
  if (!s.ok()) return s;
  auto client = gir::RemoteClient::Connect("127.0.0.1", stack->front->port());
  if (!client.ok()) return client.status();
  stack->client.emplace(std::move(client).value());
  return stack;
}

std::unique_ptr<Target> ClientTarget(gir::RemoteClient* client) {
  return std::make_unique<ClientTargetImpl>(client);
}
std::unique_ptr<Target> ShardedTarget(gir::ShardedGirIndex* index) {
  return std::make_unique<ShardedTargetImpl>(index);
}
std::unique_ptr<Target> DynamicTarget(gir::DynamicGirIndex* index) {
  return std::make_unique<DynamicTargetImpl>(index);
}
std::unique_ptr<Target> DistTarget(gir::DistRouter* router) {
  return std::make_unique<DistTargetImpl>(router);
}

WeightOwners::WeightOwners(size_t weights, size_t shards)
    : shards_(shards), counter_(weights), owner_(weights) {
  for (size_t i = 0; i < weights; ++i) {
    owner_[i] = static_cast<uint32_t>(i % shards);
  }
}

uint32_t WeightOwners::Insert() {
  const auto s = static_cast<uint32_t>(counter_++ % shards_);
  owner_.push_back(s);
  return s;
}

std::pair<uint32_t, uint64_t> WeightOwners::Erase(uint64_t g) {
  const uint32_t s = owner_[g];
  uint64_t local = 0;
  for (uint64_t i = 0; i < g; ++i) local += owner_[i] == s ? 1 : 0;
  owner_.erase(owner_.begin() + static_cast<std::ptrdiff_t>(g));
  return {s, local};
}

double RssMiB() {
  long pages_total = 0;
  long pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
