#ifndef PERFBENCH_STACKS_H_
#define PERFBENCH_STACKS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "dist/router_core.h"
#include "dist/router_server.h"
#include "grid/dynamic_index.h"
#include "grid/sharded_index.h"
#include "ops.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

/// What a finished operation looked like to its caller.
struct OpOutcome {
  uint64_t digest = 0;   // DigestAnswer of a query answer, 0 for mutations
  uint64_t version = 0;  // version stamp, where the layer reports one
  uint8_t status = 0;    // one of the kStatus* values below
  OpKind kind = OpKind::kRtk;
  bool cache_hit = false;
};
constexpr uint8_t kStatusOk = 0;
constexpr uint8_t kStatusError = 1;
constexpr uint8_t kStatusOverloaded = 2;
constexpr uint8_t kStatusDegraded = 3;

/// Options every workload's index uses: the τ engine, 2 shards.
gir::ShardedIndexOptions IndexOptions(const WorkloadSpec& spec);
gir::DynamicIndexOptions OracleOptions();

/// Timings the durable restart reports for the io.* metrics.
struct IoTimes {
  double build_s = 0;
  double wal_read_s = 0;
  double wal_replay_s = 0;
};

/// The served shape: ShardedGirIndex → QueryServer → one RemoteClient.
/// Members are declared in build order, so they are destroyed client
/// first and index last.
struct ServedStack {
  std::unique_ptr<gir::ShardedGirIndex> index;
  std::unique_ptr<gir::QueryServer> server;
  std::optional<gir::RemoteClient> client;
  IoTimes io;
};

/// cold_read / hot_read: build from the in-memory inputs.
gir::Result<std::unique_ptr<ServedStack>> BuildServed(
    const WorkloadSpec& spec, const Inputs& inputs);

/// durable_churn input files: the cold point/weight sets plus the WAL the
/// prelude mutations left behind (FsyncPolicy::kNever), under `dir`.
gir::Status PrepareDurableFiles(const WorkloadSpec& spec,
                                const Inputs& inputs,
                                const std::vector<Op>& prelude,
                                const std::string& dir);

/// durable_churn restart: load the cold files, build, read and replay the
/// WAL, reattach it for appending, then serve. `serve` = false stops at
/// the index (the traced run's in-process passes); `attach_wal` = false
/// replays but runs without a log afterwards.
gir::Result<std::unique_ptr<ServedStack>> RestartDurable(
    const WorkloadSpec& spec, const std::string& dir, bool serve,
    bool attach_wal);

/// The routed shape: two lane servers over the lanes of a GIRSHD01
/// envelope, a DistRouter over them, a RouterServer in front and one
/// client. Destroyed client first.
struct RoutedStack {
  std::vector<std::unique_ptr<gir::ShardedGirIndex>> lanes;
  std::vector<std::unique_ptr<gir::QueryServer>> lane_servers;
  std::unique_ptr<gir::DistRouter> router;
  std::unique_ptr<gir::RouterServer> front;
  std::optional<gir::RemoteClient> client;
  ~RoutedStack();
};

/// Writes the routed workload's envelope (`dir`/shards.gir).
gir::Status PrepareEnvelope(const WorkloadSpec& spec, const Inputs& inputs,
                            const std::string& dir);

/// Boots the cluster from the envelope. `router` = false stops at the lane
/// servers; `front` = false stops at the in-process DistRouter.
gir::Result<std::unique_ptr<RoutedStack>> BootRouted(const std::string& dir,
                                                     bool router, bool front);

/// Runs one operation against a layer.
class Target {
 public:
  virtual ~Target() = default;
  virtual OpOutcome Run(const Op& op, uint32_t k) = 0;
};

std::unique_ptr<Target> ClientTarget(gir::RemoteClient* client);
std::unique_ptr<Target> ShardedTarget(gir::ShardedGirIndex* index);
std::unique_ptr<Target> DynamicTarget(gir::DynamicGirIndex* index);
std::unique_ptr<Target> DistTarget(gir::DistRouter* router);

/// The router's weight-placement bookkeeping (round-robin inserts,
/// owner per global live weight), reproduced so a pass below the router
/// can address the lane a weight mutation belongs to.
class WeightOwners {
 public:
  WeightOwners(size_t weights, size_t shards);
  /// Owner of the next inserted weight; records it.
  uint32_t Insert();
  /// Owner and owner-local live id of global live weight `g`; forgets it.
  std::pair<uint32_t, uint64_t> Erase(uint64_t g);

 private:
  size_t shards_;
  uint64_t counter_;
  std::vector<uint32_t> owner_;
};

/// Current resident set size of this process, MiB (/proc/self/statm).
double RssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_STACKS_H_
