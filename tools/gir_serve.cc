// gir_serve — standalone GIRNET01 query server (DESIGN.md §13).
//
//   gir_serve --points p.bin --weights w.bin
//             [--shards N] [--host 127.0.0.1] [--port 0] [--port-file FILE]
//             [--scan-mode wat|blocked|tau] [--partitions N]
//             [--max-batch N] [--batch-wait-us N] [--queue-limit N]
//             [--max-connections N] [--no-cache] [--cache-bytes N]
//             [--tenants ID:WEIGHT[:RATE_QPS[:BURST[:DEADLINE_US]]],...]
//             [--wal-dir DIR] [--fsync-policy always|never]
//             [--checkpoint-ops N] [--no-background-compact]
//   gir_serve --index dyn.bin [server flags as above]
//   gir_serve --index shd.bin --shard-lane L [--read-only] [flags as above]
//
// --shards partitions the preference set over N shard workers (DESIGN.md
// §15); answers are bit-identical to --shards 1. --index accepts both a
// GIRDYN01 file (served as one shard) and a GIRSHD01 sharded envelope
// (the persisted shard count wins over --shards).
//
// --shard-lane L serves one lane of a GIRSHD01 envelope as a standalone
// one-shard server — the worker role behind gir_router (DESIGN.md §18).
// --read-only refuses direct mutations with kReadOnly; the router's
// requests carry a flag that passes the gate, so a cluster's only write
// path is the router's admission order.
//
// --wal-dir turns on durability (DESIGN.md §17): every admitted mutation
// is appended to a per-shard write-ahead log — fsync'd per
// --fsync-policy (default always) — before it is applied, and on startup
// the server recovers to the exact pre-crash state: it loads
// DIR/snapshot.gir when present (falling back to the cold --index /
// --points source, which must then be byte-identical across restarts)
// and replays the WAL suffix on top. --checkpoint-ops N snapshots and
// truncates the log after every N admitted mutations; a final checkpoint
// always runs on clean shutdown. Background compaction (on by default
// with --shards workers; --no-background-compact restores synchronous
// folding) rebuilds churned shards off the serving lanes.
//
// The query scheduler is work-conserving: whenever it is free it runs
// everything compatible that is queued, so a lone request executes at
// once and batches form from requests that arrived while the previous
// batch ran. --batch-wait-us N (default 0) is an opt-in hold that keeps
// the oldest request waiting up to N us for --max-batch rows of company.
//
// Binds (port 0 = ephemeral; the bound port is printed and, with
// --port-file, written to a file for scripted callers), serves until
// SIGTERM/SIGINT, then drains gracefully: admitted requests are answered,
// new ones are refused with shutting-down, and the process exits 0.
//
// Exit code 0 on clean drain, 1 on usage errors, 2 on runtime failures.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include <cstring>
#include <fstream>
#include <memory>

#include "grid/dynamic_index.h"
#include "grid/index_io.h"
#include "grid/sharded_index.h"
#include "io/dataset_io.h"
#include "io/wal.h"
#include "server/server.h"
#include "tool_util.h"

namespace gir {
namespace {

int Run(int argc, char** argv) {
  Args args(argc, argv);
  if (!args.ok()) return Fail(args.error().c_str());

  sigset_t mask;
  const Status blocked = BlockDrainSignals(&mask);
  if (!blocked.ok()) return FailStatus(blocked);

  const auto wal_dir = args.Get("wal-dir");
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  if (const auto fp = args.Get("fsync-policy"); fp.has_value()) {
    if (*fp == "always") {
      fsync_policy = FsyncPolicy::kAlways;
    } else if (*fp == "never") {
      fsync_policy = FsyncPolicy::kNever;
    } else {
      return Fail("--fsync-policy must be always or never");
    }
  }
  const bool background = !args.Get("no-background-compact").has_value();
  const std::string snapshot_path =
      wal_dir.has_value() ? *wal_dir + "/snapshot.gir" : std::string();

  Result<std::unique_ptr<ShardedGirIndex>> index = Status::Internal("unset");
  bool recovered_from_snapshot = false;
  if (wal_dir.has_value()) {
    // Recovery base: the last checkpoint's snapshot when one exists. The
    // cold source below is only the base on a first boot (or before the
    // first checkpoint), where the WAL still holds the whole op suffix.
    std::ifstream probe(snapshot_path, std::ios::binary);
    if (probe.good()) {
      index = LoadShardedIndex(snapshot_path, background);
      if (!index.ok()) return FailStatus(index.status());
      recovered_from_snapshot = true;
    }
  }
  if (recovered_from_snapshot) {
    // Base loaded; WAL replay happens after this if/else ladder.
  } else if (const auto index_path = args.Get("index");
             index_path.has_value()) {
    // Sniff the envelope magic: a GIRSHD01 file carries its own shard
    // count; a GIRDYN01 file is wrapped as a one-shard router.
    char magic[8] = {};
    {
      std::ifstream sniff(*index_path, std::ios::binary);
      if (!sniff.read(magic, sizeof(magic))) {
        return FailStatus(Status::IOError("cannot read " + *index_path));
      }
    }
    if (const auto lane = args.GetSize("shard-lane"); lane.has_value()) {
      // Worker role: serve exactly one lane of the sharded envelope as a
      // standalone one-shard server. gir_router owns cross-shard merge.
      if (std::memcmp(magic, "GIRSHD01", sizeof(magic)) != 0) {
        return Fail("--shard-lane requires --index to be a GIRSHD01 file");
      }
      auto part = LoadShardLane(*index_path, static_cast<uint32_t>(*lane));
      if (!part.ok()) return FailStatus(part.status());
      ShardedIndexOptions sharded;
      sharded.shards = 1;
      sharded.background_compact = background;
      sharded.dynamic = part.value().options();
      const uint64_t live_weights = part.value().live_weight_count();
      std::vector<std::unique_ptr<DynamicGirIndex>> parts;
      parts.push_back(
          std::make_unique<DynamicGirIndex>(std::move(part).value()));
      index = ShardedGirIndex::FromParts(
          std::move(sharded), std::move(parts),
          std::vector<uint32_t>(static_cast<size_t>(live_weights), 0),
          /*sequence=*/0, /*weight_insert_counter=*/live_weights);
    } else if (std::memcmp(magic, "GIRSHD01", sizeof(magic)) == 0) {
      index = LoadShardedIndex(*index_path, background);
    } else {
      auto dynamic = LoadDynamicIndex(*index_path);
      if (!dynamic.ok()) return FailStatus(dynamic.status());
      ShardedIndexOptions sharded;
      sharded.shards = 1;
      sharded.background_compact = background;
      sharded.dynamic = dynamic.value().options();
      const uint64_t live_weights = dynamic.value().live_weight_count();
      std::vector<std::unique_ptr<DynamicGirIndex>> parts;
      parts.push_back(
          std::make_unique<DynamicGirIndex>(std::move(dynamic).value()));
      index = ShardedGirIndex::FromParts(
          std::move(sharded), std::move(parts),
          std::vector<uint32_t>(static_cast<size_t>(live_weights), 0),
          /*sequence=*/0, /*weight_insert_counter=*/live_weights);
    }
  } else {
    const auto points_path = args.Get("points");
    const auto weights_path = args.Get("weights");
    if (!points_path || !weights_path) {
      return Fail("gir_serve requires --index, or --points with --weights");
    }
    auto points = LoadDataset(*points_path);
    if (!points.ok()) return FailStatus(points.status());
    auto weights = LoadDataset(*weights_path);
    if (!weights.ok()) return FailStatus(weights.status());
    ShardedIndexOptions options;
    options.shards = args.GetSize("shards").value_or(1);
    options.background_compact = background;
    options.dynamic.gir.partitions = args.GetSize("partitions").value_or(32);
    const std::string mode = args.Get("scan-mode").value_or("blocked");
    if (mode == "wat") {
      options.dynamic.gir.scan_mode = ScanMode::kWeightAtATime;
    } else if (mode == "blocked") {
      options.dynamic.gir.scan_mode = ScanMode::kBlocked;
    } else if (mode == "tau") {
      options.dynamic.gir.scan_mode = ScanMode::kTauIndex;
    } else {
      return Fail("--scan-mode must be wat, blocked or tau");
    }
    index = ShardedGirIndex::Build(points.value(), weights.value(), options);
  }
  if (!index.ok()) return FailStatus(index.status());

  if (wal_dir.has_value()) {
    // Replay the admitted suffix the logs carry beyond the base, then
    // open the per-shard logs for appending (truncating any torn tail a
    // crash mid-append left) and attach them — from here on, every
    // admitted mutation hits the disk before any shard applies it.
    auto dir_state = ReadWalDir(*wal_dir);
    if (!dir_state.ok()) return FailStatus(dir_state.status());
    const Status replayed = index.value()->ReplayWal(dir_state.value().records);
    if (!replayed.ok()) return FailStatus(replayed);
    auto wal = ShardedWal::Open(
        *wal_dir, static_cast<uint32_t>(index.value()->shard_count()),
        index.value()->sequence(), fsync_policy);
    if (!wal.ok()) return FailStatus(wal.status());
    const Status attached = index.value()->AttachWal(std::move(wal).value());
    if (!attached.ok()) return FailStatus(attached);
    std::printf(
        "wal: recovered to seq %llu from %s (%s + %zu log records)\n",
        static_cast<unsigned long long>(index.value()->sequence()),
        wal_dir->c_str(),
        recovered_from_snapshot ? "snapshot" : "cold source",
        dir_state.value().records.size());
    std::fflush(stdout);
  }

  ServerOptions options;
  options.host = args.Get("host").value_or(options.host);
  options.port = static_cast<uint16_t>(args.GetSize("port").value_or(0));
  options.max_batch = static_cast<uint32_t>(
      args.GetSize("max-batch").value_or(options.max_batch));
  options.batch_wait_us = static_cast<uint32_t>(
      args.GetSize("batch-wait-us").value_or(options.batch_wait_us));
  options.queue_limit = static_cast<uint32_t>(
      args.GetSize("queue-limit").value_or(options.queue_limit));
  options.max_connections = static_cast<uint32_t>(
      args.GetSize("max-connections").value_or(options.max_connections));
  options.enable_cache = !args.Get("no-cache").has_value();
  options.read_only = args.Get("read-only").has_value();
  options.cache_bytes = args.GetSize("cache-bytes").value_or(
      options.cache_bytes);
  if (const auto tenants = args.Get("tenants"); tenants.has_value()) {
    // --tenants ID:WEIGHT[:RATE_QPS[:BURST[:DEADLINE_US]]][,SPEC...]
    for (size_t start = 0; start <= tenants->size();) {
      size_t end = tenants->find(',', start);
      if (end == std::string::npos) end = tenants->size();
      const std::string spec = tenants->substr(start, end - start);
      start = end + 1;
      if (spec.empty()) continue;
      TenantOptions tenant;
      char* cursor = nullptr;
      tenant.id = static_cast<uint16_t>(
          std::strtoul(spec.c_str(), &cursor, 10));
      double fields[4] = {1.0, 0.0, 0.0, 0.0};  // weight, rate, burst, ddl
      int parsed = 0;
      while (parsed < 4 && *cursor == ':') {
        fields[parsed++] = std::strtod(cursor + 1, &cursor);
      }
      if (*cursor != '\0' || tenant.id == 0) {
        return Fail(("--tenants expects ID:WEIGHT[:RATE[:BURST[:DDL_US]]] "
                     "with a nonzero id, got \"" +
                     spec + "\"")
                        .c_str());
      }
      tenant.weight = static_cast<uint32_t>(fields[0]);
      tenant.rate_qps = fields[1];
      tenant.burst = fields[2];
      tenant.default_deadline_us = static_cast<uint32_t>(fields[3]);
      options.tenants.push_back(tenant);
    }
  }

  QueryServer server(index.value().get(), options);
  const Status started = server.Start();
  if (!started.ok()) return FailStatus(started);

  std::printf(
      "serving %zu points x %zu weights over %zu shard(s) on %s:%u "
      "(max-batch %u, batch-wait %u us%s, queue-limit %u)\n",
      index.value()->live_point_count(), index.value()->live_weight_count(),
      index.value()->shard_count(), options.host.c_str(), server.port(),
      options.max_batch, options.batch_wait_us,
      options.batch_wait_us == 0 ? " (work-conserving)" : " hold",
      options.queue_limit);
  std::fflush(stdout);

  if (const auto port_file = args.Get("port-file"); port_file.has_value()) {
    // Atomic (temp + rename): scripts polling the path never read an
    // empty or partially written port number.
    const Status written = WritePortFileAtomic(*port_file, server.port());
    if (!written.ok()) return FailStatus(written);
  }

  // --checkpoint-ops N: a maintenance thread snapshots and truncates the
  // WAL once N mutations accumulated past the last checkpoint. Mutations
  // pause only for the snapshot write itself; queries keep flowing.
  const size_t checkpoint_ops = args.GetSize("checkpoint-ops").value_or(0);
  std::atomic<bool> stop_checkpointer{false};
  std::thread checkpointer;
  ShardedGirIndex* const idx = index.value().get();
  if (wal_dir.has_value() && checkpoint_ops > 0) {
    checkpointer = std::thread([idx, &stop_checkpointer, checkpoint_ops,
                                snapshot_path] {
      uint64_t last = idx->sequence();
      while (!stop_checkpointer.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const uint64_t seq = idx->sequence();
        if (seq - last < checkpoint_ops) continue;
        const Status st = idx->Checkpoint(
            [&] { return SaveShardedIndex(snapshot_path, *idx); });
        if (st.ok()) {
          last = seq;
        } else {
          std::fprintf(stderr, "warning: checkpoint failed: %s\n",
                       st.ToString().c_str());
        }
      }
    });
  }

  std::printf("received %s, draining\n", WaitForDrainSignal(mask));
  std::fflush(stdout);
  if (checkpointer.joinable()) {
    stop_checkpointer.store(true, std::memory_order_release);
    checkpointer.join();
  }
  server.Shutdown();
  if (wal_dir.has_value()) {
    // Final checkpoint: the next boot loads the snapshot and replays an
    // empty log. A SIGKILL skips this — that is what the WAL is for.
    const Status st =
        idx->Checkpoint([&] { return SaveShardedIndex(snapshot_path, *idx); });
    if (!st.ok()) {
      std::fprintf(stderr, "warning: final checkpoint failed: %s\n",
                   st.ToString().c_str());
    }
  }
  std::printf("drained cleanly at index version %llu\n%s",
              static_cast<unsigned long long>(server.index_version()),
              server.metrics().Render().c_str());
  return 0;
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) { return gir::Run(argc, argv); }
