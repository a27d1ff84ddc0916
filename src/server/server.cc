#include "server/server.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/dataset.h"
#include "core/types.h"
#include "io/atomic_file.h"

namespace gir {

namespace {

bool IsRkrVerb(NetVerb verb) {
  return verb == NetVerb::kReverseKRanks ||
         verb == NetVerb::kReverseKRanksBatch;
}

}  // namespace

QueryServer::QueryServer(ShardedGirIndex* index, ServerOptions options)
    : index_(index),
      options_(std::move(options)),
      dim_(index->dim()),
      front_(
          dim_,
          [this](const ConnectionPtr& conn, const NetRequest& request) {
            Dispatch(conn, request);
          },
          [this] { return index_version(); }, &metrics_) {
  if (options_.max_batch == 0) options_.max_batch = 1;

  // One queue per registered QoS class plus the trailing default class
  // that absorbs unregistered tenant ids (weight 1, no limits).
  tenants_.resize(options_.tenants.size() + 1);
  const Clock::time_point now = Clock::now();
  for (size_t i = 0; i < options_.tenants.size(); ++i) {
    tenants_[i].opts = options_.tenants[i];
    if (tenants_[i].opts.weight == 0) tenants_[i].opts.weight = 1;
    if (tenants_[i].opts.rate_qps > 0.0 && tenants_[i].opts.burst <= 0.0) {
      tenants_[i].opts.burst = tenants_[i].opts.rate_qps;
    }
    tenants_[i].tokens = tenants_[i].opts.burst;
    tenants_[i].last_refill = now;
    metrics_.RegisterTenant(tenants_[i].opts.id);
  }
  tenants_.back().last_refill = now;
  // DRR quantum base: sized so one full rotation of head positions hands
  // out about one max_batch of credit across all classes — the deficit,
  // not the batch cap, is then what binds under contention, which is
  // what makes served shares track the weights.
  uint32_t total_weight = 0;
  for (const TenantQueue& tenant : tenants_) {
    total_weight += tenant.opts.weight == 0 ? 1 : tenant.opts.weight;
  }
  drr_base_ = std::max(1u, options_.max_batch / std::max(1u, total_weight));

  if (options_.enable_cache) {
    // The fingerprint folds the serving configuration into every cache
    // key so entries can never be confused across configurations.
    const uint64_t fingerprint =
        (uint64_t{index_->shard_count()} << 32) ^ uint64_t{dim_};
    ResultCacheOptions cache_options;
    cache_options.max_bytes = options_.cache_bytes;
    cache_ = std::make_unique<ResultCache>(cache_options, fingerprint,
                                           &metrics_);
  }
}

size_t QueryServer::TenantSlot(uint16_t tenant_id) const {
  for (size_t i = 0; i + 1 < tenants_.size(); ++i) {
    if (tenants_[i].opts.id == tenant_id) return i;
  }
  return tenants_.size() - 1;
}

bool QueryServer::ConsumeTokensLocked(TenantQueue& tenant, uint32_t rows) {
  if (tenant.opts.rate_qps <= 0.0) return true;
  const Clock::time_point now = Clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - tenant.last_refill).count();
  tenant.last_refill = now;
  tenant.tokens = std::min(tenant.opts.burst,
                           tenant.tokens + elapsed * tenant.opts.rate_qps);
  if (tenant.tokens < static_cast<double>(rows)) return false;
  tenant.tokens -= static_cast<double>(rows);
  return true;
}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  const Status s =
      front_.Start(options_.host, options_.port, options_.max_connections);
  if (!s.ok()) return s;
  scheduler_thread_ = std::thread(&QueryServer::SchedulerLoop, this);
  return Status::OK();
}

void QueryServer::Shutdown() {
  // Phase one: the front end refuses new queries and mutations and joins
  // every reader, so nothing is admitted after it returns.
  front_.Shutdown();
  if (!scheduler_thread_.joinable()) return;
  // Phase two: the scheduler executes and answers what was admitted,
  // then exits on the empty queue.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  scheduler_thread_.join();
}

void QueryServer::Dispatch(const ConnectionPtr& conn,
                           const NetRequest& request) {
  switch (request.verb) {
    case NetVerb::kPing:
      conn->Send(EncodeAckResponseBody(NetVerb::kPing, request.request_id,
                                       index_version()));
      return;
    case NetVerb::kStats:
      conn->Send(EncodeStatsResponseBody(request.request_id, index_version(),
                                         metrics_.Render() +
                                             RenderShardStats()));
      return;
    case NetVerb::kInfo: {
      NetInfo info;
      info.dim = static_cast<uint32_t>(index_->dim());
      info.live_points = index_->live_point_count();
      info.live_weights = index_->live_weight_count();
      // The router has one generation per shard; report the furthest one
      // (compaction progress is per shard, see DESIGN.md §15).
      uint64_t generation = 0;
      for (const ShardStatsSnapshot& s : index_->ShardStats()) {
        generation = std::max(generation, s.generation);
      }
      info.generation = generation;
      info.dirty = index_->dirty() ? 1 : 0;
      info.scan_mode =
          static_cast<uint8_t>(index_->options().dynamic.gir.scan_mode);
      conn->Send(
          EncodeInfoResponseBody(request.request_id, index_version(), info));
      return;
    }
    case NetVerb::kReverseTopK:
    case NetVerb::kReverseKRanks:
    case NetVerb::kReverseTopKBatch:
    case NetVerb::kReverseKRanksBatch:
      AdmitQuery(conn, request);
      return;
    case NetVerb::kReverseKRanksCapped: {
      // The router's fan-out primitive. Served inline — the router holds
      // one blocking request in flight per shard connection, so there is
      // no co-batchable traffic to wait for, and bypassing the cache
      // keeps the version pinning exact.
      uint64_t seq = 0;
      const ReverseKRanksResult result = index_->ReverseKRanksCapped(
          ConstRow(request.values.data(), request.values.size()), request.k,
          request.rank_cap, nullptr, &seq);
      metrics_.RecordBatch(1, 1);
      conn->Send(EncodeKRanksResponseBody(request.verb, request.request_id,
                                          seq, &result, 1));
      return;
    }
    case NetVerb::kInsertPoint:
    case NetVerb::kInsertWeight:
    case NetVerb::kDeletePoint:
    case NetVerb::kDeleteWeight:
    case NetVerb::kCompact:
      HandleMutation(conn, request);
      return;
  }
}

void QueryServer::HandleMutation(const ConnectionPtr& conn,
                                 const NetRequest& request) {
  if (options_.read_only &&
      (request.req_flags & kNetReqFlagRouterWrite) == 0) {
    front_.SendError(
        conn, request.verb, NetStatus::kReadOnly, request.request_id,
        "server is read-only; mutations must come through the router");
    return;
  }

  // No server-side lock: the sharded router serializes the mutation
  // against in-flight queries at its admission point and hands back the
  // sequence number the mutation was applied at, plus the probe data the
  // cache invalidation pass consumes (DESIGN.md §16) — captured on the
  // shard's serialized turn, so it belongs to exactly this mutation.
  Status s = Status::OK();
  uint64_t version = 0;
  uint32_t band = 1;
  std::vector<double> head;
  uint32_t* band_slot = cache_ != nullptr ? &band : nullptr;
  std::vector<double>* head_slot = cache_ != nullptr ? &head : nullptr;
  switch (request.verb) {
    case NetVerb::kInsertPoint:
      s = index_->InsertPoint(
          ConstRow(request.values.data(), request.values.size()), &version,
          band_slot);
      break;
    case NetVerb::kInsertWeight:
      s = index_->InsertWeight(
          ConstRow(request.values.data(), request.values.size()), &version,
          head_slot);
      break;
    case NetVerb::kDeletePoint:
      s = index_->DeletePoint(static_cast<VectorId>(request.target_id),
                              &version, band_slot);
      break;
    case NetVerb::kDeleteWeight:
      s = index_->DeleteWeight(static_cast<VectorId>(request.target_id),
                               &version);
      break;
    case NetVerb::kCompact:
      s = index_->Compact(&version);
      break;
    default:
      s = Status::Internal("non-mutation verb in the mutation path");
      break;
  }
  if (!s.ok()) {
    // A mutation that failed after admission leaves no trustworthy probe;
    // drop every cached answer rather than risk a stale extension.
    if (cache_ != nullptr && s.code() != StatusCode::kInvalidArgument) {
      cache_->Flush();
    }
    front_.SendError(conn, request.verb, NetStatusOf(s), request.request_id,
                     s.message());
    return;
  }
  if (cache_ != nullptr) {
    switch (request.verb) {
      case NetVerb::kInsertPoint:
      case NetVerb::kDeletePoint:
        cache_->OnPointMutation(version, band);
        break;
      case NetVerb::kInsertWeight:
        cache_->OnWeightInsert(version, request.values, head);
        break;
      case NetVerb::kDeleteWeight:
        cache_->OnWeightDelete(version, request.target_id);
        break;
      default:
        cache_->OnCompact(version);
        break;
    }
  }
  if (request.verb == NetVerb::kCompact) {
    metrics_.RecordCompaction();
  } else {
    metrics_.RecordMutation();
  }
  conn->Send(EncodeAckResponseBody(request.verb, request.request_id, version));
}

void QueryServer::AdmitQuery(const ConnectionPtr& conn,
                             const NetRequest& request) {
  // Cache probe before any QoS charge: a hit costs the server nothing, so
  // it neither consumes rate-limit tokens nor occupies queue space.
  if (cache_ != nullptr && TryServeFromCache(conn, request)) return;

  const size_t slot = TenantSlot(request.tenant_id);

  PendingGroup group;
  group.conn = conn;
  group.verb = request.verb;
  group.request_id = request.request_id;
  group.k = request.k;
  group.num_queries = request.num_queries;
  group.tenant_id = request.tenant_id;
  group.values = request.values;
  group.enqueue_time = Clock::now();
  uint32_t deadline_us = request.deadline_us;
  if (deadline_us == 0) {
    // Deadline class: the tenant's default applies when the request
    // carries none of its own.
    deadline_us = tenants_[slot].opts.default_deadline_us;
  }
  if (deadline_us > 0) {
    group.has_deadline = true;
    group.deadline = group.enqueue_time + std::chrono::microseconds(deadline_us);
  }
  group.is_rkr = IsRkrVerb(request.verb);

  // Draining needs no check here: the front end refuses queries once
  // Shutdown starts, and joins every reader before the scheduler drains.
  const char* rejection = nullptr;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    TenantQueue& tenant = tenants_[slot];
    if (!ConsumeTokensLocked(tenant, group.num_queries)) {
      rejection = "tenant rate limited";
      metrics_.RecordRejectedOverload();
      metrics_.RecordTenantRateLimited(request.tenant_id);
    } else if (queued_queries_ + group.num_queries > options_.queue_limit) {
      rejection = "request queue is full";
      metrics_.RecordRejectedOverload();
    } else {
      queued_queries_ += group.num_queries;
      tenant.queued_rows += group.num_queries;
      metrics_.SetQueueDepth(queued_queries_);
      metrics_.RecordTenantAdmitted(request.tenant_id, group.num_queries);
      metrics_.SetTenantQueueDepth(request.tenant_id, tenant.queued_rows);
      tenant.q.push_back(std::move(group));
    }
  }
  if (rejection == nullptr) {
    queue_cv_.notify_all();
  } else {
    front_.SendError(conn, request.verb, NetStatus::kOverloaded,
                     request.request_id, rejection);
  }
}

bool QueryServer::TryServeFromCache(const ConnectionPtr& conn,
                                    const NetRequest& request) {
  // One sequence snapshot covers the whole request: every row must hit
  // with a bracket containing it, so the response is exactly what a
  // query admitted at this instant would compute (a wire batch with any
  // missing row executes whole — no partial serving).
  const uint64_t snap = index_->sequence();
  const bool is_rkr = IsRkrVerb(request.verb);
  std::vector<ReverseTopKResult> topk;
  std::vector<ReverseKRanksResult> kranks;
  for (uint32_t i = 0; i < request.num_queries; ++i) {
    ConstRow row(request.values.data() + size_t{i} * dim_, dim_);
    if (is_rkr) {
      ReverseKRanksResult one;
      if (!cache_->LookupKRanks(row, request.k, snap, &one)) return false;
      kranks.push_back(std::move(one));
    } else {
      ReverseTopKResult one;
      if (!cache_->LookupTopK(row, request.k, snap, &one)) return false;
      topk.push_back(std::move(one));
    }
  }
  const std::string body =
      is_rkr ? EncodeKRanksResponseBody(request.verb, request.request_id, snap,
                                        kranks.data(), kranks.size(),
                                        kNetFlagCacheHit)
             : EncodeTopKResponseBody(request.verb, request.request_id, snap,
                                      topk.data(), topk.size(),
                                      kNetFlagCacheHit);
  // Count before sending: a client that pipelines STATS right behind
  // its answered request must already see this request in the counters.
  metrics_.RecordCacheServed(1, request.num_queries);
  metrics_.RecordTenantServed(request.tenant_id, request.num_queries);
  conn->Send(body);
  return true;
}

size_t QueryServer::MatchingQueriesLocked(bool is_rkr, uint32_t k) const {
  size_t total = 0;
  for (const TenantQueue& tenant : tenants_) {
    for (const PendingGroup& group : tenant.q) {
      if (group.is_rkr == is_rkr && group.k == k) total += group.num_queries;
    }
  }
  return total;
}

bool QueryServer::AnyPendingLocked() const {
  for (const TenantQueue& tenant : tenants_) {
    if (!tenant.q.empty()) return true;
  }
  return false;
}

void QueryServer::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stopping_ || AnyPendingLocked(); });
    if (!AnyPendingLocked()) {
      if (stopping_) return;
      continue;
    }

    // Deficit round robin across QoS classes: the cursor advances to the
    // next class with pending work, which heads this round and receives
    // one quantum of credit per weight unit. Under saturation every
    // class heads rounds equally often, so served rows are proportional
    // to the weights; an idle class's deficit resets, so credit never
    // accumulates into a later burst.
    size_t head = rr_cursor_;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      const size_t t = (rr_cursor_ + i) % tenants_.size();
      if (!tenants_[t].q.empty()) {
        head = t;
        break;
      }
    }
    rr_cursor_ = (head + 1) % tenants_.size();
    TenantQueue& head_tenant = tenants_[head];
    head_tenant.deficit += int64_t{drr_base_} * head_tenant.opts.weight;

    // The head class's oldest request defines the batch key; compatible
    // requests from any class ride along within their deficits.
    const bool is_rkr = head_tenant.q.front().is_rkr;
    const uint32_t k = head_tenant.q.front().k;
    // Work-conserving by default: the batch is whatever compatible work
    // queued up while the previous batch executed. A non-zero
    // batch_wait_us additionally holds the head for company.
    if (options_.batch_wait_us > 0) {
      const Clock::time_point fill_deadline =
          head_tenant.q.front().enqueue_time +
          std::chrono::microseconds(options_.batch_wait_us);
      while (!stopping_ &&
             MatchingQueriesLocked(is_rkr, k) < options_.max_batch) {
        if (queue_cv_.wait_until(lock, fill_deadline) ==
            std::cv_status::timeout) {
          break;
        }
        if (!AnyPendingLocked()) break;
      }
      if (!AnyPendingLocked()) continue;
    }

    // Extract whole groups while the batch has room, visiting classes in
    // DWFQ order from the head and charging each class's deficit for the
    // rows it contributes. The head's front group is always taken even
    // if it alone exceeds max_batch or its deficit (wire batches are
    // never split and the head must make progress). With a single
    // backlogged class the deficits are bypassed and left uncharged —
    // fair queueing is work-conserving, so weights only bite under
    // contention.
    size_t backlogged = 0;
    for (const TenantQueue& tenant : tenants_) {
      if (!tenant.q.empty()) ++backlogged;
    }
    const bool contended = backlogged > 1;
    std::vector<PendingGroup> batch;
    size_t total = 0;
    for (size_t i = 0; i < tenants_.size() && total < options_.max_batch;
         ++i) {
      const size_t ti = (head + i) % tenants_.size();
      TenantQueue& tenant = tenants_[ti];
      for (auto it = tenant.q.begin();
           it != tenant.q.end() && total < options_.max_batch;) {
        const bool matches = it->is_rkr == is_rkr && it->k == k;
        const bool fits =
            batch.empty() || total + it->num_queries <= options_.max_batch;
        const bool funded =
            !contended || batch.empty() ||
            tenant.deficit >= static_cast<int64_t>(it->num_queries);
        if (matches && fits && funded) {
          total += it->num_queries;
          if (contended) {
            tenant.deficit -= static_cast<int64_t>(it->num_queries);
          }
          tenant.queued_rows -= it->num_queries;
          metrics_.SetTenantQueueDepth(it->tenant_id, tenant.queued_rows);
          batch.push_back(std::move(*it));
          it = tenant.q.erase(it);
        } else {
          ++it;
        }
      }
      if (tenant.q.empty()) tenant.deficit = 0;
    }
    if (batch.empty()) continue;
    queued_queries_ -= total;
    metrics_.SetQueueDepth(queued_queries_);

    lock.unlock();
    ExecuteBatch(is_rkr, k, std::move(batch));
    lock.lock();
  }
}

void QueryServer::ExecuteBatch(bool is_rkr, uint32_t k,
                               std::vector<PendingGroup> batch) {
  const Clock::time_point start = Clock::now();

  // Deadline admission happens at execution start: a request whose
  // deadline lapsed while queued is answered without paying for the scan.
  std::vector<PendingGroup> live;
  live.reserve(batch.size());
  for (PendingGroup& group : batch) {
    if (group.has_deadline && group.deadline < start) {
      metrics_.RecordDeadlineExpired();
      front_.SendError(group.conn, group.verb, NetStatus::kDeadlineExceeded,
                       group.request_id, "deadline expired before execution");
    } else {
      live.push_back(std::move(group));
    }
  }
  if (live.empty()) return;

  size_t total = 0;
  for (const PendingGroup& group : live) total += group.num_queries;
  Dataset queries(dim_);
  queries.Reserve(total);
  for (const PendingGroup& group : live) {
    for (uint32_t i = 0; i < group.num_queries; ++i) {
      queries.AppendUnchecked(
          ConstRow(group.values.data() + size_t{i} * dim_, dim_));
    }
  }

  // One fan-out per micro-batch: the router admits the whole batch at a
  // single cut of the operation stream, dispatches per-shard sub-batches
  // concurrently, and reports the sequence number the batch executed at —
  // every query in it observes the same index state and version stamp.
  std::vector<ReverseTopKResult> topk;
  std::vector<ReverseKRanksResult> kranks;
  uint64_t version = 0;
  QueryStats scan_stats;
  if (is_rkr) {
    kranks = index_->ReverseKRanksBatch(queries, k, &scan_stats, &version);
  } else {
    topk = index_->ReverseTopKBatch(queries, k, &scan_stats, &version);
  }
  metrics_.RecordScanWork(scan_stats.points_streamed,
                          scan_stats.points_skipped,
                          scan_stats.blocks_skipped,
                          scan_stats.blocks_descended);

  // Fill the result cache per query row at the batch's execution version
  // — each row becomes an independently bracketed entry, so later
  // requests hit regardless of how they were batched on the wire.
  if (cache_ != nullptr) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (is_rkr) {
        cache_->FillKRanks(queries.row(i), k, version, kranks[i]);
      } else {
        cache_->FillTopK(queries.row(i), k, version, topk[i]);
      }
    }
  }

  // Count before sending, as the cache path does: a client that reads
  // STATS right after its answer must already see its request counted.
  metrics_.RecordBatch(live.size(), total);
  size_t offset = 0;
  for (const PendingGroup& group : live) {
    const std::string body =
        is_rkr ? EncodeKRanksResponseBody(group.verb, group.request_id,
                                          version, kranks.data() + offset,
                                          group.num_queries)
               : EncodeTopKResponseBody(group.verb, group.request_id, version,
                                        topk.data() + offset,
                                        group.num_queries);
    offset += group.num_queries;
    metrics_.RecordTenantServed(group.tenant_id, group.num_queries);
    group.conn->Send(body);
    metrics_.RecordLatencyUs(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              group.enqueue_time)
            .count()));
  }
}

std::string QueryServer::RenderShardStats() const {
  // One `shardN.<key> <value>` row per metric per shard, appended after
  // the server-wide counters so STATS stays a flat key/value text block
  // older clients render unchanged; `gir_cli remote stats` folds these
  // rows into its per-shard table.
  const std::vector<ShardStatsSnapshot> shards = index_->ShardStats();
  std::string out;
  out.reserve(shards.size() * 256);
  char line[160];
  const auto append = [&](size_t s, const char* key, uint64_t value) {
    std::snprintf(line, sizeof(line), "shard%zu.%s %llu\n", s, key,
                  static_cast<unsigned long long>(value));
    out.append(line);
  };
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardStatsSnapshot& snap = shards[s];
    append(s, "applied_seq", snap.applied_seq);
    append(s, "generation", snap.generation);
    append(s, "queue_depth", snap.queue_depth);
    append(s, "live_weights", snap.live_weights);
    append(s, "queries", snap.queries);
    append(s, "mutations", snap.mutations);
    append(s, "points_streamed", snap.points_streamed);
    append(s, "points_skipped", snap.points_skipped);
    append(s, "bg_compactions", snap.bg_compactions);
    append(s, "latency_p50_us_le", snap.latency_p50_us);
    append(s, "latency_p99_us_le", snap.latency_p99_us);
    std::snprintf(line, sizeof(line), "shard%zu.qps_share_pct %.1f\n", s,
                  snap.qps_share * 100.0);
    out.append(line);
  }
  if (const ShardedWal* wal = index_->wal(); wal != nullptr) {
    const WalStats ws = wal->stats();
    const auto wrow = [&](const char* key, uint64_t value) {
      std::snprintf(line, sizeof(line), "wal.%s %llu\n", key,
                    static_cast<unsigned long long>(value));
      out.append(line);
    };
    wrow("records", ws.records);
    wrow("bytes", ws.bytes);
    wrow("syncs", ws.syncs);
    wrow("rotations", ws.rotations);
    wrow("snapshot_seq", ws.snapshot_sequence);
  }
  return out;
}

Status WritePortFileAtomic(const std::string& path, uint16_t port) {
  return AtomicWriteFile(path, [port](std::ostream& out) -> Status {
    out << static_cast<unsigned>(port) << "\n";
    return Status::OK();
  });
}

}  // namespace gir
