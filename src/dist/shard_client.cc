#include "dist/shard_client.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace gir {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardClient::ShardClient(std::string host, uint16_t port,
                         ShardClientOptions options)
    : host_(std::move(host)), port_(port), options_(options) {}

Status ShardClient::Connect() {
  RemoteClientOptions remote;
  remote.connect_ms = options_.connect_ms;
  remote.io_ms = options_.io_ms;
  Result<RemoteClient> connected = RemoteClient::Connect(host_, port_, remote);
  if (!connected.ok()) {
    client_.reset();
    return connected.status();
  }
  client_.emplace(std::move(connected).value());
  // Every router-issued mutation carries the router-write flag so
  // --read-only shards accept it (server/protocol.h).
  client_->set_router_write(true);
  if (ever_connected_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  ever_connected_ = true;
  return Status::OK();
}

bool ShardClient::BreakerAllows() {
  const int64_t until = open_until_ns_.load(std::memory_order_relaxed);
  if (until == 0) return true;
  return NowNs() >= until;  // past the cooldown: this call is the probe
}

BreakerState ShardClient::breaker_state() const {
  const int64_t until = open_until_ns_.load(std::memory_order_relaxed);
  if (until == 0) return BreakerState::kClosed;
  return NowNs() >= until ? BreakerState::kHalfOpen : BreakerState::kOpen;
}

void ShardClient::RecordOutcome(bool ok) {
  if (ok) {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    open_until_ns_.store(0, std::memory_order_relaxed);
    return;
  }
  failures_.fetch_add(1, std::memory_order_relaxed);
  const uint32_t consecutive =
      consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (consecutive >= options_.breaker_threshold) {
    if (open_until_ns_.load(std::memory_order_relaxed) == 0) {
      breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    }
    open_until_ns_.store(
        NowNs() + int64_t{options_.breaker_cooldown_ms} * 1'000'000,
        std::memory_order_relaxed);
  }
}

template <typename Fn>
Status ShardClient::Call(bool idempotent, uint64_t* version_out, Fn&& call) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const uint32_t attempts = idempotent ? options_.max_retries + 1 : 1;
  uint32_t backoff_ms = options_.backoff_initial_ms;
  Status last = Status::OK();
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
    }
    if (!client_.has_value()) {
      last = Connect();
      if (!last.ok()) continue;
    }
    const Clock::time_point start = Clock::now();
    last = call(*client_);
    if (last.ok()) {
      const uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                start)
              .count());
      rtt_hist_.Record(us);
      RecordOutcome(true);
      if (version_out != nullptr) *version_out = client_->last_index_version();
      return Status::OK();
    }
    // A server-side rejection over a healthy connection (InvalidArgument
    // etc.) is the final answer — the transport worked; retrying the same
    // frame cannot change it. Only transport-level failures reconnect.
    if (last.code() == StatusCode::kInvalidArgument ||
        last.code() == StatusCode::kOutOfRange) {
      RecordOutcome(true);  // the shard is alive and answering
      return last;
    }
    client_.reset();  // a dead or desynced connection is never reused
  }
  RecordOutcome(false);
  return last;
}

Status ShardClient::Ping(uint64_t* version_out) {
  return Call(/*idempotent=*/true, version_out,
              [](RemoteClient& c) { return c.Ping(); });
}

Result<NetInfo> ShardClient::Info(uint64_t* version_out) {
  NetInfo info;
  Status s = Call(/*idempotent=*/true, version_out, [&](RemoteClient& c) {
    Result<NetInfo> r = c.Info();
    if (!r.ok()) return r.status();
    info = r.value();
    return Status::OK();
  });
  if (!s.ok()) return s;
  return info;
}

Result<ReverseTopKResult> ShardClient::ReverseTopK(ConstRow q, uint32_t k,
                                                   uint64_t* version_out) {
  ReverseTopKResult result;
  Status s = Call(/*idempotent=*/true, version_out, [&](RemoteClient& c) {
    Result<ReverseTopKResult> r = c.ReverseTopK(q, k);
    if (!r.ok()) return r.status();
    result = std::move(r).value();
    return Status::OK();
  });
  if (!s.ok()) return s;
  return result;
}

Result<ReverseKRanksResult> ShardClient::ReverseKRanksCapped(
    ConstRow q, uint32_t k, int64_t rank_cap, uint64_t* version_out) {
  ReverseKRanksResult result;
  Status s = Call(/*idempotent=*/true, version_out, [&](RemoteClient& c) {
    Result<ReverseKRanksResult> r = c.ReverseKRanksCapped(q, k, rank_cap);
    if (!r.ok()) return r.status();
    result = std::move(r).value();
    return Status::OK();
  });
  if (!s.ok()) return s;
  return result;
}

Result<std::vector<ReverseTopKResult>> ShardClient::ReverseTopKBatch(
    const Dataset& queries, uint32_t k, uint64_t* version_out) {
  std::vector<ReverseTopKResult> result;
  Status s = Call(/*idempotent=*/true, version_out, [&](RemoteClient& c) {
    Result<std::vector<ReverseTopKResult>> r = c.ReverseTopKBatch(queries, k);
    if (!r.ok()) return r.status();
    result = std::move(r).value();
    return Status::OK();
  });
  if (!s.ok()) return s;
  return result;
}

Result<std::vector<ReverseKRanksResult>> ShardClient::ReverseKRanksBatch(
    const Dataset& queries, uint32_t k, uint64_t* version_out) {
  std::vector<ReverseKRanksResult> result;
  Status s = Call(/*idempotent=*/true, version_out, [&](RemoteClient& c) {
    Result<std::vector<ReverseKRanksResult>> r =
        c.ReverseKRanksBatch(queries, k);
    if (!r.ok()) return r.status();
    result = std::move(r).value();
    return Status::OK();
  });
  if (!s.ok()) return s;
  return result;
}

Status ShardClient::InsertPoint(ConstRow p, uint64_t* version_out) {
  return Call(/*idempotent=*/false, version_out,
              [&](RemoteClient& c) { return c.InsertPoint(p); });
}

Status ShardClient::InsertWeight(ConstRow w, uint64_t* version_out) {
  return Call(/*idempotent=*/false, version_out,
              [&](RemoteClient& c) { return c.InsertWeight(w); });
}

Status ShardClient::DeletePoint(uint64_t local_live_id,
                                uint64_t* version_out) {
  return Call(/*idempotent=*/false, version_out, [&](RemoteClient& c) {
    return c.DeletePoint(local_live_id);
  });
}

Status ShardClient::DeleteWeight(uint64_t local_live_id,
                                 uint64_t* version_out) {
  return Call(/*idempotent=*/false, version_out, [&](RemoteClient& c) {
    return c.DeleteWeight(local_live_id);
  });
}

Status ShardClient::Compact(uint64_t* version_out) {
  return Call(/*idempotent=*/false, version_out,
              [&](RemoteClient& c) { return c.Compact(); });
}

ShardClient::StatsSnapshot ShardClient::Snapshot() const {
  StatsSnapshot snap;
  snap.requests = requests_.load(std::memory_order_relaxed);
  snap.failures = failures_.load(std::memory_order_relaxed);
  snap.retries = retries_.load(std::memory_order_relaxed);
  snap.reconnects = reconnects_.load(std::memory_order_relaxed);
  snap.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  snap.breaker = breaker_state();
  snap.rtt_hist = rtt_hist_.Snapshot();
  return snap;
}

}  // namespace gir
