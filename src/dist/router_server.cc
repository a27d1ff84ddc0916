#include "dist/router_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <limits>
#include <utility>

#include "core/dataset.h"

namespace gir {

RouterServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

RouterServer::RouterServer(DistRouter* router, RouterServerOptions options)
    : router_(router), options_(std::move(options)) {}

RouterServer::~RouterServer() { Shutdown(); }

Status RouterServer::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("router server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host address: " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError(std::string("bind: ") + strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::IOError(std::string("getsockname: ") + strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    return Status::IOError(std::string("listen: ") + strerror(errno));
  }
  accept_thread_ = std::thread(&RouterServer::AcceptLoop, this);
  return Status::OK();
}

void RouterServer::Shutdown() {
  if (!started_.load() || shutdown_done_.exchange(true)) return;
  stopping_.store(true);

  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const std::weak_ptr<Connection>& weak : connections_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
    readers.swap(reader_threads_);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void RouterServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // shutdown(listen_fd_) lands here
    }
    if (open_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      ::close(fd);
      continue;
    }
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.push_back(conn);
    reader_threads_.emplace_back(&RouterServer::ReaderLoop, this,
                                 std::move(conn));
  }
}

void RouterServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  if (ExpectMagic(conn->fd).ok()) {
    std::string body;
    for (;;) {
      const Status s = ReadFrameBody(conn->fd, kMaxFrameBytes, &body);
      if (!s.ok()) {
        if (s.code() == StatusCode::kCorruption) {
          SendError(conn, NetVerb::kPing, NetStatus::kMalformed, 0,
                    s.message());
        }
        break;
      }
      NetRequest request;
      std::string error;
      if (DecodeRequestBody(body, &request, &error) != NetStatus::kOk) {
        SendError(conn, NetVerb::kPing, NetStatus::kMalformed,
                  request.request_id, error);
        break;
      }
      Dispatch(conn, request);
    }
  }
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void RouterServer::Dispatch(const std::shared_ptr<Connection>& conn,
                            const NetRequest& request) {
  if (stopping_.load(std::memory_order_relaxed)) {
    SendError(conn, request.verb, NetStatus::kShuttingDown,
              request.request_id, "router is draining");
    return;
  }
  switch (request.verb) {
    case NetVerb::kPing:
      SendBody(conn, EncodeAckResponseBody(NetVerb::kPing, request.request_id,
                                           router_->sequence()));
      return;
    case NetVerb::kStats:
      SendBody(conn, EncodeStatsResponseBody(request.request_id,
                                             router_->sequence(),
                                             router_->RenderStats()));
      return;
    case NetVerb::kInfo: {
      NetInfo info;
      info.dim = router_->dim();
      info.live_points = router_->live_points();
      info.live_weights = router_->live_weights();
      info.generation = 0;
      info.dirty = 0;
      info.scan_mode = 0;
      SendBody(conn, EncodeInfoResponseBody(request.request_id,
                                            router_->sequence(), info));
      return;
    }
    case NetVerb::kReverseTopK:
    case NetVerb::kReverseKRanks:
    case NetVerb::kReverseKRanksCapped:
    case NetVerb::kReverseTopKBatch:
    case NetVerb::kReverseKRanksBatch:
      HandleQuery(conn, request);
      return;
    case NetVerb::kInsertPoint:
    case NetVerb::kInsertWeight:
    case NetVerb::kDeletePoint:
    case NetVerb::kDeleteWeight:
    case NetVerb::kCompact:
      HandleMutation(conn, request);
      return;
  }
}

void RouterServer::HandleQuery(const std::shared_ptr<Connection>& conn,
                               const NetRequest& request) {
  if (request.k == 0) {
    SendError(conn, request.verb, NetStatus::kInvalidArgument,
              request.request_id, "k must be positive");
    return;
  }
  if (request.num_queries == 0) {
    SendError(conn, request.verb, NetStatus::kInvalidArgument,
              request.request_id, "empty query batch");
    return;
  }
  if (request.dim != router_->dim()) {
    SendError(conn, request.verb, NetStatus::kInvalidArgument,
              request.request_id,
              "query dimension does not match the index");
    return;
  }
  if (!RowValuesValid(request.values)) {
    SendError(conn, request.verb, NetStatus::kInvalidArgument,
              request.request_id, "query contains NaN or infinity");
    return;
  }

  DistCoverage meta;
  switch (request.verb) {
    case NetVerb::kReverseTopK: {
      Result<ReverseTopKResult> r = router_->ReverseTopK(
          ConstRow(request.values.data(), request.values.size()), request.k,
          &meta);
      if (!r.ok()) break;
      if (meta.degraded) {
        SendBody(conn, EncodeDegradedTopKResponseBody(
                           request.request_id, meta.version, meta.shard_count,
                           meta.coverage, r.value()));
      } else {
        SendBody(conn, EncodeTopKResponseBody(request.request_id,
                                              meta.version, r.value()));
      }
      return;
    }
    case NetVerb::kReverseKRanks:
    case NetVerb::kReverseKRanksCapped: {
      const int64_t cap = request.verb == NetVerb::kReverseKRanksCapped
                              ? request.rank_cap
                              : std::numeric_limits<int64_t>::max();
      Result<ReverseKRanksResult> r = router_->ReverseKRanks(
          ConstRow(request.values.data(), request.values.size()), request.k,
          &meta, cap);
      if (!r.ok()) break;
      if (meta.degraded) {
        SendBody(conn, EncodeDegradedKRanksResponseBody(
                           request.request_id, meta.version, meta.shard_count,
                           meta.coverage, r.value(), request.verb));
      } else if (request.verb == NetVerb::kReverseKRanksCapped) {
        SendBody(conn, EncodeKRanksCappedResponseBody(request.request_id,
                                                      meta.version,
                                                      r.value()));
      } else {
        SendBody(conn, EncodeKRanksResponseBody(request.request_id,
                                                meta.version, r.value()));
      }
      return;
    }
    case NetVerb::kReverseTopKBatch: {
      Result<Dataset> queries =
          Dataset::FromFlat(request.dim, request.values);
      if (!queries.ok()) {
        SendError(conn, request.verb, NetStatus::kInvalidArgument,
                  request.request_id, queries.status().message());
        return;
      }
      Result<std::vector<ReverseTopKResult>> r =
          router_->ReverseTopKBatch(queries.value(), request.k, &meta);
      if (!r.ok()) break;
      if (meta.degraded) {
        SendBody(conn, EncodeDegradedTopKBatchResponseBody(
                           request.request_id, meta.version, meta.shard_count,
                           meta.coverage, r.value()));
      } else {
        SendBody(conn, EncodeTopKBatchResponseBody(request.request_id,
                                                   meta.version, r.value()));
      }
      return;
    }
    case NetVerb::kReverseKRanksBatch: {
      Result<Dataset> queries =
          Dataset::FromFlat(request.dim, request.values);
      if (!queries.ok()) {
        SendError(conn, request.verb, NetStatus::kInvalidArgument,
                  request.request_id, queries.status().message());
        return;
      }
      Result<std::vector<ReverseKRanksResult>> r =
          router_->ReverseKRanksBatch(queries.value(), request.k, &meta);
      if (!r.ok()) break;
      if (meta.degraded) {
        SendBody(conn, EncodeDegradedKRanksBatchResponseBody(
                           request.request_id, meta.version, meta.shard_count,
                           meta.coverage, r.value()));
      } else {
        SendBody(conn, EncodeKRanksBatchResponseBody(
                           request.request_id, meta.version, r.value()));
      }
      return;
    }
    default:
      break;
  }
  SendError(conn, request.verb, NetStatus::kInvalidArgument,
            request.request_id, "query rejected");
}

void RouterServer::HandleMutation(const std::shared_ptr<Connection>& conn,
                                  const NetRequest& request) {
  DistCoverage meta;
  Status s = Status::OK();
  switch (request.verb) {
    case NetVerb::kInsertPoint:
      s = router_->InsertPoint(
          ConstRow(request.values.data(), request.values.size()), &meta);
      break;
    case NetVerb::kInsertWeight:
      s = router_->InsertWeight(
          ConstRow(request.values.data(), request.values.size()), &meta);
      break;
    case NetVerb::kDeletePoint:
      s = router_->DeletePoint(static_cast<VectorId>(request.target_id),
                               &meta);
      break;
    case NetVerb::kDeleteWeight:
      s = router_->DeleteWeight(static_cast<VectorId>(request.target_id),
                                &meta);
      break;
    case NetVerb::kCompact:
      s = router_->Compact(&meta);
      break;
    default:
      s = Status::Internal("non-mutation verb in the mutation path");
      break;
  }
  if (!s.ok()) {
    const NetStatus net = s.code() == StatusCode::kInvalidArgument
                              ? NetStatus::kInvalidArgument
                              : NetStatus::kInternal;
    SendError(conn, request.verb, net, request.request_id, s.message());
    return;
  }
  if (meta.degraded) {
    SendBody(conn, EncodeDegradedAckResponseBody(
                       request.verb, request.request_id, meta.version,
                       meta.shard_count, meta.coverage));
  } else {
    SendBody(conn, EncodeAckResponseBody(request.verb, request.request_id,
                                         meta.version));
  }
}

void RouterServer::SendBody(const std::shared_ptr<Connection>& conn,
                            const std::string& body) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  (void)SendFrame(conn->fd, body);
}

void RouterServer::SendError(const std::shared_ptr<Connection>& conn,
                             NetVerb verb, NetStatus status,
                             uint64_t request_id, const std::string& message) {
  SendBody(conn, EncodeErrorResponseBody(verb, status, request_id,
                                         router_->sequence(), message));
}

}  // namespace gir
