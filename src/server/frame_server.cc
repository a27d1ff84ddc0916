#include "server/frame_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace gir {

namespace {

/// The verbs that neither query nor mutate: a draining server still
/// answers them.
bool IsControlVerb(NetVerb verb) {
  return verb == NetVerb::kPing || verb == NetVerb::kInfo ||
         verb == NetVerb::kStats;
}

}  // namespace

FrameConnection::~FrameConnection() { ::close(fd_); }

void FrameConnection::Send(const std::string& body) {
  std::lock_guard<std::mutex> lock(write_mu_);
  (void)SendFrame(fd_, body);
}

FrameServer::FrameServer(size_t dim, Handler handler,
                         std::function<uint64_t()> version,
                         ServerMetrics* metrics)
    : dim_(dim),
      handler_(std::move(handler)),
      version_(std::move(version)),
      metrics_(metrics) {}

FrameServer::~FrameServer() { Shutdown(); }

Status FrameServer::Start(const std::string& host, uint16_t port,
                          uint32_t max_connections) {
  if (started_.exchange(true)) {
    return Status::Internal("server already started");
  }
  max_connections_ = max_connections;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host address: " + host);
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
  accept_thread_ = std::thread(&FrameServer::AcceptLoop, this);
  return Status::OK();
}

void FrameServer::Shutdown() {
  if (!started_.load() || draining_.exchange(true)) return;

  // Unblock accept(); no new readers after this join.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // Unblock every reader's recv(). Only the read side closes: answers
  // the owner still owes go out on the write side.
  std::list<Reader> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Reader& reader : readers_) {
      if (ConnectionPtr conn = reader.conn.lock()) {
        ::shutdown(conn->fd(), SHUT_RD);
      }
    }
    readers.swap(readers_);
  }
  for (Reader& reader : readers) reader.thread.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void FrameServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // shutdown(listen_fd_) during Shutdown() lands here
    }
    std::list<Reader> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Reap first: an exited reader keeps its stack mapped until joined.
      for (auto it = readers_.begin(); it != readers_.end();) {
        const auto next = std::next(it);
        if (it->done) finished.splice(finished.end(), readers_, it);
        it = next;
      }
      if (readers_.size() >= max_connections_) {
        ::close(fd);
      } else {
        if (metrics_ != nullptr) metrics_->RecordAccepted();
        auto conn = std::make_shared<FrameConnection>(fd);
        Reader& reader = readers_.emplace_back();
        reader.conn = conn;
        reader.thread = std::thread(&FrameServer::ReaderLoop, this,
                                    std::move(conn), std::prev(readers_.end()));
      }
    }
    for (Reader& reader : finished) reader.thread.join();
  }
}

void FrameServer::ReaderLoop(ConnectionPtr conn,
                             std::list<Reader>::iterator self) {
  if (ExpectMagic(conn->fd()).ok()) ServeFrames(conn);
  std::lock_guard<std::mutex> lock(mu_);
  self->done = true;
}

void FrameServer::ServeFrames(const ConnectionPtr& conn) {
  std::string body;
  std::string error;
  for (;;) {
    const Status s = ReadFrameBody(conn->fd(), kMaxFrameBytes, &body);
    if (!s.ok()) {
      // Oversized length prefix or a frame the peer never finished:
      // answer once, then drop the connection.
      if (s.code() == StatusCode::kCorruption) {
        if (metrics_ != nullptr) metrics_->RecordMalformed();
        SendError(conn, NetVerb::kPing, NetStatus::kMalformed, 0,
                  s.message());
      }
      return;
    }
    if (metrics_ != nullptr) metrics_->RecordRequest();
    NetRequest request;
    if (DecodeRequestBody(body, &request, &error) != NetStatus::kOk) {
      if (metrics_ != nullptr) metrics_->RecordMalformed();
      SendError(conn, NetVerb::kPing, NetStatus::kMalformed,
                request.request_id, error);
      return;
    }
    const NetStatus check = CheckRequest(request, dim_, &error);
    if (check != NetStatus::kOk) {
      SendError(conn, request.verb, check, request.request_id, error);
      continue;
    }
    if (draining_.load() && !IsControlVerb(request.verb)) {
      if (metrics_ != nullptr) metrics_->RecordRejectedShutdown();
      SendError(conn, request.verb, NetStatus::kShuttingDown,
                request.request_id, "server is draining");
      continue;
    }
    handler_(conn, request);
  }
}

void FrameServer::SendError(const ConnectionPtr& conn, NetVerb verb,
                            NetStatus status, uint64_t request_id,
                            const std::string& message) const {
  conn->Send(EncodeErrorResponseBody(verb, status, request_id, version_(),
                                     message));
}

}  // namespace gir
