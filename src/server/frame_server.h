#ifndef GIR_SERVER_FRAME_SERVER_H_
#define GIR_SERVER_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/status.h"
#include "server/metrics.h"
#include "server/protocol.h"

namespace gir {

/// One accepted GIRNET01 connection, shared between its reader thread and
/// any thread that answers a request later (QueryServer's scheduler
/// answers queued queries after the reader may have exited). The fd
/// closes when the last reference drops.
class FrameConnection {
 public:
  explicit FrameConnection(int fd) : fd_(fd) {}
  ~FrameConnection();

  FrameConnection(const FrameConnection&) = delete;
  FrameConnection& operator=(const FrameConnection&) = delete;

  /// Sends one frame body under the connection's write lock, so frames
  /// from different threads never interleave. A peer that already hung up
  /// is not an error worth reporting; its reader notices on its own.
  void Send(const std::string& body);

  int fd() const { return fd_; }

 private:
  const int fd_;
  std::mutex write_mu_;
};

using ConnectionPtr = std::shared_ptr<FrameConnection>;

/// FrameServer — the GIRNET01 transport QueryServer and RouterServer
/// share (DESIGN.md §13). It owns the listener, one accept thread and one
/// reader thread per connection. A reader checks the magic, then reads
/// frames. Each frame is decoded (DecodeRequestBody) and checked
/// (CheckRequest) before the owner's handler sees it, on the reader
/// thread. A frame that fails to decode gets one kMalformed reply and the
/// connection closes; a request that fails the check gets
/// kInvalidArgument and the connection stays open.
///
/// Drain policy. Once Shutdown() starts, queries and mutations are
/// refused with kShuttingDown; PING, INFO and STATS are still answered.
/// Shutdown() then stops accepting, shuts the read side of every
/// connection and joins every reader, so no handler call runs after it
/// returns. Answers owed on connections the owner still holds (queued
/// queries) can still be sent.
///
/// Readers are reaped on each accept: a reader that has exited is joined
/// and dropped then, so a server that sees many short connections keeps
/// only the live ones' thread stacks mapped.
class FrameServer {
 public:
  /// Called on the reader thread for every request that passed the check.
  using Handler =
      std::function<void(const ConnectionPtr& conn, const NetRequest&)>;

  /// `dim` is what CheckRequest holds requests to. `version` stamps the
  /// error replies. `metrics` (nullable) counts connections, requests,
  /// malformed frames and drain rejections.
  FrameServer(size_t dim, Handler handler, std::function<uint64_t()> version,
              ServerMetrics* metrics = nullptr);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens and spawns the accept thread. Connections beyond
  /// `max_connections` open readers are accepted and closed at once.
  Status Start(const std::string& host, uint16_t port,
               uint32_t max_connections);

  /// The bound TCP port (after Start(); useful with port 0).
  uint16_t port() const { return port_; }

  /// Blocks until every reader is joined. Idempotent.
  void Shutdown();

  /// An error reply stamped with the owner's current version.
  void SendError(const ConnectionPtr& conn, NetVerb verb, NetStatus status,
                 uint64_t request_id, const std::string& message) const;

 private:
  struct Reader {
    std::thread thread;
    std::weak_ptr<FrameConnection> conn;
    bool done = false;  // under mu_
  };

  void AcceptLoop();
  void ReaderLoop(ConnectionPtr conn, std::list<Reader>::iterator self);
  void ServeFrames(const ConnectionPtr& conn);

  const size_t dim_;
  const Handler handler_;
  const std::function<uint64_t()> version_;
  ServerMetrics* const metrics_;

  uint32_t max_connections_ = 0;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};

  std::mutex mu_;
  std::list<Reader> readers_;

  std::thread accept_thread_;
};

}  // namespace gir

#endif  // GIR_SERVER_FRAME_SERVER_H_
