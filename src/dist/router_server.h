#ifndef GIR_DIST_ROUTER_SERVER_H_
#define GIR_DIST_ROUTER_SERVER_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "dist/router_core.h"
#include "server/frame_server.h"
#include "server/protocol.h"

namespace gir {

/// Front-port knobs of the distributed router.
struct RouterServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  uint32_t max_connections = 256;
};

/// RouterServer — the GIRNET01 front end of a DistRouter: the same wire
/// protocol `gir_serve` speaks, served by a cluster instead of one
/// process, over the same transport (server/frame_server.h): one accept
/// thread plus one reader thread per connection, the same request check
/// and drain policy. Every verb executes inline on its reader thread (the
/// DistRouter's per-shard lanes provide the concurrency — a reader blocks
/// only for its own fan-out's round trips).
///
/// Answers that miss one or more shards are returned with status
/// kDegraded, a shard-coverage bitmap prefixed to the normal payload
/// (server/protocol.h) — exact over the covered shards, never a wrong
/// merge.
class RouterServer {
 public:
  /// The router must be Connect()ed and outlive the server.
  RouterServer(DistRouter* router, RouterServerOptions options);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  Status Start();
  uint16_t port() const { return front_.port(); }
  /// Graceful drain: stops accepting, unblocks the readers, joins.
  void Shutdown();

 private:
  void Dispatch(const ConnectionPtr& conn, const NetRequest& request);
  void HandleQuery(const ConnectionPtr& conn, const NetRequest& request);
  void HandleMutation(const ConnectionPtr& conn, const NetRequest& request);

  DistRouter* router_;
  RouterServerOptions options_;
  FrameServer front_;
};

}  // namespace gir

#endif  // GIR_DIST_ROUTER_SERVER_H_
