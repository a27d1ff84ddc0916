// gir_router — GIRNET01 front-end router over remote shard servers
// (DESIGN.md §18).
//
//   gir_router --index shd.bin --shards host:port,host:port,...
//              [--host 127.0.0.1] [--port 0] [--port-file FILE]
//              [--timeout-ms N] [--connect-ms N] [--retries N]
//              [--backoff-ms N] [--backoff-max-ms N]
//              [--breaker-threshold N] [--breaker-cooldown-ms N]
//
// --index names the GIRSHD01 envelope the shard servers were split from:
// the router boots from its manifest (shard count, dim, owner map,
// insert counter) and never touches the shard payloads — those live in
// the `gir_serve --shard-lane` processes listed in --shards, one
// endpoint per lane, in lane order.
//
// The front port speaks the same GIRNET01 protocol gir_serve does, so
// every existing client (gir_cli remote, RemoteClient) works unchanged.
// Mutations are admitted in one global order and fanned to owner shards
// (broadcast for point ops and compaction); queries pin the admitted
// version per shard and merge k-way. A shard that misses its deadline,
// trips its circuit breaker, or desyncs is excluded from coverage and
// the answer is returned with status kDegraded plus a shard-coverage
// bitmap — exact over the covered shards, never a wrong merge.
//
// Serves until SIGTERM/SIGINT, then drains: in-flight requests are
// answered, the shard lanes stop, and the process exits 0 after
// printing the router STATS block (per-shard RTT histograms, retries,
// reconnects, breaker state).
//
// Exit code 0 on clean drain, 1 on usage errors, 2 on runtime failures
// (including any shard unreachable at boot — degraded mode is for
// failures after a healthy start, not for booting blind).

#include <cstdio>
#include <string>

#include "dist/router_core.h"
#include "dist/router_server.h"
#include "grid/index_io.h"
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

  const auto index_path = args.Get("index");
  const auto shards_spec = args.Get("shards");
  if (!index_path || !shards_spec || shards_spec->empty()) {
    return Fail("gir_router requires --index and --shards host:port,...");
  }

  auto manifest = LoadShardedManifest(*index_path);
  if (!manifest.ok()) return FailStatus(manifest.status());
  auto endpoints = ParseShardList(*shards_spec);
  if (!endpoints.ok()) return FailStatus(endpoints.status());
  if (endpoints.value().size() != manifest.value().shard_count) {
    std::fprintf(stderr,
                 "error: --shards lists %zu endpoint(s) but %s has %u "
                 "shard lane(s)\n",
                 endpoints.value().size(), index_path->c_str(),
                 manifest.value().shard_count);
    return 1;
  }

  ShardClientOptions client_options;
  if (const auto v = args.GetSize("timeout-ms"); v) {
    client_options.io_ms = static_cast<uint32_t>(*v);
  }
  if (const auto v = args.GetSize("connect-ms"); v) {
    client_options.connect_ms = static_cast<uint32_t>(*v);
  }
  if (const auto v = args.GetSize("retries"); v) {
    client_options.max_retries = static_cast<uint32_t>(*v);
  }
  if (const auto v = args.GetSize("backoff-ms"); v) {
    client_options.backoff_initial_ms = static_cast<uint32_t>(*v);
  }
  if (const auto v = args.GetSize("backoff-max-ms"); v) {
    client_options.backoff_max_ms = static_cast<uint32_t>(*v);
  }
  if (const auto v = args.GetSize("breaker-threshold"); v) {
    client_options.breaker_threshold = static_cast<uint32_t>(*v);
  }
  if (const auto v = args.GetSize("breaker-cooldown-ms"); v) {
    client_options.breaker_cooldown_ms = static_cast<uint32_t>(*v);
  }

  const uint32_t shard_count = manifest.value().shard_count;
  DistRouter router(std::move(manifest).value(),
                    std::move(endpoints).value(), client_options);
  const Status connected = router.Connect();
  if (!connected.ok()) return FailStatus(connected);

  RouterServerOptions server_options;
  server_options.host = args.Get("host").value_or(server_options.host);
  server_options.port =
      static_cast<uint16_t>(args.GetSize("port").value_or(0));
  server_options.max_connections = static_cast<uint32_t>(
      args.GetSize("max-connections").value_or(
          server_options.max_connections));

  RouterServer server(&router, server_options);
  const Status started = server.Start();
  if (!started.ok()) return FailStatus(started);

  std::printf(
      "routing %llu points x %llu weights over %u remote shard(s) on "
      "%s:%u (io timeout %u ms, retries %u, breaker at %u failures)\n",
      static_cast<unsigned long long>(router.live_points()),
      static_cast<unsigned long long>(router.live_weights()), shard_count,
      server_options.host.c_str(), server.port(), client_options.io_ms,
      client_options.max_retries, client_options.breaker_threshold);
  std::fflush(stdout);

  if (const auto port_file = args.Get("port-file"); port_file.has_value()) {
    const Status written = WritePortFileAtomic(*port_file, server.port());
    if (!written.ok()) return FailStatus(written);
  }

  std::printf("received %s, draining\n", WaitForDrainSignal(mask));
  std::fflush(stdout);
  server.Shutdown();
  router.Shutdown();
  std::printf("drained cleanly at sequence %llu\n%s",
              static_cast<unsigned long long>(router.sequence()),
              router.RenderStats().c_str());
  return 0;
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) { return gir::Run(argc, argv); }
