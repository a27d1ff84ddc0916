#include "dist/router_server.h"

#include <utility>
#include <vector>

#include "core/dataset.h"

namespace gir {

namespace {

/// Appends a single-row answer to `rows`.
template <typename Row>
Status AppendRows(Result<Row> result, std::vector<Row>* rows) {
  if (!result.ok()) return result.status();
  rows->push_back(std::move(result).value());
  return Status::OK();
}

/// Takes a batch answer as `rows`.
template <typename Row>
Status AppendRows(Result<std::vector<Row>> result, std::vector<Row>* rows) {
  if (!result.ok()) return result.status();
  *rows = std::move(result).value();
  return Status::OK();
}

}  // namespace

RouterServer::RouterServer(DistRouter* router, RouterServerOptions options)
    : router_(router),
      options_(std::move(options)),
      front_(
          router->dim(),
          [this](const ConnectionPtr& conn, const NetRequest& request) {
            Dispatch(conn, request);
          },
          [this] { return router_->sequence(); }) {}

RouterServer::~RouterServer() { Shutdown(); }

Status RouterServer::Start() {
  return front_.Start(options_.host, options_.port,
                      options_.max_connections);
}

void RouterServer::Shutdown() { front_.Shutdown(); }

void RouterServer::Dispatch(const ConnectionPtr& conn,
                            const NetRequest& request) {
  switch (request.verb) {
    case NetVerb::kPing:
      conn->Send(EncodeAckResponseBody(NetVerb::kPing, request.request_id,
                                       router_->sequence()));
      return;
    case NetVerb::kStats:
      conn->Send(EncodeStatsResponseBody(
          request.request_id, router_->sequence(), router_->RenderStats()));
      return;
    case NetVerb::kInfo: {
      NetInfo info;
      info.dim = router_->dim();
      info.live_points = router_->live_points();
      info.live_weights = router_->live_weights();
      conn->Send(EncodeInfoResponseBody(request.request_id,
                                        router_->sequence(), info));
      return;
    }
    case NetVerb::kInsertPoint:
    case NetVerb::kInsertWeight:
    case NetVerb::kDeletePoint:
    case NetVerb::kDeleteWeight:
    case NetVerb::kCompact:
      HandleMutation(conn, request);
      return;
    default:
      HandleQuery(conn, request);
      return;
  }
}

void RouterServer::HandleQuery(const ConnectionPtr& conn,
                               const NetRequest& request) {
  const ConstRow row(request.values.data(), request.values.size());
  // CheckRequest vetted the batch's shape and values: FromFlat succeeds.
  const auto batch = [&] {
    return std::move(Dataset::FromFlat(request.dim, request.values)).value();
  };
  DistCoverage meta;
  std::vector<ReverseTopKResult> topk;
  std::vector<ReverseKRanksResult> kranks;
  Status s = Status::OK();
  switch (request.verb) {
    case NetVerb::kReverseTopK:
      s = AppendRows(router_->ReverseTopK(row, request.k, &meta), &topk);
      break;
    case NetVerb::kReverseKRanks:
      s = AppendRows(router_->ReverseKRanks(row, request.k, &meta), &kranks);
      break;
    case NetVerb::kReverseKRanksCapped:
      s = AppendRows(
          router_->ReverseKRanks(row, request.k, &meta, request.rank_cap),
          &kranks);
      break;
    case NetVerb::kReverseTopKBatch:
      s = AppendRows(router_->ReverseTopKBatch(batch(), request.k, &meta),
                     &topk);
      break;
    default:
      s = AppendRows(router_->ReverseKRanksBatch(batch(), request.k, &meta),
                     &kranks);
      break;
  }
  if (!s.ok()) {
    front_.SendError(conn, request.verb, NetStatusOf(s), request.request_id,
                     s.message());
    return;
  }
  const NetCoverage coverage{meta.shard_count, meta.coverage};
  const NetCoverage* degraded = meta.degraded ? &coverage : nullptr;
  // Exactly one family holds the answer's num_queries >= 1 rows.
  conn->Send(!kranks.empty()
                 ? EncodeKRanksResponseBody(request.verb, request.request_id,
                                            meta.version, kranks.data(),
                                            kranks.size(), 0, degraded)
                 : EncodeTopKResponseBody(request.verb, request.request_id,
                                          meta.version, topk.data(),
                                          topk.size(), 0, degraded));
}

void RouterServer::HandleMutation(const ConnectionPtr& conn,
                                  const NetRequest& request) {
  const ConstRow row(request.values.data(), request.values.size());
  // CheckRequest has bounded target_id to the VectorId range.
  const VectorId id = static_cast<VectorId>(request.target_id);
  DistCoverage meta;
  Status s = Status::OK();
  switch (request.verb) {
    case NetVerb::kInsertPoint:
      s = router_->InsertPoint(row, &meta);
      break;
    case NetVerb::kInsertWeight:
      s = router_->InsertWeight(row, &meta);
      break;
    case NetVerb::kDeletePoint:
      s = router_->DeletePoint(id, &meta);
      break;
    case NetVerb::kDeleteWeight:
      s = router_->DeleteWeight(id, &meta);
      break;
    default:
      s = router_->Compact(&meta);
      break;
  }
  if (!s.ok()) {
    front_.SendError(conn, request.verb, NetStatusOf(s), request.request_id,
                     s.message());
    return;
  }
  const NetCoverage coverage{meta.shard_count, meta.coverage};
  conn->Send(EncodeAckResponseBody(request.verb, request.request_id,
                                   meta.version,
                                   meta.degraded ? &coverage : nullptr));
}

}  // namespace gir
