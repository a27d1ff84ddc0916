#include "server/protocol.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "core/dataset.h"
#include "core/types.h"
#include "io/checked_reader.h"

namespace gir {

namespace {

/// Little-endian scalar appends. The library already assumes a
/// little-endian host in its file formats (index_io.cc writes raw
/// scalars); the wire format shares that assumption.
template <typename T>
void Append(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendHeader(std::string* out, NetVerb verb, uint8_t req_flags,
                  uint16_t tenant_id, uint32_t deadline_us,
                  uint64_t request_id) {
  Append<uint8_t>(out, static_cast<uint8_t>(verb));
  Append<uint8_t>(out, req_flags);
  Append<uint16_t>(out, tenant_id);
  Append<uint32_t>(out, deadline_us);
  Append<uint64_t>(out, request_id);
}

void AppendResponseHeader(std::string* out, NetVerb verb, NetStatus status,
                          uint64_t request_id, uint64_t version,
                          uint16_t flags = 0) {
  Append<uint8_t>(out, static_cast<uint8_t>(verb));
  Append<uint8_t>(out, static_cast<uint8_t>(status));
  Append<uint16_t>(out, flags);
  Append<uint32_t>(out, 0);
  Append<uint64_t>(out, request_id);
  Append<uint64_t>(out, version);
}

void AppendDoubles(std::string* out, const std::vector<double>& v) {
  out->append(reinterpret_cast<const char*>(v.data()),
              v.size() * sizeof(double));
}

void AppendRow(std::string* out, const ReverseTopKResult& result) {
  Append<uint32_t>(out, static_cast<uint32_t>(result.size()));
  for (VectorId id : result) Append<uint32_t>(out, id);
}

void AppendRow(std::string* out, const ReverseKRanksResult& result) {
  Append<uint32_t>(out, static_cast<uint32_t>(result.size()));
  for (const RankedWeight& entry : result) {
    Append<uint32_t>(out, entry.weight_id);
    Append<int64_t>(out, entry.rank);
  }
}

bool IsQueryVerb(NetVerb verb) {
  return verb == NetVerb::kReverseTopK || verb == NetVerb::kReverseKRanks ||
         verb == NetVerb::kReverseTopKBatch ||
         verb == NetVerb::kReverseKRanksBatch ||
         verb == NetVerb::kReverseKRanksCapped;
}

bool IsBatchVerb(NetVerb verb) {
  return verb == NetVerb::kReverseTopKBatch ||
         verb == NetVerb::kReverseKRanksBatch;
}

/// A success header, or — with a coverage — a kDegraded header followed
/// by the u32 shard count and u64 coverage bitmap.
void AppendAnswerHeader(std::string* out, NetVerb verb, uint64_t request_id,
                        uint64_t version, uint16_t flags,
                        const NetCoverage* coverage) {
  AppendResponseHeader(
      out, verb, coverage != nullptr ? NetStatus::kDegraded : NetStatus::kOk,
      request_id, version, flags);
  if (coverage != nullptr) {
    Append<uint32_t>(out, coverage->shard_count);
    Append<uint64_t>(out, coverage->coverage);
  }
}

template <typename Row>
std::string EncodeAnswer(NetVerb verb, uint64_t request_id, uint64_t version,
                         const Row* rows, size_t n, uint16_t flags,
                         const NetCoverage* coverage) {
  std::string body;
  AppendAnswerHeader(&body, verb, request_id, version, flags, coverage);
  if (IsBatchVerb(verb)) Append<uint32_t>(&body, static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) AppendRow(&body, rows[i]);
  return body;
}

bool ReadTopK(CheckedReader& reader, ReverseTopKResult* result) {
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) return false;
  uint64_t bytes = 0;
  if (!CheckedReader::CheckedPayloadBytes(count, sizeof(uint32_t), &bytes) ||
      bytes > reader.Remaining()) {
    return false;
  }
  std::vector<uint32_t> ids;
  if (!reader.ReadArray(count, &ids)) return false;
  result->assign(ids.begin(), ids.end());
  return true;
}

bool ReadKRanks(CheckedReader& reader, ReverseKRanksResult* result) {
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) return false;
  uint64_t bytes = 0;
  if (!CheckedReader::CheckedPayloadBytes(
          count, sizeof(uint32_t) + sizeof(int64_t), &bytes) ||
      bytes > reader.Remaining()) {
    return false;
  }
  result->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!reader.ReadU32(&(*result)[i].weight_id) ||
        !reader.ReadI64(&(*result)[i].rank)) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* NetStatusName(NetStatus status) {
  switch (status) {
    case NetStatus::kOk:
      return "ok";
    case NetStatus::kMalformed:
      return "malformed";
    case NetStatus::kInvalidArgument:
      return "invalid-argument";
    case NetStatus::kOverloaded:
      return "overloaded";
    case NetStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case NetStatus::kShuttingDown:
      return "shutting-down";
    case NetStatus::kInternal:
      return "internal";
    case NetStatus::kDegraded:
      return "degraded";
    case NetStatus::kReadOnly:
      return "read-only";
  }
  return "unknown";
}

std::string EncodeRequestBody(const NetRequest& request) {
  std::string body;
  AppendHeader(&body, request.verb, request.req_flags, request.tenant_id,
               request.deadline_us, request.request_id);
  switch (request.verb) {
    case NetVerb::kPing:
    case NetVerb::kInfo:
    case NetVerb::kStats:
    case NetVerb::kCompact:
      break;
    case NetVerb::kReverseTopK:
    case NetVerb::kReverseKRanks:
      Append<uint32_t>(&body, request.k);
      Append<uint32_t>(&body, request.dim);
      AppendDoubles(&body, request.values);
      break;
    case NetVerb::kReverseKRanksCapped:
      Append<uint32_t>(&body, request.k);
      Append<int64_t>(&body, request.rank_cap);
      Append<uint32_t>(&body, request.dim);
      AppendDoubles(&body, request.values);
      break;
    case NetVerb::kReverseTopKBatch:
    case NetVerb::kReverseKRanksBatch:
      Append<uint32_t>(&body, request.k);
      Append<uint32_t>(&body, request.num_queries);
      Append<uint32_t>(&body, request.dim);
      AppendDoubles(&body, request.values);
      break;
    case NetVerb::kInsertPoint:
    case NetVerb::kInsertWeight:
      Append<uint32_t>(&body, request.dim);
      AppendDoubles(&body, request.values);
      break;
    case NetVerb::kDeletePoint:
    case NetVerb::kDeleteWeight:
      Append<uint64_t>(&body, request.target_id);
      break;
  }
  return body;
}

std::string EncodeErrorResponseBody(NetVerb verb, NetStatus status,
                                    uint64_t request_id, uint64_t version,
                                    const std::string& message) {
  std::string body;
  AppendResponseHeader(&body, verb, status, request_id, version);
  Append<uint32_t>(&body, static_cast<uint32_t>(message.size()));
  body.append(message);
  return body;
}

std::string EncodeAckResponseBody(NetVerb verb, uint64_t request_id,
                                  uint64_t version,
                                  const NetCoverage* coverage) {
  std::string body;
  AppendAnswerHeader(&body, verb, request_id, version, 0, coverage);
  return body;
}

std::string EncodeTopKResponseBody(NetVerb verb, uint64_t request_id,
                                   uint64_t version,
                                   const ReverseTopKResult* rows, size_t n,
                                   uint16_t flags,
                                   const NetCoverage* coverage) {
  return EncodeAnswer(verb, request_id, version, rows, n, flags, coverage);
}

std::string EncodeKRanksResponseBody(NetVerb verb, uint64_t request_id,
                                     uint64_t version,
                                     const ReverseKRanksResult* rows,
                                     size_t n, uint16_t flags,
                                     const NetCoverage* coverage) {
  return EncodeAnswer(verb, request_id, version, rows, n, flags, coverage);
}

std::string EncodeInfoResponseBody(uint64_t request_id, uint64_t version,
                                   const NetInfo& info) {
  std::string body;
  AppendResponseHeader(&body, NetVerb::kInfo, NetStatus::kOk, request_id,
                       version);
  Append<uint32_t>(&body, info.dim);
  Append<uint64_t>(&body, info.live_points);
  Append<uint64_t>(&body, info.live_weights);
  Append<uint64_t>(&body, info.generation);
  Append<uint8_t>(&body, info.dirty);
  Append<uint8_t>(&body, info.scan_mode);
  return body;
}

std::string EncodeStatsResponseBody(uint64_t request_id, uint64_t version,
                                    const std::string& text) {
  std::string body;
  AppendResponseHeader(&body, NetVerb::kStats, NetStatus::kOk, request_id,
                       version);
  Append<uint32_t>(&body, static_cast<uint32_t>(text.size()));
  body.append(text);
  return body;
}

NetStatus DecodeRequestBody(const std::string& body, NetRequest* out,
                            std::string* error) {
  std::istringstream in(body, std::ios::binary);
  CheckedReader reader(in);
  uint8_t verb_raw = 0;
  if (!reader.ReadU8(&verb_raw) || !reader.ReadU8(&out->req_flags) ||
      !reader.ReadU16(&out->tenant_id) ||
      !reader.ReadU32(&out->deadline_us) ||
      !reader.ReadU64(&out->request_id)) {
    *error = "truncated request header";
    return NetStatus::kMalformed;
  }
  if (verb_raw < static_cast<uint8_t>(NetVerb::kPing) ||
      verb_raw > static_cast<uint8_t>(NetVerb::kReverseKRanksCapped)) {
    *error = "unknown verb";
    return NetStatus::kMalformed;
  }
  out->verb = static_cast<NetVerb>(verb_raw);

  if (IsQueryVerb(out->verb)) {
    if (!reader.ReadU32(&out->k)) {
      *error = "truncated query parameters";
      return NetStatus::kMalformed;
    }
    if (out->verb == NetVerb::kReverseKRanksCapped &&
        !reader.ReadI64(&out->rank_cap)) {
      *error = "truncated query parameters";
      return NetStatus::kMalformed;
    }
    out->num_queries = 1;
    if (IsBatchVerb(out->verb) && !reader.ReadU32(&out->num_queries)) {
      *error = "truncated query parameters";
      return NetStatus::kMalformed;
    }
    if (!reader.ReadU32(&out->dim)) {
      *error = "truncated query parameters";
      return NetStatus::kMalformed;
    }
    // The frame length already caps the payload, but the header-implied
    // size is still vetted against the bytes actually present — the same
    // forged-count rejection the file loaders perform.
    uint64_t bytes = 0;
    if (!CheckedReader::CheckedPayloadBytes(
            uint64_t{out->num_queries} * out->dim, sizeof(double), &bytes) ||
        bytes > reader.Remaining()) {
      *error = "query payload exceeds the frame size";
      return NetStatus::kMalformed;
    }
    if (!reader.ReadArray(size_t{out->num_queries} * out->dim,
                          &out->values)) {
      *error = "truncated query payload";
      return NetStatus::kMalformed;
    }
  } else if (out->verb == NetVerb::kInsertPoint ||
             out->verb == NetVerb::kInsertWeight) {
    if (!reader.ReadU32(&out->dim)) {
      *error = "truncated insert parameters";
      return NetStatus::kMalformed;
    }
    uint64_t bytes = 0;
    if (!CheckedReader::CheckedPayloadBytes(out->dim, sizeof(double),
                                            &bytes) ||
        bytes > reader.Remaining()) {
      *error = "insert payload exceeds the frame size";
      return NetStatus::kMalformed;
    }
    if (!reader.ReadArray(out->dim, &out->values)) {
      *error = "truncated insert payload";
      return NetStatus::kMalformed;
    }
  } else if (out->verb == NetVerb::kDeletePoint ||
             out->verb == NetVerb::kDeleteWeight) {
    if (!reader.ReadU64(&out->target_id)) {
      *error = "truncated delete payload";
      return NetStatus::kMalformed;
    }
  }
  if (!reader.AtEnd()) {
    *error = "trailing bytes after request payload";
    return NetStatus::kMalformed;
  }
  return NetStatus::kOk;
}

NetStatus CheckRequest(const NetRequest& request, size_t dim,
                       std::string* error) {
  switch (request.verb) {
    case NetVerb::kReverseTopK:
    case NetVerb::kReverseKRanks:
    case NetVerb::kReverseKRanksCapped:
    case NetVerb::kReverseTopKBatch:
    case NetVerb::kReverseKRanksBatch:
      if (request.k == 0) {
        *error = "k must be positive";
      } else if (request.num_queries == 0) {
        *error = "empty query batch";
      } else if (request.dim != dim) {
        *error = "query dimension does not match the index";
      } else if (!RowValuesValid(request.values)) {
        *error = "query values must be finite and non-negative";
      } else {
        return NetStatus::kOk;
      }
      return NetStatus::kInvalidArgument;
    case NetVerb::kInsertPoint:
    case NetVerb::kInsertWeight:
      if (request.dim == dim) return NetStatus::kOk;
      *error = "row dimension does not match the index";
      return NetStatus::kInvalidArgument;
    case NetVerb::kDeletePoint:
    case NetVerb::kDeleteWeight:
      if (request.target_id <= std::numeric_limits<VectorId>::max()) {
        return NetStatus::kOk;
      }
      *error = "id out of the VectorId range";
      return NetStatus::kInvalidArgument;
    default:
      return NetStatus::kOk;
  }
}

NetStatus NetStatusOf(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument
             ? NetStatus::kInvalidArgument
             : NetStatus::kInternal;
}

bool DecodeResponseBody(const std::string& body, NetResponse* out) {
  std::istringstream in(body, std::ios::binary);
  CheckedReader reader(in);
  uint8_t verb_raw = 0, status_raw = 0;
  uint32_t zero32 = 0;
  if (!reader.ReadU8(&verb_raw) || !reader.ReadU8(&status_raw) ||
      !reader.ReadU16(&out->flags) || !reader.ReadU32(&zero32) ||
      !reader.ReadU64(&out->request_id) ||
      !reader.ReadU64(&out->index_version)) {
    return false;
  }
  if (verb_raw < static_cast<uint8_t>(NetVerb::kPing) ||
      verb_raw > static_cast<uint8_t>(NetVerb::kReverseKRanksCapped) ||
      status_raw > static_cast<uint8_t>(NetStatus::kReadOnly)) {
    return false;
  }
  out->verb = static_cast<NetVerb>(verb_raw);
  out->status = static_cast<NetStatus>(status_raw);

  if (out->status == NetStatus::kDegraded) {
    // Degraded responses are payload-bearing: the coverage bitmap comes
    // first, then the verb's normal success payload (restricted to the
    // covered shards) is parsed by the switch below.
    if (!reader.ReadU32(&out->shard_count) ||
        !reader.ReadU64(&out->coverage)) {
      return false;
    }
    if (out->shard_count == 0 || out->shard_count > 64 ||
        (out->shard_count < 64 &&
         (out->coverage >> out->shard_count) != 0)) {
      return false;
    }
  } else if (out->status != NetStatus::kOk) {
    uint32_t len = 0;
    if (!reader.ReadU32(&len) || len > reader.Remaining()) return false;
    std::vector<char> msg;
    if (!reader.ReadArray(len, &msg)) return false;
    out->error.assign(msg.begin(), msg.end());
    return reader.AtEnd();
  }

  switch (out->verb) {
    case NetVerb::kPing:
    case NetVerb::kCompact:
    case NetVerb::kInsertPoint:
    case NetVerb::kInsertWeight:
    case NetVerb::kDeletePoint:
    case NetVerb::kDeleteWeight:
      break;
    case NetVerb::kReverseTopK:
      if (!ReadTopK(reader, &out->topk)) return false;
      break;
    case NetVerb::kReverseTopKBatch: {
      uint32_t nq = 0;
      if (!reader.ReadU32(&nq) || nq > kMaxFrameBytes / sizeof(uint32_t)) {
        return false;
      }
      out->topk_batch.resize(nq);
      for (uint32_t i = 0; i < nq; ++i) {
        if (!ReadTopK(reader, &out->topk_batch[i])) return false;
      }
      break;
    }
    case NetVerb::kReverseKRanks:
    case NetVerb::kReverseKRanksCapped:
      if (!ReadKRanks(reader, &out->kranks)) return false;
      break;
    case NetVerb::kReverseKRanksBatch: {
      uint32_t nq = 0;
      if (!reader.ReadU32(&nq) || nq > kMaxFrameBytes / sizeof(uint32_t)) {
        return false;
      }
      out->kranks_batch.resize(nq);
      for (uint32_t i = 0; i < nq; ++i) {
        if (!ReadKRanks(reader, &out->kranks_batch[i])) return false;
      }
      break;
    }
    case NetVerb::kInfo:
      if (!reader.ReadU32(&out->info.dim) ||
          !reader.ReadU64(&out->info.live_points) ||
          !reader.ReadU64(&out->info.live_weights) ||
          !reader.ReadU64(&out->info.generation) ||
          !reader.ReadU8(&out->info.dirty) ||
          !reader.ReadU8(&out->info.scan_mode)) {
        return false;
      }
      break;
    case NetVerb::kStats: {
      uint32_t len = 0;
      if (!reader.ReadU32(&len) || len > reader.Remaining()) return false;
      std::vector<char> text;
      if (!reader.ReadArray(len, &text)) return false;
      out->text.assign(text.begin(), text.end());
      break;
    }
  }
  return reader.AtEnd();
}

// ---- Framed socket IO --------------------------------------------------

Status SendAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // SO_SNDTIMEO expiry (RemoteClientOptions::io_ms) surfaces here.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("send timed out");
      }
      return Status::IOError(std::string("send: ") + strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, size_t size, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // SO_RCVTIMEO expiry (RemoteClientOptions::io_ms) surfaces here.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("recv timed out");
      }
      return Status::IOError(std::string("recv: ") + strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::NotFound("connection closed");
      }
      return Status::Corruption("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SendMagic(int fd) { return SendAll(fd, kNetMagic, sizeof(kNetMagic)); }

Status ExpectMagic(int fd) {
  char magic[8];
  bool clean_eof = false;
  Status s = RecvAll(fd, magic, sizeof(magic), &clean_eof);
  if (!s.ok()) return s;
  if (std::memcmp(magic, kNetMagic, sizeof(kNetMagic)) != 0) {
    return Status::Corruption("bad protocol magic");
  }
  return Status::OK();
}

Status SendFrame(int fd, const std::string& body) {
  const uint32_t len = static_cast<uint32_t>(body.size());
  std::string frame;
  frame.reserve(sizeof(len) + body.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(body);
  return SendAll(fd, frame.data(), frame.size());
}

Status ReadFrameBody(int fd, uint32_t max_bytes, std::string* body) {
  uint32_t len = 0;
  bool clean_eof = false;
  Status s =
      RecvAll(fd, reinterpret_cast<char*>(&len), sizeof(len), &clean_eof);
  if (!s.ok()) return s;
  if (len > max_bytes) {
    return Status::Corruption("frame length exceeds the limit");
  }
  body->resize(len);
  if (len == 0) return Status::OK();
  return RecvAll(fd, body->data(), len, nullptr);
}

}  // namespace gir
