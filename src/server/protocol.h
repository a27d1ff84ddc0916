#ifndef GIR_SERVER_PROTOCOL_H_
#define GIR_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_types.h"
#include "core/status.h"

namespace gir {

/// GIRNET01 — the query server's length-prefixed binary wire protocol
/// (DESIGN.md §13). A connection starts with the 8-byte magic
/// "GIRNET01" from the client; after that each direction is a sequence
/// of frames:
///
///     u32 body_len          (little-endian; body_len <= kMaxFrameBytes)
///     body_len bytes of body
///
/// Request body:
///     u8  verb (NetVerb)    u8 0   u16 tenant_id
///     u32 deadline_us       (0 = no deadline, relative to server receipt)
///     u64 request_id        (echoed verbatim in the response)
///     verb-specific payload (see NetRequest)
///
/// Response body:
///     u8  verb (echo)       u8 status (NetStatus)   u16 flags   u32 0
///     u64 request_id        u64 index_version
///     on kOk: verb-specific payload; otherwise u32 msg_len + message
///
/// `tenant_id` and `flags` live in fields the GIRNET01 decoders have
/// always read without validating (they were written as zero), so both
/// directions stay wire-compatible: an old client's frames carry tenant
/// 0 (the default QoS class) and an old client ignores the flags word.
/// flags bit 0 = the response was served from the server's result cache
/// (bit-identical to executing at the stamped index_version).
///
/// `index_version` is the server's mutation counter at the moment the
/// request executed (mutations increment it under the writer lock), so a
/// client can replay a mutation log serially and check any query answer
/// bit-for-bit — the concurrency tests do exactly that.
///
/// Frame bodies are parsed through io/checked_reader.h — the same
/// hostile-input code path as the GIRIDX01/GIRTAU01/GIRDYN01 file
/// loaders — so truncation, trailing garbage and forged counts are
/// rejected identically on disk and on the wire.

inline constexpr char kNetMagic[8] = {'G', 'I', 'R', 'N', 'E', 'T', '0', '1'};

/// Hard cap on a frame body. Large enough for a 4096-query batch at
/// d = 64; small enough that a hostile length prefix cannot balloon
/// server memory.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

enum class NetVerb : uint8_t {
  kPing = 1,
  kInfo = 2,
  kStats = 3,
  kReverseTopK = 4,
  kReverseKRanks = 5,
  kReverseTopKBatch = 6,
  kReverseKRanksBatch = 7,
  kInsertPoint = 8,
  kInsertWeight = 9,
  kDeletePoint = 10,
  kDeleteWeight = 11,
  kCompact = 12,
  /// Reverse k-ranks with an explicit initial upper bound on the global
  /// k-th rank (i64 cap in the payload). This is how the distributed
  /// router ships the shared k-th bound of DESIGN.md §15 over the wire:
  /// each shard folds the cap into its own scan exactly as an in-process
  /// shard folds the shared atomic. Results are bit-identical to
  /// kReverseKRanks whenever cap >= the true global k-th rank.
  kReverseKRanksCapped = 13,
};

enum class NetStatus : uint8_t {
  kOk = 0,
  /// Frame failed to parse (bad verb, truncated payload, trailing bytes,
  /// forged count). The server answers then closes the connection.
  kMalformed = 1,
  /// Parsed but semantically invalid (dimension mismatch, k = 0, bad id).
  kInvalidArgument = 2,
  /// Admission control: the bounded request queue is full.
  kOverloaded = 3,
  /// The request's deadline expired before execution started.
  kDeadlineExceeded = 4,
  /// The server is draining; the request was not admitted.
  kShuttingDown = 5,
  kInternal = 6,
  /// The router answered from a strict subset of its shards (DESIGN.md
  /// §18). The response is payload-bearing like kOk, prefixed with a
  /// shard-coverage bitmap: the result is exact over the covered shards'
  /// weights and silently missing the rest — never a wrong merge.
  kDegraded = 7,
  /// The server was started --read-only and the mutation did not carry
  /// the router-write flag; nothing was applied.
  kReadOnly = 8,
};

const char* NetStatusName(NetStatus status);

/// Request header flags byte (the second header byte, written as zero
/// and read without validation by every GIRNET01 decoder since v1, so
/// repurposing it is wire-compatible in both directions).
/// Bit 0: the mutation comes from the shard's owning router. A server in
/// --read-only mode rejects mutations without it (kReadOnly) so
/// out-of-band writers cannot desync the router's sequence bookkeeping.
/// This is an operational tripwire, not an authentication mechanism.
inline constexpr uint8_t kNetReqFlagRouterWrite = 1u << 0;

/// A decoded request frame. For query verbs `values` holds
/// num_queries * dim doubles row-major (num_queries == 1 for the single
/// forms); for the insert verbs it holds one row of `dim` doubles.
struct NetRequest {
  NetVerb verb = NetVerb::kPing;
  uint64_t request_id = 0;
  uint32_t deadline_us = 0;
  /// QoS class of the issuing client; 0 is the default tenant.
  uint16_t tenant_id = 0;
  /// Header flags (kNetReqFlagRouterWrite et al).
  uint8_t req_flags = 0;
  uint32_t k = 0;
  uint32_t dim = 0;
  uint32_t num_queries = 0;
  std::vector<double> values;
  uint64_t target_id = 0;  // kDeletePoint / kDeleteWeight
  /// kReverseKRanksCapped: initial upper bound on the global k-th rank.
  int64_t rank_cap = 0;
};

/// Response header flags word (bit mask).
inline constexpr uint16_t kNetFlagCacheHit = 1u << 0;

/// kInfo response payload.
struct NetInfo {
  uint32_t dim = 0;
  uint64_t live_points = 0;
  uint64_t live_weights = 0;
  uint64_t generation = 0;
  uint8_t dirty = 0;
  uint8_t scan_mode = 0;
};

/// A decoded response frame; exactly one payload member is meaningful,
/// selected by (verb, status).
struct NetResponse {
  NetVerb verb = NetVerb::kPing;
  NetStatus status = NetStatus::kOk;
  uint64_t request_id = 0;
  uint64_t index_version = 0;
  /// Header flags (kNetFlagCacheHit et al).
  uint16_t flags = 0;
  bool cache_hit() const { return (flags & kNetFlagCacheHit) != 0; }
  /// kDegraded only: total shard count and the coverage bitmap (bit s set
  /// = shard s contributed to the answer / applied the mutation).
  uint32_t shard_count = 0;
  uint64_t coverage = 0;
  std::string error;  // status != kOk and != kDegraded
  ReverseTopKResult topk;
  std::vector<ReverseTopKResult> topk_batch;
  ReverseKRanksResult kranks;
  std::vector<ReverseKRanksResult> kranks_batch;
  NetInfo info;
  std::string text;  // kStats
};

// ---- Body encoding (the u32 length prefix is added by SendFrame) -------

std::string EncodeRequestBody(const NetRequest& request);

std::string EncodeErrorResponseBody(NetVerb verb, NetStatus status,
                                    uint64_t request_id, uint64_t version,
                                    const std::string& message);

/// kDegraded answers (DESIGN.md §18) carry the router's shard coverage
/// between the header and the verb's normal payload, which is then
/// restricted to the covered shards.
struct NetCoverage {
  uint32_t shard_count = 0;
  uint64_t coverage = 0;  ///< bit s set = shard s contributed / applied
};

/// Acks a mutation, PING or COMPACT. A non-null `coverage` makes it a
/// kDegraded ack.
std::string EncodeAckResponseBody(NetVerb verb, uint64_t request_id,
                                  uint64_t version,
                                  const NetCoverage* coverage = nullptr);

/// The query answers, one encoder per family. `verb` is echoed: the
/// single-row verbs (kReverseTopK, kReverseKRanks, kReverseKRanksCapped)
/// carry rows[0] alone (n must be 1); the batch verbs carry a u32 row
/// count, then the n rows. A non-null `coverage` makes it kDegraded.
std::string EncodeTopKResponseBody(NetVerb verb, uint64_t request_id,
                                   uint64_t version,
                                   const ReverseTopKResult* rows, size_t n,
                                   uint16_t flags = 0,
                                   const NetCoverage* coverage = nullptr);
std::string EncodeKRanksResponseBody(NetVerb verb, uint64_t request_id,
                                     uint64_t version,
                                     const ReverseKRanksResult* rows,
                                     size_t n, uint16_t flags = 0,
                                     const NetCoverage* coverage = nullptr);

std::string EncodeInfoResponseBody(uint64_t request_id, uint64_t version,
                                   const NetInfo& info);
std::string EncodeStatsResponseBody(uint64_t request_id, uint64_t version,
                                    const std::string& text);

// ---- Body decoding (CheckedReader underneath) --------------------------

/// Decodes a request body. Returns kOk and fills `out`, or kMalformed
/// with a one-line reason in `error`. Structural checks only — semantic
/// validation (dimension match, k bounds) is the server's job.
NetStatus DecodeRequestBody(const std::string& body, NetRequest* out,
                            std::string* error);

/// The semantic check both servers run on every decoded request before
/// dispatch: a query needs k > 0, at least one row of the index's `dim`
/// and finite non-negative values; an insert needs a row of `dim`; a
/// delete needs an id that fits a VectorId. Returns kOk, or
/// kInvalidArgument with a one-line reason in `error`.
NetStatus CheckRequest(const NetRequest& request, size_t dim,
                       std::string* error);

/// The wire status of a failed index or router call: kInvalidArgument
/// for InvalidArgument, kInternal for anything else.
NetStatus NetStatusOf(const Status& status);

/// Decodes a response body (the client side). False on any structural
/// violation.
bool DecodeResponseBody(const std::string& body, NetResponse* out);

// ---- Framed socket IO --------------------------------------------------

/// Writes exactly `size` bytes, absorbing EINTR and partial sends (a
/// signal or a full socket buffer mid-frame never tears a frame). Sent
/// with MSG_NOSIGNAL, so a dead peer surfaces as IOError, not SIGPIPE.
/// Every framed write below goes through this.
Status SendAll(int fd, const char* data, size_t size);

/// Reads exactly `size` bytes, absorbing EINTR and short reads.
/// `*clean_eof` (nullable) is set when the peer closed before the first
/// byte arrived — a clean close at a frame boundary (NotFound); EOF
/// mid-buffer is Corruption. Every framed read below goes through this.
Status RecvAll(int fd, char* data, size_t size, bool* clean_eof = nullptr);

/// Writes the 8-byte protocol magic / validates it on the server side.
Status SendMagic(int fd);
Status ExpectMagic(int fd);

/// Writes one `u32 len + body` frame. IOError on short write.
Status SendFrame(int fd, const std::string& body);

/// Reads one frame body. NotFound("connection closed") on clean EOF at a
/// frame boundary; Corruption on an oversized length prefix (> max_bytes)
/// or a length the peer never delivers; IOError on socket errors.
Status ReadFrameBody(int fd, uint32_t max_bytes, std::string* body);

}  // namespace gir

#endif  // GIR_SERVER_PROTOCOL_H_
