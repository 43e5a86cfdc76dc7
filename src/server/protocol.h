// Wire protocol of the multi-tenant sketch server (lps_serve).
//
// One frame = one request or one response (the single exception is
// INGEST_STREAM, a request frame that elicits no response: a sender
// streams a run of them back-to-back and collects one cumulative
// INGEST_SYNC ack, so pipelined ingest pays one RTT per run instead of
// one per batch):
//
//     [u32 LE payload length] [payload bytes]
//     payload[0]   = opcode (requests) / status byte (responses: 0 = ok,
//                    1 = error)
//     payload[1..] = body, a BitWriter bit stream's image (WriteImage,
//                    src/util/serialize.h): u64 LE bit count, then
//                    ceil(bits/64) packed 64-bit words, LE
//
// The body re-uses the library's bit-exact serialization layer, so the
// payloads carry the SAME unified types the library and CLI consume:
// CREATE ships a SketchSpec (SerializeSpec), QUERY/WINDOW answers ship a
// QueryResult (SerializeQueryResult), and SNAPSHOT/RESTORE ship the
// LinearSketch::Serialize state verbatim. The wire format has one source
// of truth — there is no server-only re-encoding of any library type.
//
// Framing errors are the connection's problem, not the daemon's: a
// length prefix above kMaxFrameBytes, a truncated payload, or an unknown
// opcode must never bring the server down (tests/server_test.cc shoots
// all three at a live server). Oversized/truncated frames close the
// connection (the stream is unsynchronized beyond them); an unknown
// opcode inside a well-formed frame gets an error response and the
// connection lives on. The same holds one level down: frame BODIES are
// decoded through a permissive BitReader, and every claimed length
// inside a body (string sizes, update counts, state bit counts) is
// validated against the bits the frame actually delivered before any
// allocation — a body that lies about its interior surfaces as a
// "malformed request body" error response on a connection that keeps
// serving, because the frame boundary itself was sound.
//
// This header is shared VERBATIM by the server, the Client class, the
// lps_bench_client load generator, and the loopback tests — the codec
// exists exactly once.
//
// The prose reference — frame diagrams, the full opcode table, error
// semantics, and the version/compat rules — is docs/protocol.md; its
// fenced examples are compiled against this header by the CI docs job
// (ci/check_docs.py), so the document cannot drift from the code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/query_result.h"
#include "src/api/sketch_spec.h"
#include "src/stream/update.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace lps::server {

/// Wire values — never renumber, only append.
enum class Opcode : uint8_t {
  kCreate = 1,    ///< register tenant/key with a SketchSpec + topology
  kIngest = 2,    ///< push a batch of updates into tenant/key's stream
  kQuery = 3,     ///< whole-stream QueryResult
  kWindow = 4,    ///< QueryResult over the trailing w updates
  kSnapshot = 5,  ///< full serialized state (restorable blob)
  kRestore = 6,   ///< recreate tenant/key from a snapshot blob
  kDrop = 7,      ///< forget tenant/key
  kStats = 8,     ///< server-wide counters
  // ---- appended: streaming ingest framing ------------------------------
  kIngestStream = 9,  ///< pipelined ingest batch: NO per-frame reply
  kIngestSync = 10,   ///< close a streamed run: one cumulative ack / error
  // ---- appended: distributed aggregation tier (src/dist/) --------------
  kEpoch = 11,      ///< fold one worker epoch delta (EpochBlob -> EpochAck)
  kDistStats = 12,  ///< aggregator fold/gap counters (DistStats)
};

/// Response status byte.
inline constexpr uint8_t kStatusOk = 0;
inline constexpr uint8_t kStatusError = 1;

/// Hard ceiling on a frame payload. Large enough for a multi-megabyte
/// serialized lp_sampler snapshot, small enough that a hostile length
/// prefix cannot make the server allocate unbounded memory.
inline constexpr uint32_t kMaxFrameBytes = 256u << 20;

/// Default TCP port of lps_serve (0 asks the kernel for an ephemeral
/// port, which Server::port() reports — the test/bench path).
inline constexpr int kDefaultPort = 4321;

// ------------------------------------------------------------ payloads --

/// Everything CREATE needs beyond the spec: the per-tenant ingestion
/// topology and the sliding-window configuration. Serialized inside
/// CREATE requests and snapshot blobs.
struct SketchConfig {
  SketchSpec spec;
  /// 0 disables windowing; otherwise the WindowManager checkpoint
  /// interval (window starts round down to multiples of this).
  uint64_t window_checkpoint = 0;
  /// Checkpoint ring bound; 0 = unbounded.
  uint64_t max_checkpoints = 0;
  /// ParallelPipeline topology for this tenant's stream. shards == 1 &&
  /// threads == 0 ingests inline on the serving thread.
  int32_t shards = 1;
  int32_t threads = 0;
};

void SerializeConfig(const SketchConfig& config, BitWriter* writer);
SketchConfig DeserializeConfig(BitReader* reader);

/// A restorable snapshot: the config to rebuild the entry and the
/// LinearSketch::Serialize state of the whole-prefix sketch. What
/// SNAPSHOT returns and RESTORE accepts; also what clients persist to
/// disk between daemon generations.
struct SnapshotBlob {
  SketchConfig config;
  uint64_t updates_seen = 0;
  std::vector<uint64_t> state_words;
  size_t state_bits = 0;
};

void SerializeSnapshot(const SnapshotBlob& blob, BitWriter* writer);
SnapshotBlob DeserializeSnapshot(BitReader* reader);

/// Per-tenant persistence accounting (the spill observability of the
/// durable checkpoint store). `resident` distinguishes live entries from
/// idle-evicted ones that exist only as store snapshots.
struct TenantPersistStats {
  std::string name;            ///< "tenant/key"
  uint64_t resident_bytes = 0;  ///< RAM held by the checkpoint ring
  uint64_t spilled_bytes = 0;   ///< compressed bytes in the store
  bool resident = true;
};

/// Server-wide counters answered by STATS. The persistence fields were
/// appended in a later revision; DeserializeStats treats their absence
/// (a frame from an older server) as zeros — the wire rule is append,
/// never renumber.
struct ServerStats {
  uint64_t tenants = 0;   ///< live tenant/key entries
  uint64_t updates = 0;   ///< stream updates ingested since boot
  uint64_t ingests = 0;   ///< INGEST requests served
  uint64_t queries = 0;   ///< QUERY + WINDOW requests served
  uint64_t snapshots = 0; ///< SNAPSHOT requests served
  // ---- appended: durable-store accounting (zero when no --data-dir) --
  uint64_t resident_bytes = 0;  ///< sum of per-tenant resident bytes
  uint64_t spilled_bytes = 0;   ///< sum of per-tenant spilled bytes
  std::vector<TenantPersistStats> per_tenant;
  // ---- appended: kernel dispatch (empty when talking to older peers) --
  std::string kernel_backend;  ///< SIMD backend the server dispatched
};

void SerializeStats(const ServerStats& stats, BitWriter* writer);
ServerStats DeserializeStats(BitReader* reader);

/// One sealed ingest epoch, shipped by a distributed worker (or an
/// intermediate combiner) to the aggregator it feeds. The state is the
/// epoch's DELTA — the worker serializes its whole-prefix sketch at the
/// epoch boundary and then Reset()s it, so folding every delta with
/// Merge reconstructs the prefix exactly, and for exact-arithmetic
/// kinds the fold is bit-identical to solo ingest in ANY arrival order
/// (linearity). `config` rides along so the aggregator can auto-create
/// the stream on the first epoch it sees.
struct EpochBlob {
  std::string tenant;
  std::string key;
  std::string worker_id;     ///< stable name of the shipping node
  uint64_t session = 0;      ///< per-boot nonce; a changed session = restart
  uint64_t seq = 0;          ///< epoch index within the session, from 0
  uint64_t count = 0;        ///< updates folded into this delta
  bool final_epoch = false;  ///< clean end-of-stream marker
  SketchConfig config;
  std::vector<uint64_t> state_words;  ///< LinearSketch::Serialize of the delta
  size_t state_bits = 0;
};

void SerializeEpoch(const EpochBlob& blob, BitWriter* writer);
EpochBlob DeserializeEpoch(BitReader* reader);

/// The EPOCH ok-reply. `applied` is false for a duplicate sequence (a
/// reconnecting worker re-sent an epoch the aggregator already folded —
/// acked, not re-folded, so the retry path is idempotent).
struct EpochAck {
  bool applied = false;
  uint64_t next_seq = 0;  ///< the sequence the aggregator expects next
};

void SerializeEpochAck(const EpochAck& ack, BitWriter* writer);
EpochAck DeserializeEpochAck(BitReader* reader);

/// Per-(stream, worker) fold progress inside a DistStats answer.
struct DistWorkerStats {
  std::string stream;  ///< "tenant/key"
  std::string worker_id;
  uint64_t session = 0;
  uint64_t next_seq = 0;   ///< next expected epoch sequence
  uint64_t epochs = 0;     ///< epochs folded from this worker
  uint64_t updates = 0;    ///< updates folded from this worker
  uint64_t gaps = 0;       ///< epochs known lost (sequence skips/restarts)
  bool finished = false;   ///< worker shipped its final epoch
  bool connected = false;  ///< worker currently holds a live connection
};

/// Aggregator-side counters answered by DIST_STATS. Same wire rule as
/// ServerStats: append fields, never renumber.
struct DistStats {
  uint64_t epochs_folded = 0;
  uint64_t updates_folded = 0;
  uint64_t gaps = 0;         ///< epochs known lost across all workers
  uint64_t sessions = 0;     ///< distinct worker sessions seen
  uint64_t interrupted = 0;  ///< workers disconnected without a final epoch
  uint64_t fold_ns = 0;      ///< cumulative wall time decoding + folding
  bool combiner = false;     ///< node forwards upstream instead of serving
  std::vector<DistWorkerStats> workers;
};

void SerializeDistStats(const DistStats& stats, BitWriter* writer);
DistStats DeserializeDistStats(BitReader* reader);

// Small shared primitives the payload structs compose.
void WriteString(BitWriter* writer, const std::string& s);
std::string ReadString(BitReader* reader);
void WriteUpdates(BitWriter* writer, const stream::Update* updates,
                  size_t count);
std::vector<stream::Update> ReadUpdates(BitReader* reader);
/// A nested bit stream (serialized sketch state): u64 bit count + words.
void WriteState(BitWriter* writer, const std::vector<uint64_t>& words,
                size_t bits);
void ReadState(BitReader* reader, std::vector<uint64_t>* words, size_t* bits);

// -------------------------------------------------------------- framing --

/// A decoded frame: the leading opcode/status byte plus an owning reader
/// over the body bit stream.
struct Frame {
  uint8_t first = 0;
  BitReader body;
};

/// Encodes [length][first][body] into a contiguous byte buffer ready for
/// a single write. Returns an EMPTY vector when the body exceeds
/// kMaxFrameBytes (a valid frame is never smaller than 13 bytes, so
/// empty is unambiguous) — encoding must fail loudly rather than wrap
/// the u32 length prefix and emit a corrupt frame.
std::vector<uint8_t> EncodeFrame(uint8_t first, const BitWriter& body);

/// Decodes a payload (everything after the length prefix) into a Frame.
/// Fails on an empty payload or a body that is not exactly one image
/// (ParseImage).
Result<Frame> DecodeFramePayload(const uint8_t* payload, size_t size);

/// Blocking frame I/O over a connected socket. ReadFrame returns
/// InvalidArgument for protocol violations (length prefix above
/// kMaxFrameBytes, truncated payload, malformed body image),
/// Failed("read: ...") for a socket error and Failed("eof") for a clean
/// peer close before any byte of a frame. It commits memory for a
/// payload as its bytes arrive, not as its length prefix claims.
Status WriteFrame(int fd, uint8_t first, const BitWriter& body);
Result<Frame> ReadFrame(int fd);

}  // namespace lps::server
