#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "kernel/error.h"

namespace eda::service {

/// Raised by the remote-cache transport helpers on address malformation or
/// unrecoverable socket setup failures (bind, listen).  Per-request I/O
/// errors are NOT exceptions — the client degrades to its in-process
/// fallback instead (see remote_backend.h).
class RemoteCacheError : public kernel::KernelError {
 public:
  explicit RemoteCacheError(const std::string& what)
      : kernel::KernelError(what) {}
};

/// eda_cached wire protocol version.  Every request and response payload
/// opens with this u32, and there is exactly one: a daemon answers a frame
/// stamped with any other version with an Error reply, and a client counts
/// that reply as a remote failure and degrades to its in-process fallback
/// (a cache is regenerable, so skew handling is "degrade", never
/// migration).  The payload itself rides inside the kernel serializer's
/// container (magic, kSerializeVersion, FNV-1a checksum), so the transport
/// inherits the serializer's corruption detection wholesale.
///
/// One frame shape carries every theorem and verdict: LookupBatch and
/// PublishBatch, each with a theorem section and a verdict section.  A
/// single entry is a batch of one, and an incremental cone sweep is one
/// round trip each way.
inline constexpr std::uint32_t kRemoteProtoVersion = 3;

/// Request opcodes.  All requests carry (version, opcode, tenant) followed
/// by the op-specific body; all responses carry (version, status) followed
/// by the op-specific body.  The numbers are the wire values; 1-4 are
/// retired and get an Error reply like any unknown opcode.
enum class RemoteOp : std::uint8_t {
  Ping = 0,      ///< -> Ok
  Stats = 5,     ///< -> Ok u32(shards), u64 x4 (entries/lookups/hits),
                 ///<    u64(tenants seen)
  Snapshot = 6,  ///< -> Ok str(PersistentCacheFile::encode blob)
  /// Body: u32 nt, nt x term(goal), u32 nv, nv x term(key).
  /// Reply: Ok, u32 nt, nt x (u8 present [, thm]),
  ///            u32 nv, nv x (u8 present [, verdict]).
  LookupBatch = 7,
  /// Body: u32 nt, nt x (term(goal), thm),
  ///       u32 nv, nv x (term(key), verdict).
  /// Reply: Ok, u32 nt, nt x u8(inserted), u32 nv, nv x u8(inserted) —
  /// per-entry inserted bits, so batched publication keeps the GoalCache
  /// 1-miss/k-1-hit contract observable end to end.
  PublishBatch = 8,
};

enum class RemoteStatus : std::uint8_t {
  Ok = 0,
  Error = 2,  ///< body: str(diagnostic)
};

/// A parsed --cache-server / --socket / --listen address:
///   unix:/path/to.sock   Unix domain socket (also a bare path with a '/')
///   host:port            TCP (numeric IPv4 or "localhost")
struct RemoteAddress {
  bool is_unix = false;
  std::string path;        ///< unix socket path
  std::string host;        ///< TCP host
  int port = 0;            ///< TCP port
  std::string display;     ///< canonical spelling for diagnostics
};

/// Parse an address spec; throws RemoteCacheError on malformation.
RemoteAddress parse_remote_address(const std::string& spec);

/// Length-prefixed framing over a connected socket: u32 little-endian
/// payload length, then the payload bytes (an Encoder::finish() container).
/// Both return false on any short read/write, EOF or oversized frame —
/// the caller treats the connection as dead.  Writes suppress SIGPIPE.
/// read_frame grows `payload` by at most kFrameChunk bytes ahead of the
/// bytes received, so a length header alone commits at most one chunk.
bool write_frame(int fd, const std::string& payload);
bool read_frame(int fd, std::string& payload, std::size_t max_bytes);
inline constexpr std::size_t kFrameChunk = 64u << 10;

/// Fault-injection helper (kFaultRemoteStall): write the length header and
/// only the first half of the payload, then return — the stream is now
/// desynchronized mid-frame, exactly like a peer wedging or dying between
/// send()s.  The caller must treat the connection as dead afterwards.
bool write_frame_wedged(int fd, const std::string& payload);

/// Frames beyond this are protocol violations (or a desynced stream) on
/// the request path; snapshot responses size the limit to the store.
inline constexpr std::size_t kMaxRequestFrame = 64u << 20;
inline constexpr std::size_t kMaxResponseFrame = 256u << 20;

/// Connect a client socket (with timeout, in ms) to `addr`; returns the fd
/// or -1.  The fd has send/receive timeouts of `io_timeout_ms` applied so
/// a wedged daemon degrades the client instead of hanging it.
int connect_remote(const RemoteAddress& addr, int connect_timeout_ms,
                   int io_timeout_ms);

/// Bind + listen on `addr`; returns the listening fd or throws
/// RemoteCacheError.  A stale unix socket file (daemon died uncleanly,
/// nobody listening) is probe-connected and unlinked only when dead, so a
/// restart never hits EADDRINUSE — and never steals a LIVE daemon's path.
/// For TCP with port 0, `bound_port` receives the kernel-chosen port.
int listen_remote(const RemoteAddress& addr, int backlog, int* bound_port);

}  // namespace eda::service
