#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "service/cache_file.h"
#include "service/remote_proto.h"

namespace eda::service {

struct CacheServerOptions {
  /// Listen address: "unix:/path" or "host:port" (TCP port 0 = pick one).
  std::string listen = "unix:/tmp/eda_cached.sock";
  /// Store shards.  Each shard is a (TheoremCache, VerdictCache) pair
  /// selected by the kernel/shard.h multiply-mixer over the key term's
  /// alpha/structural hash, so entropy-poor hashes still spread (the
  /// ROADMAP `h % kShards` trap).  GoalCache supplies the per-shard
  /// locking; the daemon-level split bounds snapshot and lock granularity.
  std::size_t shards = 8;
  /// Warm-start file: loaded on start(), merge-on-save snapshotted
  /// periodically and on stop(), so a restarted daemon comes back warm
  /// (and shares the file with direct --cache-file clients, PR 8 union
  /// semantics).  Empty = memory only.
  std::string cache_file;
  CacheFileOptions file_options;
  /// Periodic snapshot interval in ms (0 = only on stop()).
  int snapshot_ms = 0;
};

struct CacheServerStats {
  std::size_t shards = 0;
  std::size_t theorem_entries = 0;
  std::size_t verdict_entries = 0;
  std::uint64_t lookups = 0;
  std::uint64_t lookup_hits = 0;
  std::uint64_t publishes = 0;
  std::uint64_t connections = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t tenants = 0;  ///< distinct tenant labels seen
  std::uint64_t batch_frames = 0;  ///< LookupBatch/PublishBatch served
  /// Handler threads currently tracked (live connections plus any finished
  /// handlers not yet reaped by the accept loop) — the soak test's bound.
  std::size_t live_handlers = 0;
};

/// The sharded remote theorem-cache store + socket front of eda_cached,
/// embeddable in-process so the conformance tests can kill and restart a
/// daemon deterministically.  One accept thread, one handler thread per
/// connection (finished handlers are reaped by the accept loop, so a
/// long-lived daemon's thread count is bounded by its LIVE connections,
/// not its lifetime total), length-prefixed kernel-container frames
/// (service/remote_proto.h).  Decoding a request re-interns its terms
/// through the kernel, so alpha-equivalent goals from different clients
/// land on the same entry — the whole point of the shared tier.
class CacheServer {
 public:
  explicit CacheServer(CacheServerOptions opts);
  ~CacheServer();

  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  /// Bind, warm-start from the cache file (when configured) and begin
  /// serving.  Throws RemoteCacheError when the address cannot be bound.
  /// Returns the warm-start outcome (loaded=false note when no file).
  CacheLoadResult start();

  /// Stop accepting, shut down live connections, join every thread and
  /// write a final snapshot.  Idempotent.
  void stop();

  /// Merge-on-save the full store to the cache file now (no-op without
  /// one).  Throws CacheFileError on I/O failure.
  void snapshot() const;

  CacheServerStats stats() const;

  /// Actual TCP port after start() (0 for unix sockets) — tests bind
  /// port 0.
  int port() const;
  const std::string& listen_display() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace eda::service
