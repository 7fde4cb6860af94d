#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "service/cache_backend.h"
#include "service/remote_proto.h"

namespace eda::service {

struct RemoteBackendOptions {
  std::string server;          ///< "unix:/path" or "host:port"
  std::string tenant;          ///< label sent with every request
  int connect_timeout_ms = 1000;
  int io_timeout_ms = 5000;
  /// Degradation backoff after a transport failure, capped-exponential in
  /// the number of consecutive failures (guard.h retry_backoff_ms): while
  /// degraded every op is served by the in-process fallback, then one
  /// probe reconnects.  RETRY_LATER semantics, applied to the cache tier.
  double backoff_ms = 25.0;
  double backoff_cap_ms = 2000.0;
  /// Connection pool size.  Each pooled socket is independently
  /// mutex-guarded, so up to `pool` exchanges run concurrently; pool = 1
  /// reproduces the PR 9 single-socket semantics (and counters) exactly.
  /// Degradation state is SHARED: any connection's transport failure
  /// opens the one backoff window, any success closes it.
  int pool = 4;
};

/// CacheBackend speaking the eda_cached framed protocol, wrapped around an
/// in-process fallback so a dead daemon can never lose a verdict or
/// produce a wrong one:
///
///   - every publish lands in the fallback FIRST, then best-effort on the
///     daemon — whatever happens to the socket, this process keeps its
///     proof;
///   - lookups consult the fallback, then (healthy) the daemon, and a
///     remote hit is written back locally so repeats stay off the wire;
///   - any transport failure, unparseable reply or Error reply counts
///     remote_failures, degrades the client for a capped-exponential
///     backoff window (during which ops count degraded_ops and run purely
///     local), then a single op probes again;
///   - every lookup is one LookupBatch frame and every publish one
///     PublishBatch frame; a single theorem or verdict is a batch of one;
///   - hit/miss accounting follows the GoalCache contract (1 miss + k-1
///     hits per goal) and is maintained HERE, in one place, regardless of
///     where an entry was found.
///
/// Thread safety: a pool of independently mutex-guarded connections
/// (exchanges on distinct sockets pipeline; pool = 1 restores the PR 9
/// serialized-socket behaviour), one shared degradation window guarded by
/// its own mutex, counters atomic, fallback caches are GoalCaches.
class RemoteBackend : public CacheBackend {
 public:
  explicit RemoteBackend(RemoteBackendOptions opts);
  ~RemoteBackend() override;

  const char* name() const override { return "remote"; }

  std::optional<kernel::Thm> lookup_theorem(const kernel::Term& goal,
                                            bool* was_hit) override;
  std::pair<kernel::Thm, bool> publish_theorem(const kernel::Term& goal,
                                               kernel::Thm thm) override;
  std::optional<verify::VerifyResult> lookup_verdict(
      const kernel::Term& key, bool* was_hit) override;
  std::pair<verify::VerifyResult, bool> publish_verdict(
      const kernel::Term& key, verify::VerifyResult v,
      bool cacheable) override;

  /// Batched overrides: local-fallback consultation per entry, then ONE
  /// LookupBatch frame for the local misses / ONE PublishBatch frame for
  /// the fresh inserts.
  std::vector<std::optional<verify::VerifyResult>> lookup_verdicts(
      const std::vector<kernel::Term>& keys,
      std::vector<std::uint8_t>* was_hit) override;
  std::vector<std::pair<verify::VerifyResult, bool>> publish_verdicts(
      std::vector<VerdictPublish> entries) override;

  BackendStats stats() const override;

  /// Loads into the local fallback only (the daemon warms itself from its
  /// own --cache-file); entries stay visible through the fallback tier.
  CacheLoadResult warm_start(const std::string& path) override;

  /// Persists the union of the local fallback and a daemon SNAPSHOT (when
  /// reachable) — so `--cache-file` + `--cache-server` clients leave a
  /// usable warm-start file even if the daemon dies later.
  void persist(const std::string& path) const override;

  /// True when at least one pooled connection is open and no backoff
  /// window is open.
  bool healthy() const;
  /// Last transport diagnostic ("" when none).
  std::string last_error() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace eda::service
