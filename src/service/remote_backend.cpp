#include "service/remote_backend.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "kernel/serialize.h"
#include "service/fault.h"
#include "service/guard.h"

namespace eda::service {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

struct RemoteBackend::Impl {
  /// One pooled socket.  The mutex serializes exchanges on THIS socket
  /// only; distinct connections carry requests concurrently.
  struct Conn {
    std::mutex mu;
    int fd = -1;
  };

  struct LockedConn {
    Conn* conn = nullptr;
    std::unique_lock<std::mutex> lock;
  };

  explicit Impl(RemoteBackendOptions opts_) : opts(std::move(opts_)) {
    addr = parse_remote_address(opts.server);
    backoff.max_retries = 0;  // unused fields; only the curve matters
    backoff.backoff_ms = opts.backoff_ms;
    backoff.backoff_cap_ms = opts.backoff_cap_ms;
    opts.pool = std::clamp(opts.pool, 1, 64);
    conns.reserve(static_cast<std::size_t>(opts.pool));
    for (int i = 0; i < opts.pool; ++i) {
      conns.push_back(std::make_unique<Conn>());
    }
  }

  ~Impl() {
    for (auto& c : conns) {
      if (c->fd >= 0) ::close(c->fd);
    }
  }

  /// Pick a pooled connection: one try_lock sweep from the round-robin
  /// cursor (an idle socket wins immediately), falling back to a blocking
  /// lock on the cursor's choice when every socket is busy.
  LockedConn acquire() {
    std::size_t start =
        next_conn.fetch_add(1, std::memory_order_relaxed) % conns.size();
    for (std::size_t k = 0; k < conns.size(); ++k) {
      Conn& c = *conns[(start + k) % conns.size()];
      std::unique_lock<std::mutex> l(c.mu, std::try_to_lock);
      if (l.owns_lock()) return {&c, std::move(l)};
    }
    Conn& c = *conns[start];
    return {&c, std::unique_lock<std::mutex>(c.mu)};
  }

  /// One request/response exchange on a pooled connection.  Returns the
  /// reply payload, or nullopt when the daemon is unreachable (which
  /// opens/extends the shared degradation window).  Never throws.
  std::optional<std::string> exchange(const std::string& request) {
    {
      std::lock_guard<std::mutex> lock(state_mu);
      if (Clock::now() < degraded_until) {
        degraded_ops.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
    }
    LockedConn lc = acquire();
    Conn& c = *lc.conn;
    if (c.fd < 0) {
      c.fd = connect_remote(addr, opts.connect_timeout_ms,
                            opts.io_timeout_ms);
      if (c.fd < 0) {
        return fail(c, "cannot connect to " + addr.display);
      }
      open_conns.fetch_add(1, std::memory_order_relaxed);
    }
    if (FaultInjector::instance().should_fail(kFaultRemoteStall)) {
      // Wedge mid-frame: the daemon is now holding half a request and
      // this stream is desynchronized — the only sound recovery is to
      // close and reconnect, which is exactly what fail() forces.
      (void)write_frame_wedged(c.fd, request);
      return fail(c, "injected mid-frame stall to " + addr.display);
    }
    std::string reply;
    if (!write_frame(c.fd, request) ||
        !read_frame(c.fd, reply, kMaxResponseFrame)) {
      return fail(c, "request to " + addr.display + " failed mid-flight");
    }
    {
      std::lock_guard<std::mutex> lock(state_mu);
      consecutive_failures = 0;
    }
    round_trips.fetch_add(1, std::memory_order_relaxed);
    return reply;
  }

  /// Open/extend the shared capped-exponential backoff window
  /// (RETRY_LATER semantics — ops inside the window are served locally,
  /// the first one after it probes the daemon again).
  void open_backoff_window(const std::string& what) {
    std::lock_guard<std::mutex> lock(state_mu);
    ++consecutive_failures;
    remote_failures.fetch_add(1, std::memory_order_relaxed);
    double wait = retry_backoff_ms(backoff, consecutive_failures);
    degraded_until =
        Clock::now() +
        std::chrono::microseconds(static_cast<long long>(wait * 1000.0));
    last_error_str = what;
  }

  /// Record a transport failure on `c` (c.mu held): close the socket and
  /// open the shared backoff window.
  std::nullopt_t fail(Conn& c, const std::string& what) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
      open_conns.fetch_sub(1, std::memory_order_relaxed);
    }
    open_backoff_window(what);
    return std::nullopt;
  }

  /// A malformed (but checksum-passing) reply could mean a desynchronized
  /// stream; the conservative recovery is to drop every idle connection
  /// and degrade.  Busy connections fail on their own next use — their
  /// SO_RCVTIMEO bounds the wait.
  void fail_all(const std::string& what) {
    for (auto& cp : conns) {
      std::unique_lock<std::mutex> l(cp->mu, std::try_to_lock);
      if (l.owns_lock() && cp->fd >= 0) {
        ::close(cp->fd);
        cp->fd = -1;
        open_conns.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    open_backoff_window(what);
  }

  /// Request header: (version, opcode, tenant).
  kernel::Encoder request(RemoteOp op) const {
    kernel::Encoder enc;
    enc.u32(kRemoteProtoVersion);
    enc.u8(static_cast<std::uint8_t>(op));
    enc.str(opts.tenant);
    return enc;
  }

  /// One exchange whose reply must open (kRemoteProtoVersion, Ok); the
  /// rest of the reply goes to `read_body`.  Returns false when nothing
  /// usable came back, and each way that happens counts one remote
  /// failure and opens the backoff window, so the fallback serves what the
  /// daemon could not:
  ///   - the transport failed (exchange() already accounted it);
  ///   - the daemon answered Error, refusing the version or the opcode;
  ///   - the reply did not parse.  A malformed but checksum-passing reply
  ///     could mean a desynchronized stream, so every idle connection is
  ///     dropped as well.
  template <typename ReadBody>
  bool call(const kernel::Encoder& req, ReadBody&& read_body) {
    auto reply = exchange(req.finish());
    if (!reply) return false;
    try {
      kernel::Decoder dec(*reply);
      std::uint32_t version = dec.u32();
      if (version != kRemoteProtoVersion) {
        throw kernel::SerializeError("reply version " +
                                     std::to_string(version));
      }
      std::uint8_t status = dec.u8();
      if (status == static_cast<std::uint8_t>(RemoteStatus::Error)) {
        open_backoff_window(addr.display + " refused the request: " +
                            dec.str());
        return false;
      }
      if (status != static_cast<std::uint8_t>(RemoteStatus::Ok)) {
        throw kernel::SerializeError("reply status " +
                                     std::to_string(status));
      }
      read_body(dec);
      return true;
    } catch (const kernel::KernelError& e) {
      fail_all("malformed reply from " + addr.display + ": " + e.what());
      return false;
    }
  }

  /// A batch reply section opens with its entry count, which must echo the
  /// request's.
  static void expect_count(kernel::Decoder& dec, std::size_t n) {
    if (dec.u32() != n) {
      throw kernel::SerializeError("batch reply entry-count mismatch");
    }
  }

  struct Found {
    std::vector<std::optional<kernel::Thm>> thms;
    std::vector<std::optional<verify::VerifyResult>> verdicts;
  };

  /// One LookupBatch frame: a theorem section for `goals` and a verdict
  /// section for `keys`.  Entries the daemon lacks come back absent, and
  /// so does every entry when the call fails.
  Found remote_lookup(const std::vector<kernel::Term>& goals,
                      const std::vector<kernel::Term>& keys) {
    kernel::Encoder enc = request(RemoteOp::LookupBatch);
    enc.u32(static_cast<std::uint32_t>(goals.size()));
    for (const kernel::Term& goal : goals) enc.term(goal);
    enc.u32(static_cast<std::uint32_t>(keys.size()));
    for (const kernel::Term& key : keys) enc.term(key);
    Found found;
    found.thms.resize(goals.size());
    found.verdicts.resize(keys.size());
    bool ok = call(enc, [&](kernel::Decoder& dec) {
      expect_count(dec, goals.size());
      for (auto& th : found.thms) {
        if (dec.u8() != 0) th = dec.thm();
      }
      expect_count(dec, keys.size());
      for (auto& v : found.verdicts) {
        if (dec.u8() != 0) v = decode_verdict(dec);
      }
    });
    if (!ok) {
      found.thms.assign(goals.size(), std::nullopt);
      found.verdicts.assign(keys.size(), std::nullopt);
    }
    return found;
  }

  /// One PublishBatch frame, best-effort like every remote publish: the
  /// fallback already holds each entry, so a failure only costs sharing.
  /// The per-entry inserted bits are validated but unused: the daemon's
  /// race outcome never changes what THIS process proved.
  void remote_publish(
      const std::vector<std::pair<kernel::Term, kernel::Thm>>& thms,
      const std::vector<std::pair<kernel::Term, verify::VerifyResult>>&
          verdicts) {
    kernel::Encoder enc = request(RemoteOp::PublishBatch);
    enc.u32(static_cast<std::uint32_t>(thms.size()));
    for (const auto& [goal, th] : thms) {
      enc.term(goal);
      enc.thm(th);
    }
    enc.u32(static_cast<std::uint32_t>(verdicts.size()));
    for (const auto& [key, v] : verdicts) {
      enc.term(key);
      encode_verdict(enc, v);
    }
    (void)call(enc, [&](kernel::Decoder& dec) {
      expect_count(dec, thms.size());
      for (std::size_t i = 0; i < thms.size(); ++i) (void)dec.u8();
      expect_count(dec, verdicts.size());
      for (std::size_t i = 0; i < verdicts.size(); ++i) (void)dec.u8();
    });
  }

  std::optional<std::string> remote_snapshot() {
    std::string blob;
    if (!call(request(RemoteOp::Snapshot),
              [&](kernel::Decoder& dec) { blob = dec.str(); })) {
      return std::nullopt;
    }
    return blob;
  }

  void ping() {
    (void)call(request(RemoteOp::Ping), [](kernel::Decoder&) {});
  }

  RemoteBackendOptions opts;
  RemoteAddress addr;
  RetryPolicy backoff;

  std::vector<std::unique_ptr<Conn>> conns;
  std::atomic<std::size_t> next_conn{0};
  std::atomic<int> open_conns{0};

  std::mutex state_mu;  ///< guards the shared degradation state
  int consecutive_failures = 0;
  Clock::time_point degraded_until{};
  std::string last_error_str;

  /// The safety net: every publish lands here first, lookups fall back
  /// here, and counters bypass it (the contract lives in the atomics
  /// below, not in the fallback's own).
  InProcessBackend fallback;

  std::atomic<std::uint64_t> thm_hits{0};
  std::atomic<std::uint64_t> thm_misses{0};
  std::atomic<std::uint64_t> verd_hits{0};
  std::atomic<std::uint64_t> verd_misses{0};
  std::atomic<std::uint64_t> remote_failures{0};
  std::atomic<std::uint64_t> degraded_ops{0};
  std::atomic<std::uint64_t> round_trips{0};
};

RemoteBackend::RemoteBackend(RemoteBackendOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {
  // Probe once so a client fronting a dead (or foreign-version) daemon
  // degrades, and says so, immediately instead of on its first obligation.
  impl_->ping();
}

RemoteBackend::~RemoteBackend() = default;

std::optional<kernel::Thm> RemoteBackend::lookup_theorem(
    const kernel::Term& goal, bool* was_hit) {
  std::optional<kernel::Thm> v = impl_->fallback.theorems().find(goal);
  if (!v) {
    v = std::move(impl_->remote_lookup({goal}, {}).thms[0]);
    // Write-back: repeats of this goal stay off the wire, and a daemon
    // death after this point cannot un-serve the obligation.
    if (v) impl_->fallback.theorems().emplace(goal, *v);
  }
  if (v) impl_->thm_hits.fetch_add(1, std::memory_order_relaxed);
  if (was_hit != nullptr) *was_hit = v.has_value();
  return v;
}

std::pair<kernel::Thm, bool> RemoteBackend::publish_theorem(
    const kernel::Term& goal, kernel::Thm thm) {
  auto [canonical, inserted] =
      impl_->fallback.theorems().emplace(goal, std::move(thm));
  if (inserted) {
    impl_->thm_misses.fetch_add(1, std::memory_order_relaxed);
    impl_->remote_publish({{goal, canonical}}, {});
  } else {
    impl_->thm_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return {canonical, inserted};
}

std::optional<verify::VerifyResult> RemoteBackend::lookup_verdict(
    const kernel::Term& key, bool* was_hit) {
  std::vector<std::uint8_t> hit;
  auto found = lookup_verdicts({key}, &hit);
  if (was_hit != nullptr) *was_hit = hit[0] != 0;
  return std::move(found[0]);
}

std::pair<verify::VerifyResult, bool> RemoteBackend::publish_verdict(
    const kernel::Term& key, verify::VerifyResult v, bool cacheable) {
  std::vector<VerdictPublish> one;
  one.push_back({key, std::move(v), cacheable});
  return std::move(publish_verdicts(std::move(one))[0]);
}

std::vector<std::optional<verify::VerifyResult>>
RemoteBackend::lookup_verdicts(const std::vector<kernel::Term>& keys,
                               std::vector<std::uint8_t>* was_hit) {
  std::vector<std::optional<verify::VerifyResult>> out(keys.size());
  if (was_hit != nullptr) was_hit->assign(keys.size(), 0);
  // Local fallback first, per entry: what keeps repeats off the wire
  // entirely.
  std::vector<std::size_t> miss_idx;
  std::vector<kernel::Term> miss_keys;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (auto v = impl_->fallback.verdicts().find(keys[i])) {
      impl_->verd_hits.fetch_add(1, std::memory_order_relaxed);
      out[i] = *v;
      if (was_hit != nullptr) (*was_hit)[i] = 1;
    } else {
      miss_idx.push_back(i);
      miss_keys.push_back(keys[i]);
    }
  }
  if (miss_idx.empty()) return out;
  Impl::Found remote = impl_->remote_lookup({}, miss_keys);
  for (std::size_t j = 0; j < miss_keys.size(); ++j) {
    if (!remote.verdicts[j]) continue;
    std::size_t i = miss_idx[j];
    impl_->fallback.verdicts().emplace(keys[i], *remote.verdicts[j]);
    impl_->verd_hits.fetch_add(1, std::memory_order_relaxed);
    out[i] = std::move(remote.verdicts[j]);
    if (was_hit != nullptr) (*was_hit)[i] = 1;
  }
  return out;
}

std::vector<std::pair<verify::VerifyResult, bool>>
RemoteBackend::publish_verdicts(std::vector<VerdictPublish> entries) {
  std::vector<std::pair<verify::VerifyResult, bool>> out;
  out.reserve(entries.size());
  // Local-first per entry (the process keeps its proof no matter what the
  // socket does), collecting the fresh inserts for one remote frame.
  std::vector<std::pair<kernel::Term, verify::VerifyResult>> fresh;
  for (VerdictPublish& e : entries) {
    if (!e.cacheable) {
      impl_->verd_misses.fetch_add(1, std::memory_order_relaxed);
      out.emplace_back(std::move(e.value), false);
      continue;
    }
    auto [canonical, inserted] =
        impl_->fallback.verdicts().emplace(e.key, std::move(e.value));
    if (inserted) {
      impl_->verd_misses.fetch_add(1, std::memory_order_relaxed);
      fresh.emplace_back(e.key, canonical);
    } else {
      impl_->verd_hits.fetch_add(1, std::memory_order_relaxed);
    }
    out.emplace_back(std::move(canonical), inserted);
  }
  if (!fresh.empty()) impl_->remote_publish({}, fresh);
  return out;
}

BackendStats RemoteBackend::stats() const {
  BackendStats st = impl_->fallback.stats();
  // The fallback's own counters never move (find/emplace are count-free);
  // its entry counts are real.  The hit/miss contract lives here.
  st.theorems.hits = impl_->thm_hits.load(std::memory_order_relaxed);
  st.theorems.misses = impl_->thm_misses.load(std::memory_order_relaxed);
  st.verdicts.hits = impl_->verd_hits.load(std::memory_order_relaxed);
  st.verdicts.misses = impl_->verd_misses.load(std::memory_order_relaxed);
  st.remote_failures =
      impl_->remote_failures.load(std::memory_order_relaxed);
  st.degraded_ops = impl_->degraded_ops.load(std::memory_order_relaxed);
  st.remote_round_trips =
      impl_->round_trips.load(std::memory_order_relaxed);
  return st;
}

CacheLoadResult RemoteBackend::warm_start(const std::string& path) {
  return impl_->fallback.warm_start(path);
}

void RemoteBackend::persist(const std::string& path) const {
  TheoremCache merged_thms;
  VerdictCache merged_verdicts;
  for (auto& [goal, th] : impl_->fallback.theorems().snapshot()) {
    merged_thms.emplace(goal, std::move(th));
  }
  for (auto& [key, v] : impl_->fallback.verdicts().snapshot()) {
    merged_verdicts.emplace(key, std::move(v));
  }
  if (auto blob = impl_->remote_snapshot()) {
    // A skewed/corrupt snapshot is skipped (decode admits zero entries),
    // never fatal: the local half still gets persisted.
    PersistentCacheFile::decode(*blob, merged_thms, merged_verdicts);
  }
  PersistentCacheFile(path).save(merged_thms, merged_verdicts);
}

bool RemoteBackend::healthy() const {
  if (impl_->open_conns.load(std::memory_order_relaxed) <= 0) return false;
  std::lock_guard<std::mutex> lock(impl_->state_mu);
  return Clock::now() >= impl_->degraded_until;
}

std::string RemoteBackend::last_error() const {
  std::lock_guard<std::mutex> lock(impl_->state_mu);
  return impl_->last_error_str;
}

}  // namespace eda::service
