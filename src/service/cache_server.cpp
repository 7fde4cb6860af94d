#include "service/cache_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kernel/serialize.h"
#include "kernel/shard.h"

namespace eda::service {

namespace {

/// One store shard: the same GoalCache pair a VerifyService holds, so the
/// daemon inherits the lock striping, snapshot consistency and counter
/// contract the in-process tier already proved out.
struct StoreShard {
  TheoremCache theorems;
  VerdictCache verdicts;
};

}  // namespace

struct CacheServer::Impl {
  explicit Impl(CacheServerOptions opts_) : opts(std::move(opts_)) {
    if (opts.shards == 0) opts.shards = 1;
    shards.reserve(opts.shards);
    for (std::size_t i = 0; i < opts.shards; ++i) {
      shards.push_back(std::make_unique<StoreShard>());
    }
  }

  StoreShard& shard_for(const kernel::Term& key) {
    return *shards[kernel::shard_index_of(key.hash(), shards.size())];
  }

  void accept_loop();
  void handle_connection(int fd);
  void snapshot_loop();
  std::string handle_request(const std::string& request);
  void do_snapshot() const;
  void reap_finished();

  CacheServerOptions opts;
  RemoteAddress addr;
  int listen_fd = -1;
  int bound_port = 0;

  std::vector<std::unique_ptr<StoreShard>> shards;

  std::atomic<bool> stopping{false};
  bool started = false;

  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> lookup_hits{0};
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> bad_requests{0};
  std::atomic<std::uint64_t> batch_frames{0};

  mutable std::mutex tenants_mu;
  std::unordered_set<std::string> tenants;

  /// One per connection.  The handler thread sets `done` as its last act;
  /// the accept loop joins and erases done handlers on every iteration, so
  /// a daemon serving short-lived clients never accumulates dead joinable
  /// threads (only stop() joins the still-live ones).
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  mutable std::mutex conns_mu;
  std::vector<int> conn_fds;
  std::list<std::unique_ptr<Handler>> handlers;

  std::thread accepter;
  std::thread snapshotter;
  std::mutex snap_mu;
  std::condition_variable snap_cv;
};

std::string CacheServer::Impl::handle_request(const std::string& request) {
  kernel::Encoder reply;
  reply.u32(kRemoteProtoVersion);
  try {
    kernel::Decoder dec(request);
    std::uint32_t version = dec.u32();
    if (version != kRemoteProtoVersion) {
      throw RemoteCacheError("protocol version " + std::to_string(version) +
                             ", daemon speaks " +
                             std::to_string(kRemoteProtoVersion));
    }
    RemoteOp op = static_cast<RemoteOp>(dec.u8());
    std::string tenant = dec.str();
    {
      std::lock_guard<std::mutex> lock(tenants_mu);
      tenants.insert(tenant);
    }
    switch (op) {
      case RemoteOp::Ping:
        reply.u8(static_cast<std::uint8_t>(RemoteStatus::Ok));
        break;
      case RemoteOp::Stats: {
        CacheServerStats st;
        for (const auto& s : shards) {
          st.theorem_entries += s->theorems.stats().entries;
          st.verdict_entries += s->verdicts.stats().entries;
        }
        reply.u8(static_cast<std::uint8_t>(RemoteStatus::Ok));
        reply.u32(static_cast<std::uint32_t>(shards.size()));
        reply.u64(st.theorem_entries);
        reply.u64(st.verdict_entries);
        reply.u64(lookups.load(std::memory_order_relaxed));
        reply.u64(lookup_hits.load(std::memory_order_relaxed));
        std::size_t ntenants;
        {
          std::lock_guard<std::mutex> lock(tenants_mu);
          ntenants = tenants.size();
        }
        reply.u64(ntenants);
        break;
      }
      case RemoteOp::Snapshot: {
        // Ship the whole store in PersistentCacheFile form: the client
        // merges it into its own persist(), and tooling can write it
        // straight to disk.
        TheoremCache merged_thms;
        VerdictCache merged_verdicts;
        for (const auto& s : shards) {
          for (auto& [goal, th] : s->theorems.snapshot()) {
            merged_thms.emplace(goal, std::move(th));
          }
          for (auto& [key, v] : s->verdicts.snapshot()) {
            merged_verdicts.emplace(key, std::move(v));
          }
        }
        reply.u8(static_cast<std::uint8_t>(RemoteStatus::Ok));
        reply.str(PersistentCacheFile::encode(merged_thms, merged_verdicts));
        break;
      }
      // Both batch handlers answer each entry as they decode it, so the
      // reply is built in request order and nothing is sized from a wire
      // count: a fabricated count dies on the decoder's bounds check.
      case RemoteOp::LookupBatch: {
        batch_frames.fetch_add(1, std::memory_order_relaxed);
        reply.u8(static_cast<std::uint8_t>(RemoteStatus::Ok));
        std::uint32_t nt = dec.u32();
        reply.u32(nt);
        for (std::uint32_t i = 0; i < nt; ++i) {
          kernel::Term goal = dec.term();
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (auto v = shard_for(goal).theorems.find(goal)) {
            lookup_hits.fetch_add(1, std::memory_order_relaxed);
            reply.u8(1);
            reply.thm(*v);
          } else {
            reply.u8(0);
          }
        }
        std::uint32_t nv = dec.u32();
        reply.u32(nv);
        for (std::uint32_t i = 0; i < nv; ++i) {
          kernel::Term key = dec.term();
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (auto v = shard_for(key).verdicts.find(key)) {
            lookup_hits.fetch_add(1, std::memory_order_relaxed);
            reply.u8(1);
            encode_verdict(reply, *v);
          } else {
            reply.u8(0);
          }
        }
        break;
      }
      case RemoteOp::PublishBatch: {
        batch_frames.fetch_add(1, std::memory_order_relaxed);
        reply.u8(static_cast<std::uint8_t>(RemoteStatus::Ok));
        std::uint32_t nt = dec.u32();
        reply.u32(nt);
        for (std::uint32_t i = 0; i < nt; ++i) {
          kernel::Term goal = dec.term();
          kernel::Thm th = dec.thm();
          publishes.fetch_add(1, std::memory_order_relaxed);
          bool inserted =
              shard_for(goal).theorems.emplace(goal, std::move(th)).second;
          reply.u8(inserted ? 1 : 0);
        }
        std::uint32_t nv = dec.u32();
        reply.u32(nv);
        for (std::uint32_t i = 0; i < nv; ++i) {
          kernel::Term key = dec.term();
          verify::VerifyResult v = decode_verdict(dec);
          publishes.fetch_add(1, std::memory_order_relaxed);
          bool inserted =
              shard_for(key).verdicts.emplace(key, std::move(v)).second;
          reply.u8(inserted ? 1 : 0);
        }
        break;
      }
      default:
        throw RemoteCacheError("unknown opcode " +
                               std::to_string(static_cast<int>(op)));
    }
    if (!dec.at_end()) {
      throw kernel::SerializeError("trailing bytes after request body");
    }
  } catch (const std::exception& e) {
    // One bad request costs one Error reply, never the daemon: a foreign
    // version, an unknown opcode, or a malformed body (the container
    // checksum already filtered line noise, so that is schema drift or a
    // crafted frame) is answered with a diagnostic on the same connection.
    bad_requests.fetch_add(1, std::memory_order_relaxed);
    kernel::Encoder err;
    err.u32(kRemoteProtoVersion);
    err.u8(static_cast<std::uint8_t>(RemoteStatus::Error));
    err.str(e.what());
    return err.finish();
  }
  return reply.finish();
}

void CacheServer::Impl::handle_connection(int fd) {
  std::string request;
  while (!stopping.load(std::memory_order_relaxed)) {
    if (!read_frame(fd, request, kMaxRequestFrame)) break;
    std::string reply = handle_request(request);
    if (!write_frame(fd, reply)) break;
  }
  {
    // Deregister before closing so stop() never shutdown()s a recycled
    // descriptor.
    std::lock_guard<std::mutex> lock(conns_mu);
    conn_fds.erase(std::remove(conn_fds.begin(), conn_fds.end(), fd),
                   conn_fds.end());
  }
  ::close(fd);
}

/// Join and drop every handler whose connection has ended.  Joining a
/// done handler is instantaneous (the thread's last act was setting the
/// flag), and moving them out of the list first keeps the join outside
/// conns_mu, which live handlers still take to deregister their fd.
void CacheServer::Impl::reap_finished() {
  std::vector<std::unique_ptr<Handler>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (auto it = handlers.begin(); it != handlers.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = handlers.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& h : finished) {
    if (h->thread.joinable()) h->thread.join();
  }
}

void CacheServer::Impl::accept_loop() {
  while (!stopping.load(std::memory_order_relaxed)) {
    // Reap on every iteration (accept or 200 ms timeout), so the thread
    // count tracks LIVE connections even when no new client arrives.
    // stop() shuts the listener down, which wakes this poll at once.
    reap_finished();
    struct pollfd pfd{listen_fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    connections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu);
    if (stopping.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    conn_fds.push_back(fd);
    handlers.push_back(std::make_unique<Handler>());
    Handler* h = handlers.back().get();
    h->thread = std::thread([this, fd, h] {
      handle_connection(fd);
      h->done.store(true, std::memory_order_release);
    });
  }
}

void CacheServer::Impl::snapshot_loop() {
  std::unique_lock<std::mutex> lock(snap_mu);
  while (!stopping.load(std::memory_order_relaxed)) {
    snap_cv.wait_for(lock, std::chrono::milliseconds(opts.snapshot_ms),
                     [this] {
                       return stopping.load(std::memory_order_relaxed);
                     });
    if (stopping.load(std::memory_order_relaxed)) return;
    try {
      do_snapshot();
    } catch (const std::exception& e) {
      // A failed periodic snapshot costs warmth, not correctness: the
      // store stays live and the next interval retries.
      std::fprintf(stderr, "eda_cached: snapshot failed: %s\n", e.what());
    }
  }
}

void CacheServer::Impl::do_snapshot() const {
  if (opts.cache_file.empty()) return;
  TheoremCache merged_thms;
  VerdictCache merged_verdicts;
  for (const auto& s : shards) {
    for (auto& [goal, th] : s->theorems.snapshot()) {
      merged_thms.emplace(goal, std::move(th));
    }
    for (auto& [key, v] : s->verdicts.snapshot()) {
      merged_verdicts.emplace(key, std::move(v));
    }
  }
  PersistentCacheFile(opts.cache_file, opts.file_options)
      .save(merged_thms, merged_verdicts);
}

CacheServer::CacheServer(CacheServerOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

CacheServer::~CacheServer() { stop(); }

CacheLoadResult CacheServer::start() {
  Impl& im = *impl_;
  im.addr = parse_remote_address(im.opts.listen);
  im.listen_fd = listen_remote(im.addr, 64, &im.bound_port);
  im.stopping.store(false, std::memory_order_relaxed);
  im.started = true;

  CacheLoadResult warm;
  if (!im.opts.cache_file.empty()) {
    // Stage through plain caches, then distribute by the shared mixer —
    // the same selector every request uses, so a restarted daemon finds
    // its warm entries exactly where lookups will ask for them.
    TheoremCache staged_thms;
    VerdictCache staged_verdicts;
    warm = PersistentCacheFile(im.opts.cache_file, im.opts.file_options)
               .load(staged_thms, staged_verdicts);
    for (auto& [goal, th] : staged_thms.snapshot()) {
      im.shard_for(goal).theorems.emplace(goal, std::move(th));
    }
    for (auto& [key, v] : staged_verdicts.snapshot()) {
      im.shard_for(key).verdicts.emplace(key, std::move(v));
    }
  } else {
    warm.note = "no cache file configured; starting cold";
  }

  im.accepter = std::thread([&im] { im.accept_loop(); });
  if (im.opts.snapshot_ms > 0 && !im.opts.cache_file.empty()) {
    im.snapshotter = std::thread([&im] { im.snapshot_loop(); });
  }
  return warm;
}

void CacheServer::stop() {
  Impl& im = *impl_;
  if (!im.started) return;
  im.started = false;
  im.stopping.store(true, std::memory_order_relaxed);
  im.snap_cv.notify_all();
  // Wake the accept loop: a shut-down listener makes poll() return at once
  // and accept() fail, so the join never waits out the poll timeout.
  // Every blocked per-connection recv is woken the same way below.
  if (im.listen_fd >= 0) ::shutdown(im.listen_fd, SHUT_RDWR);
  if (im.accepter.joinable()) im.accepter.join();
  std::list<std::unique_ptr<Impl::Handler>> handlers;
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    for (int fd : im.conn_fds) ::shutdown(fd, SHUT_RDWR);
    im.conn_fds.clear();
    handlers = std::move(im.handlers);
    im.handlers.clear();
  }
  for (auto& h : handlers) {
    if (h->thread.joinable()) h->thread.join();
  }
  if (im.snapshotter.joinable()) im.snapshotter.join();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
  if (im.addr.is_unix) ::unlink(im.addr.path.c_str());
  try {
    im.do_snapshot();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eda_cached: final snapshot failed: %s\n",
                 e.what());
  }
}

void CacheServer::snapshot() const { impl_->do_snapshot(); }

CacheServerStats CacheServer::stats() const {
  const Impl& im = *impl_;
  CacheServerStats st;
  st.shards = im.shards.size();
  for (const auto& s : im.shards) {
    st.theorem_entries += s->theorems.stats().entries;
    st.verdict_entries += s->verdicts.stats().entries;
  }
  st.lookups = im.lookups.load(std::memory_order_relaxed);
  st.lookup_hits = im.lookup_hits.load(std::memory_order_relaxed);
  st.publishes = im.publishes.load(std::memory_order_relaxed);
  st.connections = im.connections.load(std::memory_order_relaxed);
  st.bad_requests = im.bad_requests.load(std::memory_order_relaxed);
  st.batch_frames = im.batch_frames.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    st.live_handlers = im.handlers.size();
  }
  {
    std::lock_guard<std::mutex> lock(im.tenants_mu);
    st.tenants = im.tenants.size();
  }
  return st;
}

int CacheServer::port() const { return impl_->bound_port; }

const std::string& CacheServer::listen_display() const {
  return impl_->addr.display;
}

}  // namespace eda::service
