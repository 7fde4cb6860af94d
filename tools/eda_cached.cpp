// eda_cached — the sharded remote theorem-cache daemon.
//
// Serves the length-prefixed framed cache protocol (service/remote_proto.h)
// over a unix or TCP socket: N store shards, each a (TheoremCache,
// VerdictCache) pair selected by the multiply-mixed alpha/structural hash
// of the key term, so many eda_service clients share one warm cache tier.
// Requests re-intern their terms through the kernel on decode, so
// alpha-equivalent goals from different clients land on the same entry.
//
//   eda_cached [options]
//
// options:
//   --socket PATH        listen on a unix socket (default
//                        /tmp/eda_cached.sock)
//   --listen HOST:PORT   listen on TCP instead (port 0 picks one and
//                        prints it)
//   --shards N           store shards, 1..256 (default 8)
//   --cache-file FILE    warm-start from FILE on boot and merge-on-save
//                        snapshot back to it (PR 8 lock-file union
//                        semantics, shared with --cache-file clients), so
//                        a restarted daemon comes back warm
//   --snapshot-ms N      also snapshot every N ms (default: only on
//                        shutdown)
//
// Speaks one protocol version (kRemoteProtoVersion): every theorem and
// verdict travels in LookupBatch/PublishBatch frames, and a frame stamped
// with another version, or carrying an unknown opcode, gets an Error reply.
//
// A stale unix socket left by an unclean death (SIGKILL) is probed on
// boot: if nothing answers it is unlinked and rebound, so restarts never
// hit EADDRINUSE; if a live daemon answers, startup fails instead of
// stealing its socket.
//
// SIGINT/SIGTERM shut the daemon down cleanly: stop accepting, drain the
// connection handlers, write a final snapshot, exit 0.  Clients riding a
// RemoteBackend degrade to their in-process fallback and lose nothing.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "service/cache_server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "eda_cached: %s\n", msg);
  std::fprintf(stderr,
               "usage: eda_cached [--socket PATH | --listen HOST:PORT]\n"
               "                  [--shards N] [--cache-file FILE]\n"
               "                  [--snapshot-ms N]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eda;

  service::CacheServerOptions opts;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    auto next = [&]() -> std::string {
      if (a + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++a];
    };
    try {
      std::size_t used = 0;
      if (arg == "--socket") opts.listen = "unix:" + next();
      else if (arg == "--listen") opts.listen = next();
      else if (arg == "--shards") {
        std::string v = next();
        int n = std::stoi(v, &used);
        if (used != v.size() || n < 1 || n > 256) {
          usage("--shards must be an integer in 1..256");
        }
        opts.shards = static_cast<std::size_t>(n);
      } else if (arg == "--cache-file") opts.cache_file = next();
      else if (arg == "--snapshot-ms") {
        std::string v = next();
        int n = std::stoi(v, &used);
        if (used != v.size() || n < 1 || n > 3'600'000) {
          usage("--snapshot-ms must be an integer in 1..3600000");
        }
        opts.snapshot_ms = n;
      } else usage(("unknown option " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad numeric value for " + arg).c_str());
    }
  }

  service::CacheServer server(opts);
  try {
    service::CacheLoadResult lr = server.start();
    if (!opts.cache_file.empty()) {
      std::printf("eda_cached: cache file %s: %s\n",
                  opts.cache_file.c_str(), lr.note.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eda_cached: %s\n", e.what());
    return 1;
  }
  std::printf("eda_cached: serving on %s (%zu shard(s)%s)\n",
              server.listen_display().c_str(), opts.shards,
              opts.snapshot_ms > 0
                  ? (", snapshot every " + std::to_string(opts.snapshot_ms) +
                     " ms")
                        .c_str()
                  : "");
  if (server.port() != 0) {
    // Port 0 binds pick one; scripts parse this line to find it.
    std::printf("eda_cached: port %d\n", server.port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    // poll() as a portable interruptible sleep: a signal breaks it early.
    struct pollfd none {};
    none.fd = -1;
    ::poll(&none, 1, 200);
  }

  std::printf("eda_cached: shutting down\n");
  server.stop();
  service::CacheServerStats st = server.stats();
  std::printf(
      "eda_cached: served %llu lookup(s) (%llu hit(s)), %llu publish(es) "
      "(%llu batch frame(s)) over %llu connection(s) from %llu tenant(s); "
      "%zu theorem(s), %zu verdict(s) in store\n",
      static_cast<unsigned long long>(st.lookups),
      static_cast<unsigned long long>(st.lookup_hits),
      static_cast<unsigned long long>(st.publishes),
      static_cast<unsigned long long>(st.batch_frames),
      static_cast<unsigned long long>(st.connections),
      static_cast<unsigned long long>(st.tenants), st.theorem_entries,
      st.verdict_entries);
  return 0;
}
