#include "service/cache_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "kernel/serialize.h"
#include "service/fault.h"

namespace eda::service {

namespace {

/// Application-schema tag inside the (already version-gated) kernel
/// container: bump when the cache *contents* change shape — e.g. a new
/// section — without touching the node-table wire format.  Schema 2 added
/// the sim pre-filter provenance fields to serialized verdicts; schema 3
/// added the failure classification byte; schema 4 changed the key shape
/// of hash-keyed verdicts (each 64-bit digest is one `#`-named constant,
/// not a binary numeral), so no schema-3 entry could ever hit again.
constexpr std::uint32_t kCacheSchema = 4;

void encode_thm(kernel::Encoder& enc, const kernel::Thm& th) {
  enc.thm(th);
}

kernel::Thm decode_thm(kernel::Decoder& dec) { return dec.thm(); }

}  // namespace

void encode_verdict(kernel::Encoder& enc, const verify::VerifyResult& v) {
  enc.u8(v.completed ? 1 : 0);
  enc.u8(v.equivalent ? 1 : 0);
  enc.u8(static_cast<std::uint8_t>(v.failure));
  enc.u64(static_cast<std::uint64_t>(v.iterations));
  enc.f64(v.seconds);
  enc.u64(v.peak);
  enc.u8(v.sim_refuted ? 1 : 0);
  enc.u64(v.sim_vectors);
  enc.str(v.counterexample);
}

verify::VerifyResult decode_verdict(kernel::Decoder& dec) {
  verify::VerifyResult v;
  v.completed = dec.u8() != 0;
  v.equivalent = dec.u8() != 0;
  std::uint8_t failure = dec.u8();
  if (failure > static_cast<std::uint8_t>(
                    verify::FailureKind::InternalError)) {
    throw kernel::SerializeError("cache verdict: bad failure kind " +
                                 std::to_string(failure));
  }
  v.failure = static_cast<verify::FailureKind>(failure);
  v.iterations = static_cast<int>(dec.u64());
  v.seconds = dec.f64();
  v.peak = static_cast<std::size_t>(dec.u64());
  v.sim_refuted = dec.u8() != 0;
  v.sim_vectors = dec.u64();
  v.counterexample = dec.str();
  return v;
}

namespace {

/// Split `path` into (directory, filename); "." for a bare filename.
std::pair<std::string, std::string> split_path(const std::string& path) {
  std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return {".", path};
  if (slash == 0) return {"/", path.substr(1)};
  return {path.substr(0, slash), path.substr(slash + 1)};
}

/// Age of `path` in milliseconds (-1 when it cannot be statted).
long long file_age_ms(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  struct timespec now;
  ::clock_gettime(CLOCK_REALTIME, &now);
  long long age = (static_cast<long long>(now.tv_sec) - st.st_mtim.tv_sec) *
                  1000LL;
  age += (now.tv_nsec - st.st_mtim.tv_nsec) / 1000000LL;
  return age;
}

/// Read a whole file; false when it does not exist or cannot be read.
bool read_file(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  bytes = buf.str();
  return true;
}

/// The cache's cross-process critical section: `path.lock` held via
/// O_CREAT|O_EXCL.  A lock older than `stale_ms` is a crashed holder's
/// leftover and gets broken (unlink + re-race: whichever breaker wins the
/// EXCL create owns the lock).  Waiting longer than `timeout_ms` throws —
/// a save must fail loudly rather than block a shutdown forever.
class ScopedCacheLock {
 public:
  ScopedCacheLock(std::string lock_path, int timeout_ms, int stale_ms)
      : path_(std::move(lock_path)) {
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0 = Clock::now();
    for (;;) {
      int fd = ::open(path_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
      if (fd >= 0) {
        std::string pid = std::to_string(::getpid()) + "\n";
        // The pid is a human diagnostic only; staleness is mtime-based.
        (void)!::write(fd, pid.data(), pid.size());
        ::close(fd);
        held_ = true;
        return;
      }
      if (errno != EEXIST) {
        throw CacheFileError("cache save: cannot create lock " + path_ +
                             ": " + std::strerror(errno));
      }
      long long age = file_age_ms(path_);
      if (age < 0) continue;  // holder released between open and stat
      if (age > stale_ms) {
        ::unlink(path_.c_str());
        continue;
      }
      double waited = std::chrono::duration<double, std::milli>(
                          Clock::now() - t0)
                          .count();
      if (waited > timeout_ms) {
        throw CacheFileError("cache save: lock " + path_ + " held for " +
                             std::to_string(static_cast<long long>(waited)) +
                             " ms; giving up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  ~ScopedCacheLock() {
    if (held_) ::unlink(path_.c_str());
  }

  ScopedCacheLock(const ScopedCacheLock&) = delete;
  ScopedCacheLock& operator=(const ScopedCacheLock&) = delete;

 private:
  std::string path_;
  bool held_ = false;
};

}  // namespace

std::string PersistentCacheFile::encode(const TheoremCache& theorems,
                                        const VerdictCache& verdicts) {
  kernel::Encoder enc;
  enc.u32(kCacheSchema);
  theorems.save(enc, encode_thm);
  verdicts.save(enc, encode_verdict);
  return enc.finish();
}

CacheLoadResult PersistentCacheFile::decode(std::string_view bytes,
                                           TheoremCache& theorems,
                                           VerdictCache& verdicts) {
  CacheLoadResult r;
  // Stage into scratch caches: nothing touches the live caches until the
  // whole payload (including the trailing at_end framing check) has
  // decoded cleanly, so a malformed file admits zero entries rather than
  // a prefix.
  TheoremCache staged_thms;
  VerdictCache staged_verdicts;
  try {
    kernel::Decoder dec(bytes);
    std::uint32_t schema = dec.u32();
    if (schema != kCacheSchema) {
      throw kernel::SerializeError(
          "cache schema skew (file schema " + std::to_string(schema) +
          ", expected " + std::to_string(kCacheSchema) + ")");
    }
    staged_thms.load(dec, decode_thm);
    staged_verdicts.load(dec, decode_verdict);
    if (!dec.at_end()) {
      throw kernel::SerializeError("trailing bytes after cache payload");
    }
  } catch (const kernel::KernelError& e) {
    r.note = std::string(e.what()) + "; ignored, starting cold";
    return r;
  }
  for (auto& [goal, thm] : staged_thms.snapshot()) {
    if (theorems.emplace(goal, std::move(thm)).second) ++r.theorems;
  }
  for (auto& [goal, verdict] : staged_verdicts.snapshot()) {
    if (verdicts.emplace(goal, std::move(verdict)).second) ++r.verdicts;
  }
  r.loaded = true;
  r.note = "loaded " + std::to_string(r.theorems) + " theorem(s), " +
           std::to_string(r.verdicts) + " verdict(s)";
  return r;
}

void PersistentCacheFile::save(const TheoremCache& theorems,
                               const VerdictCache& verdicts) const {
  // The whole load-merge-write-rename sequence runs under the cache lock,
  // so N processes saving to one path serialise their read-modify-write
  // cycles and every process's entries reach the union.
  ScopedCacheLock lock(path_ + ".lock", opts_.lock_timeout_ms,
                       opts_.stale_lock_ms);

  std::string bytes;
  if (opts_.merge_on_save) {
    // Merge the on-disk entries into our snapshot.  decode() emplaces, and
    // emplace keeps the existing entry, so live entries win collisions —
    // both sides proved the same goal, and ours is the fresher proof.
    TheoremCache merged_thms;
    VerdictCache merged_verdicts;
    for (auto& [goal, thm] : theorems.snapshot()) {
      merged_thms.emplace(goal, std::move(thm));
    }
    for (auto& [goal, verdict] : verdicts.snapshot()) {
      merged_verdicts.emplace(goal, std::move(verdict));
    }
    std::string existing;
    if (read_file(path_, existing)) {
      decode(existing, merged_thms, merged_verdicts);  // corrupt = skipped
    }
    bytes = encode(merged_thms, merged_verdicts);
  } else {
    bytes = encode(theorems, verdicts);
  }

  // Unique temp per call AND per process: even under the lock a crashed
  // saver's leftover temp must never collide with a live one.
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t serial =
      counter.fetch_add(1, std::memory_order_relaxed);
  std::string tmp = path_ + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(serial);

  // Torn-write fault site: model a saver crashing mid-write (or a kernel
  // dropping un-synced pages) by publishing a truncated payload.  The next
  // load must diagnose it and cold-start — never admit a prefix.
  std::size_t write_len = bytes.size();
  if (FaultInjector::instance().should_fail(kFaultCacheWrite)) {
    write_len /= 2;
  }

  int fd = ::open(tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    throw CacheFileError("cache save: cannot open " + tmp + ": " +
                         std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < write_len) {
    ssize_t n = ::write(fd, bytes.data() + off, write_len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw CacheFileError("cache save: write to " + tmp + " failed: " +
                           std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must never become durable ahead of the
  // data it points at, or a crash leaves a complete-looking empty file.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw CacheFileError("cache save: fsync " + tmp + " failed: " +
                         std::strerror(errno));
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw CacheFileError("cache save: cannot rename " + tmp + " to " +
                         path_);
  }
  // fsync the directory so the rename itself survives a power cut.
  int dirfd = ::open(split_path(path_).first.c_str(), O_RDONLY);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    ::close(dirfd);
  }
}

CacheLoadResult PersistentCacheFile::load(TheoremCache& theorems,
                                          VerdictCache& verdicts) const {
  // Sweep orphaned temp files from crashed savers.  Age-gated so a saver
  // mid-write in another process keeps its temp.
  auto [dir, name] = split_path(path_);
  std::string tmp_prefix = name + ".tmp.";
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* ent = ::readdir(d)) {
      if (std::strncmp(ent->d_name, tmp_prefix.c_str(),
                       tmp_prefix.size()) != 0) {
        continue;
      }
      std::string orphan = dir + "/" + ent->d_name;
      long long age = file_age_ms(orphan);
      if (age >= opts_.orphan_tmp_ms) ::unlink(orphan.c_str());
    }
    ::closedir(d);
  }

  std::string bytes;
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    CacheLoadResult r;
    r.note = "no cache file at " + path_ + "; starting cold";
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    CacheLoadResult r;
    r.note = "cannot read " + path_ + "; ignored, starting cold";
    return r;
  }
  bytes = buf.str();
  return decode(bytes, theorems, verdicts);
}

}  // namespace eda::service
