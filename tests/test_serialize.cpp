// Tests for the persistent goal cache: the kernel term/type/theorem
// serializer (kernel/serialize.h), GoalCache save/load, the service's
// PersistentCacheFile (atomic save, corruption-tolerant load), and
// concurrent snapshot-while-draining.  The corruption cases are the
// designated ASan workload for this layer; the concurrency case runs on
// the TSan CI leg.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kernel/goal_cache.h"
#include "kernel/serialize.h"
#include "kernel/terms.h"
#include "kernel/thm.h"
#include "service/cache_file.h"
#include "service/verify_service.h"
#include "testlib/gen.h"

namespace k = eda::kernel;
namespace svc = eda::service;
using eda::testlib::TermGen;
using k::Term;
using k::Thm;
using k::Type;

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// (jobs, share) service options — the old flat positional init, regrouped.
svc::ServiceOptions sopts(unsigned jobs, bool share = true) {
  svc::ServiceOptions opts;
  opts.jobs = jobs;
  opts.cache.share = share;
  return opts;
}

/// A small but non-trivial cache pair to persist: refl/assume-derived
/// theorems over generated goals, plus a few verdicts.
void fill_caches(svc::TheoremCache& thms, svc::VerdictCache& verdicts,
                 std::uint64_t seed, int entries) {
  TermGen gen(seed);
  for (int i = 0; i < entries; ++i) {
    Term goal = gen.random_goal(4);
    thms.emplace(goal, Thm::refl(goal));
    eda::verify::VerifyResult v;
    v.completed = true;
    v.equivalent = (i % 3) != 0;
    v.iterations = i;
    v.seconds = 0.25 * i;
    v.peak = static_cast<std::size_t>(100 + i);
    verdicts.emplace(k::mk_eq(goal, goal), v);
  }
}

}  // namespace

// --- Term/type round trips -------------------------------------------------

TEST(Serialize, RoundTripPreservesInternedIdentity) {
  // The headline property: for ~1000 seeded random terms, deserialization
  // re-interns to the IDENTICAL node — same pointer, same alpha hash, same
  // cached free-variable set — because reconstruction runs through the
  // hash-consing constructors.
  TermGen gen(0xeda5eed);
  std::vector<Term> originals;
  k::Encoder enc;
  for (int i = 0; i < 1000; ++i) {
    Term t = gen.random_goal(2 + i % 7);
    originals.push_back(t);
    enc.term(t);
  }
  std::string bytes = enc.finish();
  k::Decoder dec(bytes);
  for (const Term& orig : originals) {
    Term back = dec.term();
    EXPECT_EQ(back.node_id(), orig.node_id());
    EXPECT_TRUE(back.identical(orig));
    EXPECT_EQ(back.hash(), orig.hash());
    EXPECT_EQ(&k::free_vars_set(back), &k::free_vars_set(orig));
  }
  EXPECT_TRUE(dec.at_end());
}

TEST(Serialize, RoundTripTypes) {
  TermGen gen(42);
  k::Encoder enc;
  std::vector<Type> originals;
  for (int i = 0; i < 200; ++i) {
    Type ty = gen.random_type(1 + i % 5);
    originals.push_back(ty);
    enc.type(ty);
  }
  std::string bytes = enc.finish();
  k::Decoder dec(bytes);
  for (const Type& orig : originals) {
    Type back = dec.type();
    EXPECT_EQ(back.node_id(), orig.node_id());
    EXPECT_EQ(back.hash(), orig.hash());
  }
  EXPECT_TRUE(dec.at_end());
}

TEST(Serialize, SharedDagSerializesOncePerNode) {
  // A 2^200-leaf doubling tower is a 201-node DAG: the encoding must stay
  // tiny (one record per node, fixed-width references), or serialization
  // would be the one kernel operation that pays tree cost.
  Term tower = eda::testlib::eq_tower(200);
  k::Encoder enc;
  enc.term(tower);
  std::string bytes = enc.finish();
  EXPECT_LT(bytes.size(), 16u * 1024u);
  k::Decoder dec(bytes);
  EXPECT_EQ(dec.term().node_id(), tower.node_id());
}

TEST(Serialize, MixedPayloadScalars) {
  k::Encoder enc;
  enc.u8(7);
  enc.u32(0xdeadbeef);
  enc.u64(0x0123456789abcdefULL);
  enc.f64(3.5);
  enc.str("hello \0 world");  // embedded NUL survives? (string literal cuts)
  enc.str(std::string("bin\0ary", 7));
  std::string bytes = enc.finish();
  k::Decoder dec(bytes);
  EXPECT_EQ(dec.u8(), 7u);
  EXPECT_EQ(dec.u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(dec.f64(), 3.5);
  EXPECT_EQ(dec.str(), "hello ");
  EXPECT_EQ(dec.str(), std::string("bin\0ary", 7));
  EXPECT_TRUE(dec.at_end());
}

TEST(Fnv1a64, StreamedWordsHashLikeTheirBytes) {
  // u64() folds the zero bytes above a word's highest nonzero byte into
  // one multiply; the digest must equal FNV-1a over the 8 little-endian
  // bytes, including zero bytes between nonzero ones.
  std::vector<std::uint64_t> words = {0,
                                      1,
                                      0xff,
                                      0x100,
                                      0x10001,
                                      0xff00ff00ULL,
                                      1ULL << 56,
                                      ~0ULL,
                                      0x0123456789abcdefULL};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 64; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    words.push_back(x >> (i % 64));
  }
  std::string bytes;
  k::Fnv1a64 streamed;
  for (std::uint64_t w : words) {
    std::string one;
    for (int b = 0; b < 8; ++b) one.push_back(static_cast<char>(w >> (8 * b)));
    EXPECT_EQ(k::Fnv1a64().u64(w).digest(), k::fnv1a64(one)) << w;
    bytes += one;
    streamed.u64(w);
  }
  EXPECT_EQ(streamed.digest(), k::fnv1a64(bytes));
  // The published FNV-1a 64 test vectors.
  EXPECT_EQ(k::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(k::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(k::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

// --- Theorems --------------------------------------------------------------

TEST(Serialize, ThmRoundTripPreservesEverything) {
  Term p = Term::var("p", k::bool_ty());
  Term q = Term::var("q", k::bool_ty());
  Thm pure = Thm::trans(Thm::assume(k::mk_eq(p, q)),
                        Thm::assume(k::mk_eq(q, p)));
  Thm tagged = k::Oracle::admit("SERIALIZE_TEST", k::mk_eq(p, p));

  k::Encoder enc;
  enc.thm(pure);
  enc.thm(tagged);
  std::string bytes = enc.finish();
  k::Decoder dec(bytes);

  Thm pure_back = dec.thm();
  EXPECT_TRUE(pure_back.concl().identical(pure.concl()));
  ASSERT_EQ(pure_back.hyps().size(), pure.hyps().size());
  for (std::size_t i = 0; i < pure.hyps().size(); ++i) {
    EXPECT_TRUE(pure_back.hyps()[i].identical(pure.hyps()[i]));
  }
  EXPECT_TRUE(pure_back.is_pure());

  Thm tagged_back = dec.thm();
  EXPECT_FALSE(tagged_back.is_pure());
  EXPECT_EQ(tagged_back.oracles().count("SERIALIZE_TEST"), 1u);
  EXPECT_TRUE(dec.at_end());
}

// --- GoalCache save/load ---------------------------------------------------

TEST(Serialize, AlphaEquivalentGoalsLoadToSameCacheKey) {
  // Two generators, same seed, different binder salts: pairwise
  // alpha-equivalent goals spelt differently.  An entry saved under one
  // spelling must be found under the other after a reload — the cache key
  // is the alpha class, and serialization must not weaken that.
  TermGen gen_u(0xa1fa, "u");
  TermGen gen_v(0xa1fa, "v");
  k::GoalCache<int> cache;
  std::vector<Term> spelt_u, spelt_v;
  int abs_pairs = 0;
  for (int i = 0; i < 300; ++i) {
    Term a = gen_u.random_goal(3 + i % 5);
    Term b = gen_v.random_goal(3 + i % 5);
    ASSERT_TRUE(a == b) << "salt variants must be alpha-equivalent at " << i;
    if (!a.identical(b)) ++abs_pairs;
    spelt_u.push_back(a);
    spelt_v.push_back(b);
    cache.emplace(a, i);
  }
  // The generator must actually exercise abstractions, or this test says
  // nothing about alpha classes.
  EXPECT_GT(abs_pairs, 20);

  k::Encoder enc;
  cache.save(enc, [](k::Encoder& e, int v) {
    e.u32(static_cast<std::uint32_t>(v));
  });
  std::string bytes = enc.finish();

  k::GoalCache<int> reloaded;
  k::Decoder dec(bytes);
  std::size_t admitted = reloaded.load(dec, [](k::Decoder& d) {
    return static_cast<int>(d.u32());
  });
  EXPECT_TRUE(dec.at_end());
  EXPECT_EQ(admitted, cache.stats().entries);
  for (int i = 0; i < 300; ++i) {
    auto got = reloaded.find(spelt_v[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.has_value()) << "goal " << i;
    // Alpha-equivalent later goals may have overwritten... no: emplace
    // keeps the first value, and find under either spelling must agree.
    EXPECT_EQ(*got,
              *cache.find(spelt_u[static_cast<std::size_t>(i)]));
  }
}

// --- PersistentCacheFile ---------------------------------------------------

TEST(CacheFile, EncodeDecodeRoundTrip) {
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  fill_caches(thms, verdicts, 7, 50);

  std::string bytes = svc::PersistentCacheFile::encode(thms, verdicts);
  svc::TheoremCache thms2;
  svc::VerdictCache verdicts2;
  svc::CacheLoadResult r =
      svc::PersistentCacheFile::decode(bytes, thms2, verdicts2);
  ASSERT_TRUE(r.loaded) << r.note;
  EXPECT_EQ(r.theorems, thms.stats().entries);
  EXPECT_EQ(r.verdicts, verdicts.stats().entries);

  for (auto& [goal, thm] : thms.snapshot()) {
    auto got = thms2.find(goal);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->concl().identical(thm.concl()));
    EXPECT_EQ(got->is_pure(), thm.is_pure());
  }
  for (auto& [goal, v] : verdicts.snapshot()) {
    auto got = verdicts2.find(goal);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->completed, v.completed);
    EXPECT_EQ(got->equivalent, v.equivalent);
    EXPECT_EQ(got->iterations, v.iterations);
    EXPECT_DOUBLE_EQ(got->seconds, v.seconds);
    EXPECT_EQ(got->peak, v.peak);
  }
}

TEST(CacheFile, SaveLoadFileRoundTripAndOverwrite) {
  std::string path = temp_path("cache_roundtrip.bin");
  svc::PersistentCacheFile file(path);
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  fill_caches(thms, verdicts, 11, 20);
  file.save(thms, verdicts);

  svc::TheoremCache in_t;
  svc::VerdictCache in_v;
  svc::CacheLoadResult r = file.load(in_t, in_v);
  ASSERT_TRUE(r.loaded) << r.note;
  EXPECT_EQ(r.theorems, thms.stats().entries);

  // Overwriting with a bigger snapshot replaces the file atomically.
  fill_caches(thms, verdicts, 13, 30);
  file.save(thms, verdicts);
  svc::TheoremCache in_t2;
  svc::VerdictCache in_v2;
  r = file.load(in_t2, in_v2);
  ASSERT_TRUE(r.loaded) << r.note;
  EXPECT_EQ(r.theorems, thms.stats().entries);
  std::remove(path.c_str());
}

TEST(CacheFile, MissingFileIsDiagnosedColdStart) {
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  svc::CacheLoadResult r =
      svc::PersistentCacheFile(temp_path("never_written.bin"))
          .load(thms, verdicts);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.note.find("cold"), std::string::npos);
  EXPECT_EQ(thms.stats().entries, 0u);
  EXPECT_EQ(verdicts.stats().entries, 0u);
}

// --- Corruption: every failure is a clean cold start -----------------------

TEST(CacheFileCorruption, TruncationsNeverCrashOrAdmitEntries) {
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  fill_caches(thms, verdicts, 17, 15);
  std::string bytes = svc::PersistentCacheFile::encode(thms, verdicts);

  // Every prefix, stepping through the interesting small lengths densely
  // and the tail coarsely.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 97)) {
    svc::TheoremCache t;
    svc::VerdictCache v;
    svc::CacheLoadResult r = svc::PersistentCacheFile::decode(
        std::string_view(bytes).substr(0, len), t, v);
    EXPECT_FALSE(r.loaded) << "prefix " << len;
    EXPECT_FALSE(r.note.empty());
    EXPECT_NE(r.note.find("cold"), std::string::npos);
    EXPECT_EQ(t.stats().entries, 0u) << "prefix " << len;
    EXPECT_EQ(v.stats().entries, 0u) << "prefix " << len;
  }
}

TEST(CacheFileCorruption, BitFlipsNeverCrashOrAdmitEntries) {
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  fill_caches(thms, verdicts, 19, 10);
  std::string bytes = svc::PersistentCacheFile::encode(thms, verdicts);

  // Flip one bit in every byte position (stride keeps runtime sane on the
  // larger payload, but covers header, both tables and payload).
  for (std::size_t pos = 0; pos < bytes.size();
       pos += (pos < 32 ? 1 : 13)) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 << (pos % 8)));
    svc::TheoremCache t;
    svc::VerdictCache v;
    svc::CacheLoadResult r =
        svc::PersistentCacheFile::decode(mutated, t, v);
    EXPECT_FALSE(r.loaded) << "flip at " << pos;
    EXPECT_EQ(t.stats().entries, 0u) << "flip at " << pos;
    EXPECT_EQ(v.stats().entries, 0u) << "flip at " << pos;
  }
}

TEST(CacheFileCorruption, VersionSkewIsDiagnosedNotMigrated) {
  svc::TheoremCache thms;
  svc::VerdictCache verdicts;
  fill_caches(thms, verdicts, 23, 5);
  std::string bytes = svc::PersistentCacheFile::encode(thms, verdicts);
  ASSERT_GT(bytes.size(), 8u);
  bytes[4] = static_cast<char>(bytes[4] + 1);  // header version field

  svc::TheoremCache t;
  svc::VerdictCache v;
  svc::CacheLoadResult r = svc::PersistentCacheFile::decode(bytes, t, v);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.note.find("version"), std::string::npos);
  EXPECT_EQ(t.stats().entries, 0u);
}

TEST(CacheFileCorruption, ForeignFileIsRejectedByMagic) {
  svc::TheoremCache t;
  svc::VerdictCache v;
  svc::CacheLoadResult r = svc::PersistentCacheFile::decode(
      "#! not a cache file at all, but longer than a header\n", t, v);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.note.find("magic"), std::string::npos);
}

TEST(CacheFileCorruption, CorruptFileOnDiskStartsServiceCold) {
  // End to end through the service API: a clobbered cache file must leave
  // the service running (cold), not throw out of construction/startup.
  std::string path = temp_path("clobbered.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "EDAC garbage that is long enough to look like a header";
  }
  svc::VerifyService service(sopts(1));
  svc::CacheLoadResult r = service.load_cache(path);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.note.find("cold"), std::string::npos);
  std::remove(path.c_str());
}

// --- Concurrency: snapshot while draining (TSan leg) -----------------------

TEST(CacheFileConcurrency, SaveWhileDrainingProducesLoadableFiles) {
  // One thread runs a batch of jobs (publishing into the shared caches)
  // while another repeatedly snapshots the service to the same path.
  // Every intermediate file is complete (atomic rename) and the final one
  // reflects the drained service.
  std::string path = temp_path("concurrent_save.bin");
  svc::VerifyService service(sopts(2));
  std::vector<svc::JobSpec> specs;
  for (int n = 2; n <= 6; ++n) {
    svc::JobSpec spec;
    spec.circuit = "fig2:" + std::to_string(n);
    spec.method = svc::Method::Hash;
    spec.timeout_sec = 30.0;
    specs.push_back(spec);
  }

  std::thread saver([&] {
    for (int i = 0; i < 25; ++i) service.save_cache(path);
  });
  std::vector<svc::JobResult> results = service.run_batch(specs);
  saver.join();
  for (const svc::JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
  }

  // The racing snapshots left SOME complete file; reload it.
  svc::TheoremCache t;
  svc::VerdictCache v;
  svc::CacheLoadResult mid =
      svc::PersistentCacheFile(path).load(t, v);
  EXPECT_TRUE(mid.loaded) << mid.note;

  // A post-drain save must carry every proved theorem: a fresh service
  // warm-started from it re-runs the batch without a single theorem miss.
  service.save_cache(path);
  svc::VerifyService warm(sopts(2));
  svc::CacheLoadResult wl = warm.load_cache(path);
  ASSERT_TRUE(wl.loaded) << wl.note;
  EXPECT_EQ(wl.theorems, specs.size());
  warm.run_batch(specs);
  EXPECT_EQ(warm.stats().theorems.misses, 0u);
  EXPECT_EQ(warm.stats().theorems.hits, specs.size());
  std::remove(path.c_str());
}
