// Tests for src/cache — the content-addressed result cache: SHA-256,
// canonical key derivation, the two-tier store (LRU memory + on-disk
// entries), fail-open corruption handling, mode semantics, concurrent
// lookups, and bit-identical cached flows (fit / buffering / yield).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "buffering/optimize.hpp"
#include "cache/invalidate.hpp"
#include "cache/key.hpp"
#include "cache/manifest.hpp"
#include "cache/resident.hpp"
#include "cache/sha256.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "exec/engine.hpp"
#include "models/proposed.hpp"
#include "obs/metrics.hpp"
#include "sta/calibrated.hpp"
#include "tech/techfile.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

namespace pim::cache {
namespace {

using namespace pim::unit;

// Fresh scratch directory per test; pins the global mode/dir so tests
// never touch the user's ~/.cache/pim, and restores them afterwards.
class CacheDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "pim_cache_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    set_dir(dir_);
    set_mode(Mode::ReadWrite);
    Store::global().clear_memory();
  }
  void TearDown() override {
    Store::global().clear_memory();
    reset_mode();
    set_dir("");
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

CacheKey key_of(const std::string& tag) {
  KeyBuilder kb("test");
  kb.field("tag", tag);
  return kb.finish();
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two-block message from FIPS 180-4 appendix B.2.
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Sha256 h;
  h.update("ab");
  h.update("");
  h.update("c");
  EXPECT_EQ(h.hex_digest(), sha256_hex("abc"));
  // Spans a block boundary.
  const std::string big(130, 'x');
  Sha256 h2;
  h2.update(big.substr(0, 63));
  h2.update(big.substr(63));
  EXPECT_EQ(h2.hex_digest(), sha256_hex(big));
}

TEST(KeyBuilder, StableAcrossRebuilds) {
  const auto build = [] {
    KeyBuilder kb("fit");
    kb.field("tech", "65nm");
    kb.field("length", 5.0e-3);
    kb.field("samples", 1000);
    kb.field("flag", true);
    kb.field("drives", std::vector<int>{2, 8, 32});
    kb.blob("payload", std::string("\x00\x01raw", 5));
    return kb.finish();
  };
  const CacheKey a = build();
  const CacheKey b = build();
  EXPECT_EQ(a.kind, "fit");
  EXPECT_EQ(a.hex, b.hex);
  EXPECT_EQ(a.hex.size(), 64u);
}

TEST(KeyBuilder, OrderKindAndValuesAllMatter) {
  KeyBuilder ab("k");
  ab.field("a", 1);
  ab.field("b", 2);
  KeyBuilder ba("k");
  ba.field("b", 2);
  ba.field("a", 1);
  EXPECT_NE(ab.finish().hex, ba.finish().hex);

  KeyBuilder k1("fit");
  k1.field("a", 1);
  KeyBuilder k2("buffering");
  k2.field("a", 1);
  EXPECT_NE(k1.finish().hex, k2.finish().hex);

  // 17 significant digits: doubles that differ in the last ulp get
  // different keys.
  KeyBuilder d1("k");
  d1.field("x", 0.1 + 0.2);
  KeyBuilder d2("k");
  d2.field("x", 0.3);
  EXPECT_NE(d1.finish().hex, d2.finish().hex);
}

TEST(KeyBuilder, BlobsAreLengthPrefixed) {
  KeyBuilder k1("k");
  k1.blob("a", "bc");
  KeyBuilder k2("k");
  k2.blob("ab", "c");
  EXPECT_NE(k1.finish().hex, k2.finish().hex);
}

TEST(CacheMode, NameParsing) {
  Mode mode = Mode::Off;
  EXPECT_TRUE(mode_from_name("rw", mode));
  EXPECT_EQ(mode, Mode::ReadWrite);
  EXPECT_TRUE(mode_from_name("ro", mode));
  EXPECT_EQ(mode, Mode::ReadOnly);
  EXPECT_TRUE(mode_from_name("off", mode));
  EXPECT_EQ(mode, Mode::Off);
  EXPECT_FALSE(mode_from_name("bogus", mode));
  EXPECT_FALSE(mode_from_name("", mode));
  EXPECT_STREQ(mode_name(Mode::ReadWrite), "rw");
  EXPECT_STREQ(mode_name(Mode::ReadOnly), "ro");
  EXPECT_STREQ(mode_name(Mode::Off), "off");
}

TEST_F(CacheDirFixture, MemoryAndDiskRoundTrip) {
  Store& store = Store::global();
  const CacheKey key = key_of("roundtrip");
  EXPECT_FALSE(store.get(key).has_value());
  store.put(key, "payload-bytes");
  const auto hit = store.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
  EXPECT_TRUE(std::filesystem::exists(store.entry_path(key)));

  // Disk tier: a fresh memory tier (i.e. a new process) still hits.
  store.clear_memory();
  EXPECT_EQ(store.memory_entries(), 0u);
  const auto disk_hit = store.get(key);
  ASSERT_TRUE(disk_hit.has_value());
  EXPECT_EQ(*disk_hit, "payload-bytes");
  // The disk hit repopulates the memory tier.
  EXPECT_EQ(store.memory_entries(), 1u);
}

// ------------------------------------------------------ resident memos

TEST_F(CacheDirFixture, ResidentMemoComputesConcurrentMissesOnce) {
  ResidentMemo<int> memo;
  std::atomic<int> computes{0}, hits{0};
  std::vector<int> got(8, 0);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < got.size(); ++t)
    callers.emplace_back([&, t] {
      got[t] = memo.get(
          "k",
          [&] {
            computes.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return 42;
          },
          [&](int) { hits.fetch_add(1); });
    });
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(hits.load(), 7) << "every waiter counts a hit";
  for (int v : got) EXPECT_EQ(v, 42);
}

TEST_F(CacheDirFixture, ResidentMemoStoresNothingFromAFailedCompute) {
  ResidentMemo<int> memo;
  std::atomic<bool> leading{false};
  std::thread leader([&] {
    EXPECT_THROW(memo.get(
                     "k",
                     [&]() -> int {
                       leading.store(true);
                       std::this_thread::sleep_for(std::chrono::milliseconds(20));
                       fail("stopped", ErrorCode::deadline_exceeded);
                     },
                     [](int) { ADD_FAILURE() << "nothing to hit"; }),
                 Error);
  });
  while (!leading.load()) std::this_thread::yield();
  // Arrives while the leader is in flight; once it fails, computes itself.
  int computes = 0;
  EXPECT_EQ(memo.get("k", [&] { return ++computes, 7; }, [](int) {}), 7);
  leader.join();
  EXPECT_EQ(computes, 1);
  int hits = 0;
  EXPECT_EQ(memo.get("k", [] { return 0; }, [&](int) { ++hits; }), 7);
  EXPECT_EQ(hits, 1);
}

TEST_F(CacheDirFixture, ResidentMemoLeaderNeverWaitsOnBlockedPoolWorkers) {
  // Every pool worker runs an item of one region and waits on a key that
  // a top-level thread is computing through a region of its own. That
  // region's queued slot can never start; its join must not wait for it.
  constexpr size_t kWaiters = 64;
  ResidentMemo<int> memo;
  std::atomic<bool> leading{false};
  std::atomic<size_t> entered{0};
  std::thread leader([&] {
    const int v = memo.get(
        "k",
        [&] {
          leading.store(true);
          while (entered.load() < kWaiters) std::this_thread::yield();
          std::atomic<int> ran{0};
          exec::parallel_for(2, [&](size_t) { ran.fetch_add(1); }, {.threads = 2});
          return ran.load();
        },
        [](int) { ADD_FAILURE() << "the leader computes"; });
    EXPECT_EQ(v, 2);
  });
  while (!leading.load()) std::this_thread::yield();
  std::atomic<int> hits{0};
  exec::parallel_for(
      kWaiters,
      [&](size_t) {
        entered.fetch_add(1);
        EXPECT_EQ(memo.get("k", [] { return -1; }, [&](int) { hits.fetch_add(1); }), 2);
      },
      {.threads = static_cast<int>(kWaiters)});
  leader.join();
  EXPECT_EQ(hits.load(), static_cast<int>(kWaiters));
}

TEST_F(CacheDirFixture, ResidentMemoIsBypassedWithTheCacheOffOrFaultsArmed) {
  ResidentMemo<int> memo;
  int computes = 0;
  const auto get = [&] { return memo.get("k", [&] { return ++computes; }, [](int) {}); };
  set_mode(Mode::Off);
  EXPECT_EQ(get(), 1);
  EXPECT_EQ(get(), 2);
  set_mode(Mode::ReadWrite);
  fault::configure("io.open:0");  // armed, never fires
  EXPECT_EQ(get(), 3);
  fault::clear();
  EXPECT_EQ(get(), 4) << "nothing was stored while bypassed";
  EXPECT_EQ(get(), 4);
}

TEST_F(CacheDirFixture, EncodeDecodeEntry) {
  const CacheKey key = key_of("codec");
  const std::string payload = "line one\nline two\n";
  const std::string entry = Store::encode_entry(key, payload);
  const auto decoded = Store::decode_entry(key, entry);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), payload);

  // Any tampering is a named io_parse failure, not a crash.
  const auto truncated = Store::decode_entry(key, entry.substr(0, entry.size() / 2));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code(), ErrorCode::io_parse);
  std::string flipped = entry;
  flipped[flipped.size() - 3] ^= 1;  // corrupt the payload
  EXPECT_FALSE(Store::decode_entry(key, flipped).ok());
  const auto wrong_key = Store::decode_entry(key_of("other"), entry);
  ASSERT_FALSE(wrong_key.ok());
}

TEST_F(CacheDirFixture, CorruptDiskEntryFailsOpen) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("corrupt");
  store.put(key, "good payload");
  store.clear_memory();

  // Garble the on-disk entry behind the store's back.
  {
    std::ofstream out(store.entry_path(key), std::ios::trunc);
    out << "pim-cache v1\ngarbage\n";
  }
  const int64_t corrupt_before = obs::registry().counter("cache.corrupt").value();
  EXPECT_FALSE(store.get(key).has_value());  // miss, not an exception
  EXPECT_EQ(obs::registry().counter("cache.corrupt").value(), corrupt_before + 1);
  // rw mode scrubs the bad entry so the recompute can re-register it.
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
  store.put(key, "recomputed");
  store.clear_memory();
  const auto hit = store.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "recomputed");
  obs::set_enabled(false);
}

TEST_F(CacheDirFixture, LookupMetricsTrackTiersAndHitRate) {
  obs::registry().reset();
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("metrics");

  store.get(key);               // miss
  store.put(key, "12 bytes....");
  store.get(key);               // memory hit
  store.clear_memory();
  store.get(key);               // disk hit

  // hit_rate derives from the cache.hit/cache.miss counters, so after
  // one miss and two hits it reads 2/3 (and a registry reset clears it
  // with everything else — no bleed across api requests).
  EXPECT_DOUBLE_EQ(obs::registry().gauge("cache.hit_rate").value(), 2.0 / 3.0);

  // One load-latency sample per tier that actually served a hit.
  EXPECT_EQ(obs::registry().timer("cache.mem.load").count(), 1);
  EXPECT_EQ(obs::registry().timer("cache.disk.load").count(), 1);

  // Entry-size histogram: one sample from put, one from the disk hit,
  // both the payload size (the histogram machinery is unit-agnostic).
  obs::Timer& entry_bytes = obs::registry().timer("cache.entry.bytes");
  EXPECT_EQ(entry_bytes.count(), 2);
  EXPECT_EQ(entry_bytes.total_ns(), 24);  // 2 x 12-byte payload
  EXPECT_EQ(entry_bytes.min_ns(), 12);
  EXPECT_EQ(entry_bytes.max_ns(), 12);

  obs::set_enabled(false);
  obs::registry().reset();
}

TEST_F(CacheDirFixture, LruEvictionRespectsBudgets) {
  // The memory tier charges payload + manifest sidecar per entry, so the
  // budget is expressed in per-entry footprints (outside a Tracked scope
  // every entry carries the same empty-manifest image).
  const CacheKey a = key_of("a"), b = key_of("b"), c = key_of("c");
  const size_t footprint = 4 + encode_manifest(Manifest{a, {}, {}, 0}).size();
  const size_t budget = 2 * footprint;
  Store store(Store::Options{/*max_memory_bytes=*/budget, /*max_memory_entries=*/2,
                             /*disk_dir=*/dir_});
  store.put(a, "aaaa");
  store.put(b, "bbbb");
  EXPECT_EQ(store.memory_entries(), 2u);
  store.put(c, "cccc");  // evicts the least recently used (a)
  EXPECT_LE(store.memory_entries(), 2u);
  EXPECT_LE(store.memory_bytes(), budget);
  // Evicted entries are not lost — the disk tier still has them.
  const auto hit = store.get(a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "aaaa");

  // The byte budget alone also evicts: one oversized payload cannot wedge
  // the tier above its budget.
  store.put(key_of("big"), std::string(2 * budget, 'x'));
  EXPECT_LE(store.memory_bytes(), budget);
}

TEST_F(CacheDirFixture, OffModeBypassesBothTiers) {
  set_mode(Mode::Off);
  Store& store = Store::global();
  const CacheKey key = key_of("off");
  store.put(key, "never stored");
  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(store.memory_entries(), 0u);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
}

TEST_F(CacheDirFixture, ReadOnlyModeReadsButNeverWrites) {
  Store& store = Store::global();
  const CacheKey seeded = key_of("seeded");
  store.put(seeded, "from rw");  // seed the disk tier in rw mode
  store.clear_memory();

  set_mode(Mode::ReadOnly);
  const CacheKey fresh = key_of("fresh");
  store.put(fresh, "dropped");
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(fresh)));
  const auto hit = store.get(seeded);  // disk reads still work
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "from rw");
}

TEST_F(CacheDirFixture, ArmedFaultHarnessBypassesTheCache) {
  Store& store = Store::global();
  const CacheKey key = key_of("faulty");
  store.put(key, "cached before arming");
  fault::configure("io.open:0");  // armed, even at probability 0
  EXPECT_FALSE(store.get(key).has_value());
  store.put(key_of("while-armed"), "dropped");
  fault::clear();
  EXPECT_TRUE(store.get(key).has_value());
  EXPECT_FALSE(store.get(key_of("while-armed")).has_value());
}

TEST_F(CacheDirFixture, ArmedFaultBypassCountsBypassNotHitOrMiss) {
  Store& store = Store::global();
  const CacheKey key = key_of("bypass-metrics");
  store.put(key, "payload");
  obs::set_enabled(true);
  auto& bypass = obs::registry().counter("cache.bypass");
  auto& hit = obs::registry().counter("cache.hit");
  auto& miss = obs::registry().counter("cache.miss");
  const int64_t bypass0 = bypass.value(), hit0 = hit.value(), miss0 = miss.value();
  fault::configure("io.open:0");
  EXPECT_FALSE(store.get(key).has_value());
  store.put(key_of("bypass-put"), "dropped");
  fault::clear();
  obs::set_enabled(false);
  EXPECT_EQ(bypass.value(), bypass0 + 2);  // one get + one put
  EXPECT_EQ(hit.value(), hit0);
  EXPECT_EQ(miss.value(), miss0);
}

// Concurrent get/put from exec workers at a pinned thread count; TSan
// builds (scripts/check_tsan.sh) run this with race detection.
TEST_F(CacheDirFixture, ConcurrentLookupsAreRaceFree) {
  exec::set_threads(8);
  Store& store = Store::global();
  const int kItems = 64;
  exec::parallel_for(kItems, [&](size_t i) {
    const CacheKey key = key_of("concurrent-" + std::to_string(i % 8));
    const std::string payload = "payload-" + std::to_string(i % 8);
    store.put(key, payload);
    const auto hit = store.get(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);
  });
  exec::set_threads(0);
  for (int g = 0; g < 8; ++g) {
    const auto hit = store.get(key_of("concurrent-" + std::to_string(g)));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "payload-" + std::to_string(g));
  }
}

// ---------------------------------------------------------------------------
// Provenance manifests, the Tracked capture scope, and the invalidation
// engine (cache/manifest.hpp, cache/invalidate.hpp).
// ---------------------------------------------------------------------------

CacheKey fill_key(const std::string& kind, char fill) {
  return CacheKey{kind, std::string(64, fill)};
}

TEST(ManifestCodec, RoundTripPreservesEverything) {
  Manifest m;
  m.key = fill_key("fit", 'a');
  m.facets = {{"tech", "65nm@nominal", std::string(64, 'b')},
              {"corner", "nominal", "nominal|1|1|1|1|1|1|25|1"},
              {"params", "fit", std::string(64, 'c')}};
  m.upstream = {fill_key("fit", 'd'), fill_key("buffering", 'e')};
  m.cost_ns = 123456789;
  const std::string image = encode_manifest(m);
  const auto decoded = decode_manifest(image);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().key.kind, m.key.kind);
  EXPECT_EQ(decoded.value().key.hex, m.key.hex);
  EXPECT_EQ(decoded.value().facets, m.facets);
  ASSERT_EQ(decoded.value().upstream.size(), 2u);
  EXPECT_EQ(decoded.value().upstream[0].hex, m.upstream[0].hex);
  EXPECT_EQ(decoded.value().upstream[1].kind, "buffering");
  EXPECT_EQ(decoded.value().cost_ns, m.cost_ns);

  // Tampering is a named parse failure, never a crash.
  EXPECT_FALSE(decode_manifest("").ok());
  EXPECT_FALSE(decode_manifest("garbage\n").ok());
  EXPECT_FALSE(decode_manifest(image.substr(0, image.size() / 2)).ok());
}

TEST(TrackedScope, FacetCaptureAndNestedPublish) {
  clear_artifact_registry();
  Tracked outer;
  CacheKey inner_key;
  {
    Tracked inner;
    KeyBuilder kb("fit");
    kb.facet("tech", "65nm@nominal", std::string(64, 'a'));
    kb.field("samples", 1000);
    inner_key = kb.finish();
    // facet() recorded the typed input; finish() rolled the loose field
    // into one "params" facet and stamped the cache format version.
    bool tech = false, params = false, format = false;
    for (const Facet& f : inner.facets()) {
      if (f.type == "tech" && f.name == "65nm@nominal") tech = true;
      if (f.type == "params") params = true;
      if (f.type == "format") format = true;
    }
    EXPECT_TRUE(tech);
    EXPECT_TRUE(params);
    EXPECT_TRUE(format);
    const Manifest m = inner.manifest(inner_key);
    EXPECT_EQ(m.key.hex, inner_key.hex);
    EXPECT_EQ(m.facets, inner.facets());
    // publish() reports the finished artifact to the PARENT scope: this
    // is the upstream edge a consuming wrapper's manifest records.
    inner.publish(inner_key);
    EXPECT_TRUE(inner.upstream_keys().empty());
  }
  ASSERT_EQ(outer.upstream_keys().size(), 1u);
  EXPECT_EQ(outer.upstream_keys()[0].hex, inner_key.hex);
}

TEST(ArtifactRegistry, ResolvesTokensEmbeddedInSignatures) {
  clear_artifact_registry();
  const std::string token(64, 'd');
  const CacheKey key = fill_key("fit", 'e');
  register_artifact(token, key);
  // Composite signatures (e.g. WorstCornerModel's) embed the token in
  // surrounding text; substring resolution still finds it.
  const auto hits = resolve_artifacts("worst(nominal=proposed/65nm/" + token + ")");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].hex, key.hex);
  EXPECT_TRUE(resolve_artifacts("no tokens here").empty());
  clear_artifact_registry();
  EXPECT_TRUE(resolve_artifacts(token).empty());
}

TEST_F(CacheDirFixture, PutWritesManifestSidecarWithTheEntry) {
  Store& store = Store::global();
  Tracked scope;
  KeyBuilder kb("fit");
  kb.facet("tech", "t@nominal", std::string(64, '1'));
  const CacheKey key = kb.finish();
  store.put(key, "payload");
  ASSERT_TRUE(std::filesystem::exists(store.manifest_path(key)));
  std::ifstream in(store.manifest_path(key), std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const auto m = decode_manifest(image);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().key.hex, key.hex);
  EXPECT_EQ(m.value().facets, scope.facets());
}

TEST_F(CacheDirFixture, EntryWithoutManifestFailsOpenAsCorrupt) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("no-sidecar");
  store.put(key, "payload");
  store.clear_memory();
  std::filesystem::remove(store.manifest_path(key));
  const int64_t before = obs::registry().counter("cache.corrupt").value();
  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(obs::registry().counter("cache.corrupt").value(), before + 1);
  // rw mode scrubs the damaged pair so a recompute can re-register it.
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
  obs::set_enabled(false);
}

TEST_F(CacheDirFixture, ManifestWriteFailureDowngradesToFullEntryMiss) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("sidecar-blocked");
  // Occupy the sidecar path with a directory: the atomic rename cannot
  // land, so the put must skip the entry file too — the disk tier never
  // holds an entry without provenance.
  std::filesystem::create_directories(store.manifest_path(key));
  const int64_t before = obs::registry().counter("cache.manifest.fail").value();
  store.put(key, "payload");
  EXPECT_EQ(obs::registry().counter("cache.manifest.fail").value(), before + 1);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
  store.clear_memory();
  EXPECT_FALSE(store.get(key).has_value());
  obs::set_enabled(false);
}

TEST_F(CacheDirFixture, MemoryTierBytesIncludeManifestSidecar) {
  Store& store = Store::global();
  const CacheKey key = key_of("bytes");
  store.put(key, "0123456789");  // outside a scope: empty manifest, still encoded
  const std::string image = encode_manifest(Manifest{key, {}, {}, 0});
  EXPECT_EQ(store.memory_bytes(), 10u + image.size());
}

TEST_F(CacheDirFixture, LruBudgetCountsManifestBytes) {
  Store store(Store::Options{/*max_memory_bytes=*/256, /*max_memory_entries=*/64,
                             /*disk_dir=*/dir_});
  Tracked scope;
  for (int i = 0; i < 6; ++i)
    scope.facet({"tech", "corner-" + std::to_string(i),
                 std::string(64, static_cast<char>('a' + i))});
  // Six 16-byte payloads (96 bytes) fit the budget on their own; their
  // sidecars (several hundred bytes each) do not, so the byte-accounting
  // fix must evict.
  for (int i = 0; i < 6; ++i)
    store.put(key_of("lru-manifest-" + std::to_string(i)), std::string(16, 'x'));
  EXPECT_LE(store.memory_bytes(), 256u);
  EXPECT_LT(store.memory_entries(), 6u);
}

TEST(DirtyCone, DirectFacetMatchAndUpstreamPropagation) {
  Manifest fit_nom;
  fit_nom.key = fill_key("fit", 'a');
  fit_nom.facets = {{"tech", "65nm@nominal", "hash-old"},
                    {"corner", "nominal", "id-nom"}};
  Manifest fit_ss;
  fit_ss.key = fill_key("fit", 'b');
  fit_ss.facets = {{"tech", "65nm@ss", "hash-ss"}, {"corner", "ss", "id-ss"}};
  Manifest buf;
  buf.key = fill_key("buffering", 'c');
  buf.facets = {{"params", "buffering", "p"}};
  buf.upstream = {fit_nom.key};
  Manifest mc;
  mc.key = fill_key("yield", 'd');
  mc.facets = {{"corner", "nominal", "id-nom"}, {"samples", "mc", "500/2026"}};
  mc.upstream = {fit_nom.key};
  const std::vector<Manifest> manifests = {fit_nom, fit_ss, buf, mc};

  const auto contains = [](const std::vector<CacheKey>& keys, const CacheKey& k) {
    for (const CacheKey& key : keys)
      if (key.kind == k.kind && key.hex == k.hex) return true;
    return false;
  };

  // A nominal-corner tech edit dirties the fit directly and, through
  // upstream edges, the buffering search and Monte-Carlo run built on
  // it; the ss-corner fit is untouched.
  DirtyCone cone = dirty_cone(manifests, {{"tech", "65nm@nominal", "hash-NEW"}});
  EXPECT_EQ(cone.dirty.size(), 3u);
  EXPECT_TRUE(contains(cone.dirty, fit_nom.key));
  EXPECT_TRUE(contains(cone.dirty, buf.key));
  EXPECT_TRUE(contains(cone.dirty, mc.key));
  ASSERT_EQ(cone.reuse.size(), 1u);
  EXPECT_TRUE(contains(cone.reuse, fit_ss.key));

  // Same (type, name, id) is an unchanged input: nothing is dirty.
  cone = dirty_cone(manifests, {{"tech", "65nm@nominal", "hash-old"}});
  EXPECT_TRUE(cone.dirty.empty());
  EXPECT_EQ(cone.reuse.size(), 4u);

  // A single-corner retune dirties exactly that corner's cone.
  cone = dirty_cone(manifests, {{"corner", "ss", "id-ss-NEW"}});
  ASSERT_EQ(cone.dirty.size(), 1u);
  EXPECT_TRUE(contains(cone.dirty, fit_ss.key));

  // A (type, name) no manifest consumed is irrelevant to all of them.
  cone = dirty_cone(manifests, {{"corner", "ff", "whatever"}});
  EXPECT_TRUE(cone.dirty.empty());
  EXPECT_EQ(cone.reuse.size(), 4u);
}

TEST_F(CacheDirFixture, ScanManifestsAndEvictKeys) {
  Store& store = Store::global();
  CacheKey keys[3];
  for (int i = 0; i < 3; ++i) {
    Tracked scope;
    KeyBuilder kb("fit");
    kb.facet("tech", "t@c" + std::to_string(i), std::string(64, '0'));
    keys[i] = kb.finish();
    store.put(keys[i], "payload-" + std::to_string(i));
  }
  EXPECT_EQ(scan_manifests(dir_).size(), 3u);
  const size_t removed = evict_keys(store, {keys[0], keys[2]});
  EXPECT_EQ(removed, 2u);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(keys[0])));
  EXPECT_FALSE(std::filesystem::exists(store.manifest_path(keys[0])));
  EXPECT_FALSE(store.get(keys[0]).has_value());
  EXPECT_TRUE(store.get(keys[1]).has_value());
  EXPECT_EQ(scan_manifests(dir_).size(), 1u);
  // Evicting an absent key is a no-op, not an error.
  EXPECT_EQ(evict_keys(store, {keys[0]}), 0u);
}

TEST_F(CacheDirFixture, CacheStatsCensusPerKind) {
  Store& store = Store::global();
  store.put(fill_key("fit", '1'), "aaaa");
  store.put(fill_key("fit", '2'), "bbbbbbbb");
  store.put(fill_key("yield", '3'), "cc");
  const std::vector<KindStats> stats = cache_stats(dir_);
  ASSERT_EQ(stats.size(), 2u);  // kind-sorted
  EXPECT_EQ(stats[0].kind, "fit");
  EXPECT_EQ(stats[0].entries, 2u);
  EXPECT_GT(stats[0].payload_bytes, 0u);
  EXPECT_GT(stats[0].manifest_bytes, 0u);
  EXPECT_EQ(stats[1].kind, "yield");
  EXPECT_EQ(stats[1].entries, 1u);
}

TEST_F(CacheDirFixture, PruneRemovesOldestPairsFirst) {
  Store& store = Store::global();
  const CacheKey old_key = fill_key("fit", '1');
  const CacheKey new_key = fill_key("fit", '2');
  store.put(old_key, std::string(100, 'o'));
  store.put(new_key, std::string(100, 'n'));
  // Age the first pair well behind the second.
  const auto stale = std::filesystem::last_write_time(store.entry_path(new_key)) -
                     std::chrono::hours(1);
  std::filesystem::last_write_time(store.entry_path(old_key), stale);
  std::filesystem::last_write_time(store.manifest_path(old_key), stale);
  const size_t budget = std::filesystem::file_size(store.entry_path(new_key)) +
                        std::filesystem::file_size(store.manifest_path(new_key));
  const PruneResult pruned = prune_cache(dir_, budget);
  EXPECT_EQ(pruned.scanned_entries, 2u);
  EXPECT_EQ(pruned.removed_entries, 1u);
  EXPECT_LE(pruned.kept_bytes, budget);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(old_key)));
  EXPECT_FALSE(std::filesystem::exists(store.manifest_path(old_key)));
  EXPECT_TRUE(std::filesystem::exists(store.entry_path(new_key)));
  // Pruning to zero empties the cache entirely.
  EXPECT_EQ(prune_cache(dir_, 0).removed_entries, 1u);
  EXPECT_TRUE(cache_stats(dir_).empty());
}

TEST_F(CacheDirFixture, VerifyScrubsOrphansAndCorruptPairs) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey good = fill_key("fit", '1');
  const CacheKey orphan = fill_key("fit", '2');
  const CacheKey bare = fill_key("fit", '3');
  const CacheKey corrupt = fill_key("fit", '4');
  for (const CacheKey* k : {&good, &orphan, &bare, &corrupt})
    store.put(*k, "payload");
  std::filesystem::remove(store.entry_path(orphan));     // manifest without entry
  std::filesystem::remove(store.manifest_path(bare));    // entry without manifest
  {
    std::ofstream out(store.manifest_path(corrupt), std::ios::trunc);
    out << "not a manifest\n";
  }
  const int64_t before = obs::registry().counter("cache.corrupt").value();
  const VerifyResult v = verify_cache(dir_);
  EXPECT_EQ(v.entries, 3u);
  EXPECT_EQ(v.manifests, 3u);
  EXPECT_EQ(v.orphan_manifests, 1u);
  EXPECT_EQ(v.unmanifested_entries, 1u);
  EXPECT_EQ(v.corrupt_manifests, 1u);
  EXPECT_EQ(v.scrubbed(), 3u);
  EXPECT_EQ(obs::registry().counter("cache.corrupt").value(), before + 3);
  // Only the consistent pair survives; a second pass is clean.
  EXPECT_TRUE(std::filesystem::exists(store.entry_path(good)));
  EXPECT_TRUE(std::filesystem::exists(store.manifest_path(good)));
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(bare)));
  EXPECT_FALSE(std::filesystem::exists(store.manifest_path(orphan)));
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(corrupt)));
  EXPECT_EQ(verify_cache(dir_).scrubbed(), 0u);
  obs::set_enabled(false);
}

// End-to-end bit-identity of the cached flows, on a reduced deck so the
// cold pass stays fast. One fixture characterizes once; every case then
// proves warm == cold byte for byte.
class CachedFlowsFixture : public CacheDirFixture {
 protected:
  static CharacterizationOptions char_options() {
    CharacterizationOptions copt;
    copt.drives = {2, 8, 32};
    copt.buffers = false;
    return copt;
  }
  static CompositionOptions comp_options() {
    CompositionOptions comp;
    comp.drives = {8, 32};
    comp.segment_lengths = {0.5e-3, 1.5e-3};
    comp.input_slews = {50e-12, 300e-12};
    comp.chain_lengths = {1, 3};
    return comp;
  }
  static LinkContext ctx() {
    LinkContext c;
    c.length = 3 * mm;
    c.input_slew = 100 * ps;
    c.frequency = technology(TechNode::N65).clock_frequency;
    return c;
  }
};

TEST_F(CachedFlowsFixture, FitBufferingAndYieldHitsAreBitIdentical) {
  const TechnologyFit cold =
      calibrated_fit(TechNode::N65, "", char_options(), comp_options());
  // Fresh memory tier: the warm pass must come from the disk entry.
  Store::global().clear_memory();
  const TechnologyFit warm =
      calibrated_fit(TechNode::N65, "", char_options(), comp_options());
  EXPECT_EQ(write_fit(warm), write_fit(cold));

  // A different deck parameter is a different key — no false sharing.
  CompositionOptions other = comp_options();
  other.chain_lengths = {1, 2};
  const TechnologyFit refit =
      calibrated_fit(TechNode::N65, "", char_options(), other);
  EXPECT_NE(write_fit(refit), write_fit(cold));

  const ProposedModel model(technology(TechNode::N65), cold);
  BufferingOptions opt;
  opt.weight = 0.5;
  const BufferingResult buf_cold = optimize_buffering_cached(model, ctx(), opt);
  Store::global().clear_memory();
  const BufferingResult buf_warm = optimize_buffering_cached(model, ctx(), opt);
  EXPECT_EQ(buf_warm.feasible, buf_cold.feasible);
  EXPECT_EQ(buf_warm.design.kind, buf_cold.design.kind);
  EXPECT_EQ(buf_warm.design.drive, buf_cold.design.drive);
  EXPECT_EQ(buf_warm.design.num_repeaters, buf_cold.design.num_repeaters);
  EXPECT_EQ(buf_warm.cost, buf_cold.cost);  // EQ, not NEAR: bit-identical
  EXPECT_EQ(buf_warm.estimate.delay, buf_cold.estimate.delay);
  EXPECT_EQ(buf_warm.evaluations, buf_cold.evaluations);
  // The warm search ran zero model evaluations — it was a lookup.
  const BufferingResult direct = optimize_buffering(model, ctx(), opt);
  EXPECT_EQ(buf_warm.cost, direct.cost);

  LinkDesign design = buf_cold.design;
  const MonteCarloResult mc_cold =
      monte_carlo_link_cached(model, ctx(), design, 500, 2026);
  Store::global().clear_memory();
  const MonteCarloResult mc_warm =
      monte_carlo_link_cached(model, ctx(), design, 500, 2026);
  EXPECT_EQ(mc_warm.delays, mc_cold.delays);  // exact vector equality
  EXPECT_EQ(mc_warm.nominal_delay, mc_cold.nominal_delay);
  EXPECT_EQ(mc_warm.mean_delay, mc_cold.mean_delay);
  EXPECT_EQ(mc_warm.sigma_delay, mc_cold.sigma_delay);
  EXPECT_EQ(mc_warm.mean_power, mc_cold.mean_power);
  EXPECT_EQ(mc_warm.failed_samples, mc_cold.failed_samples);
  // And equals the uncached computation (the cache is transparent).
  const MonteCarloResult direct_mc = monte_carlo_link(model, ctx(), design, 500, 2026);
  EXPECT_EQ(mc_warm.delays, direct_mc.delays);

  // A different seed/sample-count is a different key.
  const MonteCarloResult other_seed =
      monte_carlo_link_cached(model, ctx(), design, 500, 2027);
  EXPECT_NE(other_seed.delays, mc_cold.delays);
}

TEST_F(CachedFlowsFixture, WrappersRecordProvenanceAndConesPropagate) {
  clear_artifact_registry();
  const TechnologyFit fit =
      calibrated_fit(TechNode::N65, "", char_options(), comp_options());
  const ProposedModel model(technology(TechNode::N65), fit);
  BufferingOptions opt;
  opt.weight = 0.5;
  const BufferingResult buf = optimize_buffering_cached(model, ctx(), opt);
  (void)monte_carlo_link_cached(model, ctx(), buf.design, 200, 2026);

  const std::vector<Manifest> manifests = scan_manifests(dir_);
  ASSERT_EQ(manifests.size(), 3u);
  const Manifest* fit_m = nullptr;
  const Manifest* buf_m = nullptr;
  const Manifest* mc_m = nullptr;
  for (const Manifest& m : manifests) {
    if (m.key.kind == "fit") fit_m = &m;
    if (m.key.kind == "buffering") buf_m = &m;
    if (m.key.kind == "yield") mc_m = &m;
  }
  ASSERT_NE(fit_m, nullptr);
  ASSERT_NE(buf_m, nullptr);
  ASSERT_NE(mc_m, nullptr);

  const auto facet_types = [](const Manifest& m) {
    std::vector<std::string> out;
    for (const Facet& f : m.facets) out.push_back(f.type);
    return out;
  };
  const auto has = [](const std::vector<std::string>& v, const char* s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  // The fit consumed the derated tech content and the corner identity.
  EXPECT_TRUE(has(facet_types(*fit_m), "tech"));
  EXPECT_TRUE(has(facet_types(*fit_m), "corner"));
  EXPECT_TRUE(has(facet_types(*fit_m), "format"));
  // Buffering and Monte-Carlo both derived from the cached fit: the
  // model signature's coefficient token resolved to its artifact key.
  ASSERT_EQ(buf_m->upstream.size(), 1u);
  EXPECT_EQ(buf_m->upstream[0].hex, fit_m->key.hex);
  ASSERT_EQ(mc_m->upstream.size(), 1u);
  EXPECT_EQ(mc_m->upstream[0].hex, fit_m->key.hex);
  EXPECT_TRUE(has(facet_types(*mc_m), "samples"));
  EXPECT_TRUE(has(facet_types(*mc_m), "corner"));

  // Unchanged inputs: the facets the live technology produces match the
  // ones the manifests recorded, so everything is reusable. This is the
  // consistency contract between fit_cache_key and technology_facets.
  DirtyCone cone =
      dirty_cone(manifests, technology_facets(technology(TechNode::N65)));
  EXPECT_TRUE(cone.dirty.empty());
  EXPECT_EQ(cone.reuse.size(), 3u);

  // A nominal-corner tech edit dirties the fit and drags the buffering
  // search and the Monte-Carlo run through the upstream edges.
  std::vector<Facet> edited;
  for (const Facet& f : fit_m->facets)
    if (f.type == "tech") edited.push_back({f.type, f.name, "edited:" + f.id});
  ASSERT_FALSE(edited.empty());
  cone = dirty_cone(manifests, edited);
  EXPECT_EQ(cone.dirty.size(), 3u);
  EXPECT_TRUE(cone.reuse.empty());

  // Retuning a corner this flow never touched dirties nothing.
  cone = dirty_cone(manifests, {{"corner", "ss", "retuned-id"}});
  EXPECT_TRUE(cone.dirty.empty());
}

// The incremental contract: after an edit invalidates a cone, the warm
// rerun rebuilds exactly the stale artifacts and the results are
// bit-identical to a cold rerun at ANY thread count. TSan builds
// (scripts/check_tsan.sh) run this with race detection.
TEST_F(CachedFlowsFixture, IncrementalRecomputeIsBitIdenticalAcrossThreads) {
  const TechnologyFit cold_fit =
      calibrated_fit(TechNode::N65, "", char_options(), comp_options());
  const ProposedModel cold_model(technology(TechNode::N65), cold_fit);
  BufferingOptions opt;
  opt.weight = 0.5;
  const BufferingResult cold_buf = optimize_buffering_cached(cold_model, ctx(), opt);
  const MonteCarloResult cold_mc =
      monte_carlo_link_cached(cold_model, ctx(), cold_buf.design, 200, 2026);

  for (const int threads : {1, 2, 8}) {
    exec::set_threads(threads);
    // Evict the full cone, as `pim cache invalidate` would after a tech
    // edit, then recompute warm.
    std::vector<CacheKey> stale;
    for (const Manifest& m : scan_manifests(dir_)) stale.push_back(m.key);
    evict_keys(Store::global(), stale);
    const TechnologyFit refit =
        calibrated_fit(TechNode::N65, "", char_options(), comp_options());
    EXPECT_EQ(write_fit(refit), write_fit(cold_fit)) << "threads=" << threads;
    const ProposedModel model(technology(TechNode::N65), refit);
    const BufferingResult rebuf = optimize_buffering_cached(model, ctx(), opt);
    EXPECT_EQ(rebuf.cost, cold_buf.cost) << "threads=" << threads;
    EXPECT_EQ(rebuf.design.num_repeaters, cold_buf.design.num_repeaters);
    EXPECT_EQ(rebuf.estimate.delay, cold_buf.estimate.delay);
    const MonteCarloResult remc =
        monte_carlo_link_cached(model, ctx(), rebuf.design, 200, 2026);
    EXPECT_EQ(remc.delays, cold_mc.delays) << "threads=" << threads;
    EXPECT_EQ(remc.mean_delay, cold_mc.mean_delay);
    EXPECT_EQ(remc.sigma_delay, cold_mc.sigma_delay);
  }
  exec::set_threads(0);
}

// Resident noise calibration (api::run_noise): the six calibration decks
// run once per fit, and a warm request reuses the stored kappa_n. The
// fit comes from a reduced-deck coefficient file, so every transient
// these tests count is a noise deck. The memo is process-wide, so each
// test that may fill it uses a node no other test fills.
class ResidentNoiseFixture : public CachedFlowsFixture {
 protected:
  void SetUp() override {
    CachedFlowsFixture::SetUp();
    coeffs_ = dir_ + ".pimfit";
    obs::set_enabled(true);
  }
  void TearDown() override {
    fault::clear();
    obs::set_enabled(false);
    obs::registry().reset();
    std::filesystem::remove(coeffs_);
    CachedFlowsFixture::TearDown();
  }
  api::NoiseRequest request(TechNode node) const {
    save_fit(calibrated_fit(node, "", char_options(), comp_options()), coeffs_);
    api::NoiseRequest req;
    req.link.tech = technology(node).name;
    req.link.length_mm = 1.0;
    req.link.coeffs_path = coeffs_;
    return req;
  }
  // Transient runs of the last api call (each call resets the registry).
  static int64_t runs() { return obs::registry().counter("spice.transient.runs").value(); }

  std::string coeffs_;
};

TEST_F(ResidentNoiseFixture, WarmRequestReusesTheCalibrationByteIdentically) {
  const api::NoiseRequest req = request(TechNode::N65);
  const auto cold = api::run_noise(req);
  ASSERT_TRUE(cold.ok()) << cold.error().what();
  EXPECT_EQ(runs(), 7);  // six calibration decks + the request's own deck
  const auto warm = api::run_noise(req);
  ASSERT_TRUE(warm.ok()) << warm.error().what();
  EXPECT_EQ(runs(), 1);
  EXPECT_EQ(obs::registry().counter("noise.resident.hit").value(), 1);
  EXPECT_EQ(api::wire::to_json(warm.value()), api::wire::to_json(cold.value()));
}

TEST_F(ResidentNoiseFixture, CacheOffAndArmedFaultsBypassTheMemo) {
  const api::NoiseRequest req = request(TechNode::N90);
  set_mode(Mode::Off);
  for (int call = 0; call < 2; ++call) {
    ASSERT_TRUE(api::run_noise(req).ok());
    EXPECT_EQ(runs(), 7) << "cache off, call " << call;
  }
  reset_mode();
  set_mode(Mode::ReadWrite);
  fault::configure("io.open:0");  // armed, never fires
  for (int call = 0; call < 2; ++call) {
    ASSERT_TRUE(api::run_noise(req).ok());
    EXPECT_EQ(runs(), 7) << "fault harness armed, call " << call;
  }
}

TEST_F(ResidentNoiseFixture, DeadlineStoppedCalibrationIsNotMemoized) {
  // Nothing polls the deadline before the calibration region, and its six
  // decks take far longer than 1 ms, so the stop lands inside it.
  const api::NoiseRequest req = request(TechNode::N45);
  api::NoiseRequest rushed = req;
  rushed.deadline_ms = 1;
  const auto stopped = api::run_noise(rushed);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.error().code(), ErrorCode::deadline_exceeded);
  EXPECT_NE(std::string(stopped.error().what()).find("/6 items"), std::string::npos)
      << stopped.error().what();
  ASSERT_TRUE(api::run_noise(req).ok());
  EXPECT_EQ(runs(), 7);
}

}  // namespace
}  // namespace pim::cache
