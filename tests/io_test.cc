// Remote-storage I/O subsystem (src/io/):
//  - BlockCache LRU/eviction/spill behaviour and checksum verification — a
//    corrupted cached block is detected and re-fetched, never served;
//  - IoScheduler request coalescing: concurrent readers of one block cost
//    exactly one backing Get;
//  - LatencyInjectingStore charges per-Get latency (remote semantics);
//  - MsdfReader ranged/cached modes return the same rows as the whole-blob
//    reader;
//  - Session-level byte-identity: cache + read-ahead + injected latency —
//    including eviction-thrashing tiny budgets and the disk spill tier —
//    serve exactly the bytes an uncached session serves (checked against
//    ReferenceDataPlane), and checkpoint resume re-warms the read-ahead.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/constructor/reference_assembly.h"
#include "src/data/synthetic.h"
#include "src/io/block_cache.h"
#include "src/io/fault_injecting_store.h"
#include "src/io/io_scheduler.h"
#include "src/io/latency_store.h"
#include "tests/batch_identity.h"
#include "tests/scratch_dir.h"

namespace msd {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<const std::string> Block(char fill, size_t n) {
  return std::make_shared<const std::string>(std::string(n, fill));
}

TEST(BlockCacheTest, LruEvictionAndStats) {
  BlockCache::Config config;
  config.capacity_bytes = 64;
  config.shards = 1;
  BlockCache cache(config);
  BlockKey a{"f", 0, 32};
  BlockKey b{"f", 32, 32};
  BlockKey c{"f", 64, 32};
  cache.Insert(a, Block('a', 32));
  cache.Insert(b, Block('b', 32));
  ASSERT_NE(cache.Lookup(a), nullptr);  // touches a: b becomes LRU
  cache.Insert(c, Block('c', 32));      // 96 > 64: evicts b
  EXPECT_EQ(cache.Lookup(b), nullptr);
  ASSERT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(*cache.Lookup(c), std::string(32, 'c'));
  BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_GE(stats.hits, 3);
  EXPECT_EQ(stats.resident_bytes, 64);
}

TEST(BlockCacheTest, SpillTierRoundTrip) {
  const std::string dir = testing::ScratchDir("spill");
  ObjectStore spill(dir);
  BlockCache::Config config;
  config.capacity_bytes = 48;
  config.shards = 1;
  config.spill = &spill;
  BlockCache cache(config);
  BlockKey a{"f", 0, 32};
  BlockKey b{"f", 32, 32};
  cache.Insert(a, Block('a', 32));
  cache.Insert(b, Block('b', 32));  // 64 > 48: a spills to disk
  EXPECT_EQ(cache.stats().spill_writes, 1);
  // The spilled block comes back checksum-verified and is promoted.
  std::shared_ptr<const std::string> restored = cache.Lookup(a);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(*restored, std::string(32, 'a'));
  EXPECT_EQ(cache.stats().spill_hits, 1);
  // The promotion displaced b in turn; it round-trips from the tier too.
  ASSERT_NE(cache.Lookup(b), nullptr);
  EXPECT_EQ(cache.stats().spill_hits, 2);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(BlockCacheTest, CorruptedResidentBlockReadsAsMiss) {
  BlockCache::Config config;
  config.capacity_bytes = 1024;
  config.shards = 1;
  BlockCache cache(config);
  BlockKey key{"f", 0, 64};
  cache.Insert(key, Block('x', 64));
  ASSERT_TRUE(cache.CorruptResidentBlockForTest(key));
  EXPECT_EQ(cache.Lookup(key), nullptr);  // detected, dropped, miss
  EXPECT_EQ(cache.stats().corruptions, 1);
  // A fresh insert (the re-fetch) serves clean bytes again.
  cache.Insert(key, Block('x', 64));
  ASSERT_NE(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.stats().corruptions, 1);
}

TEST(LatencyStoreTest, ChargesPerGetLatency) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("f", std::string(1024, 'x')).ok());
  RemoteStorageParams params;
  params.get_latency = 5 * kMillisecond;
  params.bandwidth_bytes_per_sec = 0;  // isolate the latency term
  LatencyInjectingStore remote(&base, params);
  auto t0 = std::chrono::steady_clock::now();
  Result<std::string> bytes = remote.Get("f", 0, 512);
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), 512u);
  EXPECT_GE(elapsed_ms, 4.5);
  EXPECT_EQ(remote.gets(), 1);
  EXPECT_EQ(remote.bytes_served(), 512);
  // Metadata ops are free: no Get charged.
  EXPECT_EQ(remote.SizeOf("f").value(), 1024);
  EXPECT_TRUE(remote.Exists("f"));
  EXPECT_EQ(remote.gets(), 1);
}

TEST(IoSchedulerTest, ConcurrentRequestsCoalesceToOneBackingGet) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("f", std::string(4096, 'q')).ok());
  RemoteStorageParams params;
  params.get_latency = 20 * kMillisecond;  // wide in-flight window
  params.bandwidth_bytes_per_sec = 0;
  LatencyInjectingStore remote(&base, params);
  BlockCache cache(BlockCache::Config{});
  IoScheduler io(&remote, &cache, IoScheduler::Config{});
  // Second request lands while the first's Get is sleeping: it must join the
  // in-flight read, not issue its own.
  auto first = io.Fetch("f", 0, 4096);
  auto second = io.Fetch("f", 0, 4096);
  ASSERT_TRUE(first.get().ok());
  ASSERT_TRUE(second.get().ok());
  EXPECT_EQ(*first.get().value(), *second.get().value());
  EXPECT_EQ(remote.gets(), 1);  // exactly one backing Get
  IoScheduler::Stats stats = io.stats();
  EXPECT_EQ(stats.issued_gets, 1);
  EXPECT_EQ(stats.coalesced, 1);
  // A third request after completion is a pure cache hit.
  ASSERT_TRUE(io.ReadBlock("f", 0, 4096).ok());
  EXPECT_EQ(remote.gets(), 1);
  EXPECT_GE(io.stats().cache_hits, 1);
}

TEST(IoSchedulerTest, CorruptedCachedBlockIsDetectedAndRefetched) {
  ObjectStore base;
  const std::string payload(256, 'p');
  ASSERT_TRUE(base.Put("f", payload).ok());
  BlockCache cache(BlockCache::Config{});
  IoScheduler io(&base, &cache, IoScheduler::Config{});
  IoScheduler::BlockResult first = io.ReadBlock("f", 0, 256);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(cache.CorruptResidentBlockForTest(BlockKey{"f", 0, 256}));
  // The checksum catches the flip; the scheduler re-fetches authoritative
  // bytes instead of serving poison.
  IoScheduler::BlockResult second = io.ReadBlock("f", 0, 256);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second.value(), payload);
  EXPECT_EQ(cache.stats().corruptions, 1);
  EXPECT_EQ(io.stats().issued_gets, 2);
}

// ---------------------------------------------------------------------------
// Chaos plane: deterministic fault injection + retry/hedge error paths.
// ---------------------------------------------------------------------------

// Minimal test decorator: forwards the read-path virtuals to `base`. Only the
// members the IoScheduler/MsdfReader path touches are forwarded; the rest are
// unused in these tests.
class ForwardingStore : public ObjectStore {
 public:
  explicit ForwardingStore(ObjectStore* base) : base_(base) {}
  Result<std::string> Get(const std::string& name, int64_t offset,
                          int64_t length) const override {
    return base_->Get(name, offset, length);
  }
  Result<int64_t> SizeOf(const std::string& name) const override {
    return base_->SizeOf(name);
  }
  bool Exists(const std::string& name) const override { return base_->Exists(name); }
  Result<FileHandle> Open(const std::string& name,
                          MemoryAccountant::NodeId node) const override {
    return base_->Open(name, node);
  }

 protected:
  ObjectStore* base_;
};

TEST(FaultStoreTest, DeterministicScheduleReplaysIdentically) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("data/f0", std::string(8192, 'a')).ok());
  FaultSchedule schedule;
  schedule.seed = 42;
  schedule.unavailable_p = 0.3;
  schedule.deadline_p = 0.2;
  auto verdicts = [&] {
    FaultInjectingStore store(&base, schedule);
    std::vector<StatusCode> codes;
    for (int64_t offset = 0; offset < 8192; offset += 1024) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        codes.push_back(store.Get("data/f0", offset, 1024).status().code());
      }
    }
    return codes;
  };
  std::vector<StatusCode> first = verdicts();
  EXPECT_EQ(first, verdicts());  // same seed, same sequence => same faults
  // The schedule actually fired a mix of verdicts, not all-pass/all-fail.
  int faults = 0;
  for (StatusCode code : first) {
    faults += code != StatusCode::kOk ? 1 : 0;
  }
  EXPECT_GT(faults, 0);
  EXPECT_LT(faults, static_cast<int>(first.size()));
}

TEST(FaultStoreTest, FailFirstNHealsPerRangeAndTargetingScopesFaults) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("flaky/f", std::string(4096, 'x')).ok());
  ASSERT_TRUE(base.Put("healthy/f", std::string(4096, 'y')).ok());
  FaultSchedule schedule;
  schedule.fail_first_n = 2;
  schedule.match_substr = "flaky";
  FaultInjectingStore store(&base, schedule);
  // First two attempts on the range fail, the third succeeds.
  EXPECT_EQ(store.Get("flaky/f", 0, 4096).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.Get("flaky/f", 0, 4096).status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store.Get("flaky/f", 0, 4096).ok());
  // A different range of the same object counts its own attempts.
  EXPECT_EQ(store.Get("flaky/f", 0, 2048).status().code(), StatusCode::kUnavailable);
  // Non-matching names are never faulted; metadata ops are never faulted.
  EXPECT_TRUE(store.Get("healthy/f", 0, 4096).ok());
  EXPECT_TRUE(store.SizeOf("flaky/f").ok());
  EXPECT_EQ(store.faults_injected(), 3);
}

TEST(FaultStoreTest, BrownoutFailsMatchingGetsUntilLifted) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("f", std::string(1024, 'z')).ok());
  FaultSchedule schedule;
  schedule.install = true;  // no probabilistic faults; scripted only
  ASSERT_TRUE(schedule.enabled());
  FaultInjectingStore store(&base, schedule);
  EXPECT_TRUE(store.Get("f", 0, 1024).ok());
  store.set_brownout(true);
  EXPECT_EQ(store.Get("f", 0, 1024).status().code(), StatusCode::kUnavailable);
  store.set_brownout(false);
  EXPECT_TRUE(store.Get("f", 0, 1024).ok());
  store.BrownoutNextGets(2);
  EXPECT_FALSE(store.Get("f", 0, 1024).ok());
  EXPECT_FALSE(store.Get("f", 0, 512).ok());
  EXPECT_TRUE(store.Get("f", 0, 1024).ok());  // budget exhausted: healed
  EXPECT_EQ(store.brownout_failures(), 3);
}

TEST(FaultStoreTest, CorruptionFlipsExactlyOneBitDeterministically) {
  ObjectStore base;
  const std::string truth(2048, 'm');
  ASSERT_TRUE(base.Put("f", truth).ok());
  FaultSchedule schedule;
  schedule.seed = 7;
  schedule.corrupt_p = 1.0;
  auto corrupt_read = [&] {
    FaultInjectingStore store(&base, schedule);
    Result<std::string> bytes = store.Get("f", 0, 2048);
    EXPECT_TRUE(bytes.ok());
    EXPECT_EQ(store.corruptions_injected(), 1);
    return bytes.value();
  };
  std::string got = corrupt_read();
  EXPECT_EQ(got, corrupt_read());  // same seed => same flipped bit
  int bit_diffs = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    bit_diffs += __builtin_popcount(
        static_cast<unsigned char>(truth[i]) ^ static_cast<unsigned char>(got[i]));
  }
  EXPECT_EQ(bit_diffs, 1);
}

TEST(IoSchedulerTest, FailedGetIsNeverCachedAndNextFetchReissues) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("f", std::string(4096, 'x')).ok());
  FaultSchedule schedule;
  schedule.fail_first_n = 1;
  FaultInjectingStore flaky(&base, schedule);
  BlockCache cache(BlockCache::Config{});
  IoScheduler io(&flaky, &cache, IoScheduler::Config{});  // no retries
  IoScheduler::BlockResult first = io.ReadBlock("f", 0, 4096);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  // Error-path hygiene: the failure was not cached, and the in-flight entry
  // was erased before the waiter observed the error — so the next Fetch
  // re-issues a fresh backing Get instead of joining a dead future.
  EXPECT_EQ(cache.Lookup(BlockKey{"f", 0, 4096}), nullptr);
  EXPECT_EQ(io.stats().failed_gets, 1);
  IoScheduler::BlockResult second = io.ReadBlock("f", 0, 4096);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second.value(), std::string(4096, 'x'));
  EXPECT_EQ(io.stats().issued_gets, 2);
}

TEST(IoSchedulerTest, WaitersCoalescedOntoFailedGetSeeErrorThenRecover) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("flaky/f", std::string(4096, 'x')).ok());
  ASSERT_TRUE(base.Put("plug/f", std::string(4096, 'p')).ok());
  RemoteStorageParams params;
  params.get_latency = 20 * kMillisecond;
  params.bandwidth_bytes_per_sec = 0;
  LatencyInjectingStore remote(&base, params);
  FaultSchedule schedule;
  schedule.fail_first_n = 1;
  schedule.match_substr = "flaky";
  FaultInjectingStore flaky(&remote, schedule);
  BlockCache cache(BlockCache::Config{});
  IoScheduler::Config config;
  config.threads = 1;  // single worker: the plug read serializes the rest
  IoScheduler io(&flaky, &cache, config);
  // Occupy the only worker, then register two fetches for the failing block:
  // the second must coalesce onto the first while both are still queued.
  auto plug = io.Fetch("plug/f", 0, 4096);
  auto f1 = io.Fetch("flaky/f", 0, 4096);
  auto f2 = io.Fetch("flaky/f", 0, 4096);
  EXPECT_FALSE(f1.get().ok());
  EXPECT_FALSE(f2.get().ok());  // both waiters see the same error
  ASSERT_TRUE(plug.get().ok());
  IoScheduler::Stats stats = io.stats();
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.failed_gets, 1);
  EXPECT_EQ(stats.issued_gets, 2);  // plug + the failed flaky read
  // The failed key was fully cleaned up: a retried fetch re-issues and heals.
  IoScheduler::BlockResult healed = io.ReadBlock("flaky/f", 0, 4096);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(io.stats().issued_gets, 3);
}

TEST(IoSchedulerTest, TransientFailuresRetriedWithinBudget) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("f", std::string(4096, 'r')).ok());
  FaultSchedule schedule;
  schedule.fail_first_n = 2;
  schedule.match_substr = "f";  // scope faults to the real object, not "missing"
  FaultInjectingStore flaky(&base, schedule);
  BlockCache cache(BlockCache::Config{});
  IoScheduler::Config config;
  config.retry.max_attempts = 4;
  config.retry.backoff_base_us = 100;  // test-fast
  IoScheduler io(&flaky, &cache, config);
  IoScheduler::BlockResult result = io.ReadBlock("f", 0, 4096);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result.value(), std::string(4096, 'r'));
  IoScheduler::Stats stats = io.stats();
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.retry_successes, 1);
  EXPECT_EQ(stats.retries_exhausted, 0);
  EXPECT_EQ(stats.failed_gets, 0);
  EXPECT_EQ(flaky.gets(), 3);            // two failed attempts + the rescue
  EXPECT_EQ(flaky.faults_injected(), 2);
  // Permanent errors are not retried: NotFound fails on the first attempt.
  IoScheduler::BlockResult missing = io.ReadBlock("missing", 0, 64);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(io.stats().retries, 2);
}

TEST(IoSchedulerTest, RetryBudgetExhaustionSurfacesTransientError) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("f", std::string(1024, 'e')).ok());
  FaultSchedule schedule;
  schedule.fail_first_n = 5;
  FaultInjectingStore flaky(&base, schedule);
  BlockCache cache(BlockCache::Config{});
  IoScheduler::Config config;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_us = 100;
  IoScheduler io(&flaky, &cache, config);
  IoScheduler::BlockResult result = io.ReadBlock("f", 0, 1024);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  IoScheduler::Stats stats = io.stats();
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.retries_exhausted, 1);
  EXPECT_EQ(stats.failed_gets, 1);
  EXPECT_EQ(stats.retry_successes, 0);
  // Attempt counting is per range and monotonic: the next fetch's budget
  // (attempts 4..6) crosses the fail-first-5 threshold and heals.
  IoScheduler::BlockResult healed = io.ReadBlock("f", 0, 1024);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(io.stats().retry_successes, 1);
}

TEST(IoSchedulerTest, InvalidateDropsCachedBlockAndReissues) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("f", std::string(512, 'v')).ok());
  BlockCache cache(BlockCache::Config{});
  IoScheduler io(&base, &cache, IoScheduler::Config{});
  ASSERT_TRUE(io.ReadBlock("f", 0, 512).ok());
  EXPECT_EQ(io.stats().issued_gets, 1);
  io.Invalidate("f", 0, 512);
  EXPECT_EQ(io.stats().invalidations, 1);
  EXPECT_EQ(cache.Lookup(BlockKey{"f", 0, 512}), nullptr);
  ASSERT_TRUE(io.ReadBlock("f", 0, 512).ok());
  EXPECT_EQ(io.stats().issued_gets, 2);  // went back to storage
}

// Stalls the first Get of `target` (and only that one call) so a hedged
// duplicate — the second call — can win the race deterministically.
class StallFirstGetStore final : public ForwardingStore {
 public:
  StallFirstGetStore(ObjectStore* base, std::string target, int64_t stall_ms)
      : ForwardingStore(base), target_(std::move(target)), stall_ms_(stall_ms) {}
  Result<std::string> Get(const std::string& name, int64_t offset,
                          int64_t length) const override {
    if (name == target_ && !stalled_.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
    return base_->Get(name, offset, length);
  }

 private:
  std::string target_;
  int64_t stall_ms_;
  mutable std::atomic<bool> stalled_{false};
};

TEST(IoSchedulerTest, HedgedReadWinsOverStalledPrimary) {
  ObjectStore base;
  ASSERT_TRUE(base.Put("warm", std::string(16 * 1024, 'w')).ok());
  ASSERT_TRUE(base.Put("slow", std::string(4096, 's')).ok());
  StallFirstGetStore store(&base, "slow", /*stall_ms=*/400);
  BlockCache cache(BlockCache::Config{});
  IoScheduler::Config config;
  config.hedge.enabled = true;
  config.hedge.quantile = 0.5;
  config.hedge.min_delay_us = 1000;
  config.hedge.min_samples = 4;
  IoScheduler io(&store, &cache, config);
  // Warm the latency ring with fast primaries so the hedge timer arms.
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(io.ReadBlock("warm", i * 4096, 4096).ok());
  }
  // The primary Get stalls 400 ms; the hedge fires after ~the observed
  // quantile (microseconds) and its duplicate Get returns immediately.
  IoScheduler::BlockResult result = io.ReadBlock("slow", 0, 4096);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result.value(), std::string(4096, 's'));
  IoScheduler::Stats stats = io.stats();
  EXPECT_EQ(stats.hedges_launched, 1);
  EXPECT_EQ(stats.hedges_won, 1);
  // The stalled primary eventually returns and is abandoned, not double-
  // cached; poll briefly since it resolves on its own schedule.
  for (int i = 0; i < 100 && io.stats().abandoned_reads == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(io.stats().abandoned_reads, 1);
}

// Corrupts the first Get of one exact (offset, length) range, once — aimed at
// a known row group so the footer reads pass through clean.
class CorruptOnceStore final : public ForwardingStore {
 public:
  CorruptOnceStore(ObjectStore* base, int64_t offset, int64_t length)
      : ForwardingStore(base), offset_(offset), length_(length) {}
  Result<std::string> Get(const std::string& name, int64_t offset,
                          int64_t length) const override {
    Result<std::string> bytes = base_->Get(name, offset, length);
    if (bytes.ok() && offset == offset_ && length == length_ && !corrupted_.exchange(true)) {
      std::string poisoned = std::move(bytes.value());
      poisoned[poisoned.size() / 2] ^= 0x20;
      return poisoned;
    }
    return bytes;
  }

 private:
  int64_t offset_;
  int64_t length_;
  mutable std::atomic<bool> corrupted_{false};
};

TEST(MsdfReaderTest, StoreCorruptionIsDetectedInvalidatedAndRefetched) {
  ObjectStore store;
  MemoryAccountant memory;
  SourceSpec spec = MakeCoyo700m().sources[0];
  spec.num_files = 1;
  spec.rows_per_file = 48;
  ASSERT_TRUE(
      WriteSourceFiles(store, spec, /*seed=*/7, {.target_row_group_bytes = 8 * kKiB}).ok());
  const std::string name = SourceFileName(spec, 0);
  MsdfReader whole = MsdfReader::Open(store, name, &memory, 0).value();
  const RowGroupMeta& g0 = whole.info().row_groups.at(0);

  CorruptOnceStore corrupting(&store, g0.offset, g0.bytes);
  BlockCache cache(BlockCache::Config{});
  IoScheduler io(&corrupting, &cache, IoScheduler::Config{});
  MsdfReader cached = MsdfReader::OpenCached(&io, name, &memory, 0).value();
  const int64_t footer_gets = io.stats().issued_gets;  // tail + footer body
  // Group 0's first fetch arrives poisoned and is cached poisoned (the cache
  // checksums what it was given). The row-group checksum catches it, the
  // reader invalidates the cache entry, and the refetch serves clean bytes —
  // the poison is never surfaced.
  Result<std::vector<std::string>> rows = cached.ReadRowGroup(0);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value(), whole.ReadRowGroup(0).value());
  EXPECT_EQ(io.stats().invalidations, 1);
  EXPECT_EQ(io.stats().issued_gets, footer_gets + 2);  // poisoned fetch + clean refetch
}

TEST(MsdfReaderTest, RangedAndCachedModesMatchWholeBlobReader) {
  ObjectStore store;
  MemoryAccountant memory;
  SourceSpec spec = MakeCoyo700m().sources[0];
  spec.num_files = 1;
  spec.rows_per_file = 48;
  ASSERT_TRUE(
      WriteSourceFiles(store, spec, /*seed=*/7, {.target_row_group_bytes = 8 * kKiB}).ok());
  const std::string name = SourceFileName(spec, 0);

  MsdfReader whole = MsdfReader::Open(store, name, &memory, 0).value();
  MsdfReader ranged = MsdfReader::OpenRanged(store, name, &memory, 0).value();
  BlockCache cache(BlockCache::Config{});
  IoScheduler io(&store, &cache, IoScheduler::Config{});
  MsdfReader cached = MsdfReader::OpenCached(&io, name, &memory, 0).value();

  ASSERT_GT(whole.info().row_groups.size(), 1u);  // the test must span groups
  ASSERT_EQ(ranged.info().row_groups.size(), whole.info().row_groups.size());
  ASSERT_EQ(cached.info().row_groups.size(), whole.info().row_groups.size());
  for (size_t g = 0; g < whole.info().row_groups.size(); ++g) {
    std::vector<std::string> want = whole.ReadRowGroup(g).value();
    EXPECT_EQ(ranged.ReadRowGroup(g).value(), want);
    EXPECT_EQ(cached.ReadRowGroup(g).value(), want);
  }
  // The cached reader populated the shared cache: footer + every group.
  EXPECT_GE(cache.stats().insertions,
            static_cast<int64_t>(whole.info().row_groups.size()));
}

// ---------------------------------------------------------------------------
// Session-level: the cache must be invisible in the bytes.
// ---------------------------------------------------------------------------

Session::Options IoOptions() {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 2, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 16;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  options.row_group_bytes = 8 * kKiB;  // several groups per file
  return options;
}

using testing::ExpectBatchesIdentical;
using testing::StreamStep;

void ExpectMatchesReference(const PrefetchPipeline::Capture& capture,
                            const ParallelismSpec& spec, int32_t num_microbatches,
                            int32_t max_seq_len, const std::vector<RankBatch>& streamed) {
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, num_microbatches);
  for (int32_t dp = 0; dp < spec.dp; ++dp) {
    DataConstructorConfig config;
    config.constructor_id = dp;
    config.max_seq_len = max_seq_len;
    ReferenceDataPlane reference(config, &tree);
    ASSERT_TRUE(reference
                    .BuildStep(capture.plan,
                               capture.slices_per_constructor[static_cast<size_t>(dp)])
                    .ok());
    for (int32_t rank = 0; rank < spec.WorldSize(); ++rank) {
      if (CoordOfRank(spec, rank).dp != dp) {
        continue;
      }
      Result<RankBatch> want = reference.GetBatch(rank, capture.plan.step);
      ASSERT_TRUE(want.ok());
      ExpectBatchesIdentical(streamed[static_cast<size_t>(rank)], want.value());
    }
  }
}

// Streams `steps` from both sessions, asserting byte-identity per rank and,
// for the cached session, equivalence to the scalar reference plane.
void ExpectCachedMatchesPlain(Session& cached, Session& plain, int64_t steps) {
  const ParallelismSpec spec = cached.tree().spec();
  for (int64_t s = 0; s < steps; ++s) {
    const int64_t step = cached.client(0).value()->next_step();
    Result<PrefetchPipeline::Capture> capture = cached.CaptureStep(step);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    std::vector<RankBatch> got = StreamStep(cached);
    std::vector<RankBatch> want = StreamStep(plain);
    for (size_t rank = 0; rank < got.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
    }
    ExpectMatchesReference(capture.value(), spec, 2, 1024, got);
  }
}

TEST(IoSessionTest, CacheAndReadAheadServeByteIdenticalBatches) {
  auto plain = Session::Create(IoOptions());
  Session::Options cached_options = IoOptions();
  cached_options.block_cache_bytes = 64 * kMiB;
  cached_options.read_ahead_groups = 4;
  cached_options.storage_get_latency = 500;  // 0.5 ms: remote, but test-fast
  auto cached = Session::Create(cached_options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  for (int64_t step = 0; step < 3; ++step) {
    Result<PrefetchPipeline::Capture> capture = (*cached)->CaptureStep(step);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    std::vector<RankBatch> got = StreamStep(**cached);
    std::vector<RankBatch> want = StreamStep(**plain);
    for (size_t rank = 0; rank < got.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
    }
    ExpectMatchesReference(capture.value(), IoOptions().spec, 2, 1024, got);
  }
  // The io layer actually ran: counters surface through io_stats and
  // StepStats alike.
  Session::IoStats io = (*cached)->io_stats();
  EXPECT_TRUE(io.enabled);
  EXPECT_GT(io.cache.lookups, 0);
  EXPECT_GT(io.scheduler.prefetch_issues, 0);
  EXPECT_GT(io.storage_gets, 0);
  Result<Session::StepStats> stats = (*cached)->StepStatsFor(3);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->cache_hits + stats->cache_misses, 0);
  EXPECT_GT(stats->readahead_issued, 0);
  EXPECT_GT(stats->storage_gets, 0);
  // The plain session reports a disabled subsystem, not garbage.
  EXPECT_FALSE((*plain)->io_stats().enabled);
}

TEST(IoSessionTest, TinyBudgetEvictionThrashStaysByteIdentical) {
  auto plain = Session::Create(IoOptions());
  Session::Options cached_options = IoOptions();
  cached_options.block_cache_bytes = 32 * kKiB;  // far below the working set
  cached_options.read_ahead_groups = 4;
  auto cached = Session::Create(cached_options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ExpectCachedMatchesPlain(**cached, **plain, 4);
  EXPECT_GT((*cached)->io_stats().cache.evictions, 0);
}

TEST(IoSessionTest, SpillTierStaysByteIdentical) {
  const std::string dir = testing::ScratchDir("spill_session");
  {
    auto plain = Session::Create(IoOptions());
    Session::Options cached_options = IoOptions();
    cached_options.block_cache_bytes = 32 * kKiB;
    cached_options.read_ahead_groups = 2;
    cached_options.cache_spill_dir = dir;
    auto cached = Session::Create(cached_options);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ExpectCachedMatchesPlain(**cached, **plain, 3);
    EXPECT_GT((*cached)->io_stats().cache.spill_writes, 0);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(IoSessionTest, ShadowLoadersShareBackingGets) {
  // FT shadows read exactly the blocks their primaries read; through the
  // shared cache that must not double the backing Gets.
  Session::Options options = IoOptions();
  options.enable_fault_tolerance = true;
  options.block_cache_bytes = 64 * kMiB;
  options.read_ahead_groups = 2;
  options.storage_get_latency = 200;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StreamStep(**session);
  Session::IoStats io = (*session)->io_stats();
  EXPECT_GT(io.scheduler.cache_hits + io.scheduler.coalesced, 0);
  EXPECT_LT(io.scheduler.issued_gets, io.scheduler.requests);
}

TEST(IoSessionTest, ResumeRewarmsReadAheadAndStaysByteIdentical) {
  const std::string dir = testing::ScratchDir("io_resume");
  Session::Options cached_options = IoOptions();
  cached_options.block_cache_bytes = 64 * kMiB;
  cached_options.read_ahead_groups = 4;
  cached_options.storage_get_latency = 200;
  auto uninterrupted = Session::Create(cached_options);
  ASSERT_TRUE(uninterrupted.ok());
  {
    auto session = Session::Create(cached_options);
    ASSERT_TRUE(session.ok());
    for (int64_t s = 0; s < 2; ++s) {
      std::vector<RankBatch> got = StreamStep(**session);
      std::vector<RankBatch> want = StreamStep(**uninterrupted);
      for (size_t rank = 0; rank < got.size(); ++rank) {
        ExpectBatchesIdentical(got[rank], want[rank]);
      }
    }
    ASSERT_TRUE((*session)->Checkpoint(dir).ok());
  }  // process dies; the resumed one starts cache-cold

  Session::Options resumed_options = cached_options;
  resumed_options.resume_dir = dir;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (int64_t s = 0; s < 2; ++s) {
    std::vector<RankBatch> got = StreamStep(**resumed);
    std::vector<RankBatch> want = StreamStep(**uninterrupted);
    for (size_t rank = 0; rank < got.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
    }
  }
  // Restore() re-warmed the window from the restored cursors.
  EXPECT_GT((*resumed)->io_stats().scheduler.prefetch_issues, 0);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(IoSessionTest, InvalidIoOptionsAreRejected) {
  Session::Options no_cache = IoOptions();
  no_cache.read_ahead_groups = 2;  // read-ahead without a cache
  EXPECT_EQ(Session::Create(std::move(no_cache)).status().code(),
            StatusCode::kInvalidArgument);
  Session::Options spill_only = IoOptions();
  spill_only.cache_spill_dir = "/tmp/never-used";
  EXPECT_EQ(Session::Create(std::move(spill_only)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace msd
