// Multi-tenant dataloader service (src/service/):
//  - Cross-tenant dedup: two jobs on the same corpus share one cached copy
//    and coalesce in-flight Gets, so co-hosting costs fewer backing Gets than
//    two isolated planes — while each tenant's byte stream stays identical to
//    its solo twin.
//  - Fault isolation: a brownouted tenant rides its private scheduler route;
//    the healthy neighbour sees zero failed Gets and identical bytes.
//  - Quota isolation: an over-budget tenant evicts only its OWN cache
//    entries, never a neighbour's.
//  - Fair share: the SFQ dispatcher interleaves tenants' backing Gets by
//    weight, deterministically.
//  - Teardown: removing a tenant mid-stream drains its in-flight reads and
//    leaves the survivors' streams untouched.
//  - Stats: cache/scheduler snapshots are consistent cuts (cross-counter
//    invariants hold exactly) even under concurrent multi-tenant hammering.
//  - GCS namespacing: co-hosted sessions journal durable state under
//    disjoint "gcs/<tenant>/" prefixes of the shared store.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/service/data_service.h"
#include "src/service/shared_plane.h"
#include "tests/batch_identity.h"
#include "tests/scratch_dir.h"

namespace msd {
namespace {

namespace fs = std::filesystem;
using testing::ExpectBatchesIdentical;
using testing::StreamStep;

Session::Options TenantSessionOptions(CorpusSpec corpus) {
  Session::Options options;
  options.corpus = std::move(corpus);
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 16;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  options.row_group_bytes = 8 * kKiB;  // several groups per file
  return options;
}

SharedIoPlaneConfig TestPlaneConfig() {
  SharedIoPlaneConfig config;
  config.cache_bytes = 64 * kMiB;
  config.storage_get_latency = 200;  // 0.2 ms: remote, but test-fast
  return config;
}

void ExpectStepIdentical(Session& tenant, Session& solo) {
  std::vector<RankBatch> got = StreamStep(tenant);
  std::vector<RankBatch> want = StreamStep(solo);
  ASSERT_EQ(got.size(), want.size());
  for (size_t rank = 0; rank < got.size(); ++rank) {
    ExpectBatchesIdentical(got[rank], want[rank]);
  }
}

// ---------------------------------------------------------------------------
// Cross-tenant dedup: co-hosting shares cached blocks and backing Gets.
// ---------------------------------------------------------------------------

TEST(ServiceTest, CrossTenantDedupSharesBackingGetsAndStaysByteIdentical) {
  constexpr int64_t kSteps = 3;
  // Solo baseline: ONE owned cached session over the same corpus — what one
  // isolated plane pays for this workload.
  int64_t solo_gets = 0;
  {
    Session::Options solo_options = TenantSessionOptions(MakeCoyo700m());
    solo_options.block_cache_bytes = 64 * kMiB;
    solo_options.storage_get_latency = 200;
    auto solo = Session::Create(solo_options);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    for (int64_t s = 0; s < kSteps; ++s) {
      StreamStep(**solo);
    }
    solo_gets = (*solo)->io_stats().storage_gets;
    ASSERT_GT(solo_gets, 0);
  }

  DataService service(TestPlaneConfig());
  DataService::TenantConfig a;
  a.session = TenantSessionOptions(MakeCoyo700m());
  DataService::TenantConfig b;
  b.session = TenantSessionOptions(MakeCoyo700m());
  ASSERT_TRUE(service.RegisterTenant("job-a", a).ok());
  ASSERT_TRUE(service.RegisterTenant("job-b", b).ok());

  // Byte-identity: each tenant's stream equals the un-cohosted twin's.
  auto solo_a = Session::Create(TenantSessionOptions(MakeCoyo700m()));
  auto solo_b = Session::Create(TenantSessionOptions(MakeCoyo700m()));
  ASSERT_TRUE(solo_a.ok() && solo_b.ok());
  for (int64_t s = 0; s < kSteps; ++s) {
    ExpectStepIdentical(*service.session("job-a"), **solo_a);
    ExpectStepIdentical(*service.session("job-b"), **solo_b);
  }

  // Two co-hosted tenants must cost less than two isolated planes — the same
  // hot row groups are fetched once and shared.
  const int64_t cohosted_gets = service.backing_gets();
  EXPECT_LT(cohosted_gets, 2 * solo_gets)
      << "co-hosting did not dedup any backing Gets";
  // And the sharing is visible in the attribution: hits on blocks the other
  // tenant paid for.
  EXPECT_GT(service.plane()->cache_stats().cross_tenant_hits, 0);
  // Per-tenant scheduler views carry the traffic split; both tenants issued
  // requests and the aggregate equals the sum over tenants (no double count,
  // nothing dropped). The tenants' producers keep prefetching while this
  // runs, so the slices and the aggregate must come from one cut.
  DataService::ServiceSnapshot snap = service.MetricsSnapshot();
  const IoScheduler::Stats& sa = snap.tenants.at("job-a").scheduler;
  const IoScheduler::Stats& sb = snap.tenants.at("job-b").scheduler;
  EXPECT_GT(sa.requests, 0);
  EXPECT_GT(sb.requests, 0);
  EXPECT_EQ(sa.requests + sb.requests, snap.scheduler.requests);
}

// ---------------------------------------------------------------------------
// Fault isolation: one tenant's brownout never touches its neighbour.
// ---------------------------------------------------------------------------

TEST(ServiceTest, BrownoutTenantNeverPerturbsHealthyNeighbor) {
  SharedIoPlaneConfig plane = TestPlaneConfig();
  plane.retry.max_attempts = 6;
  plane.retry.backoff_base_us = 100;  // test-fast backoff
  plane.retry.backoff_max_us = 2000;

  DataService service(plane);
  DataService::TenantConfig healthy;
  healthy.session = TenantSessionOptions(MakeCoyo700m());
  DataService::TenantConfig shaky;
  shaky.session = TenantSessionOptions(MakeTextCorpus(/*seed=*/13, /*num_sources=*/4));
  shaky.storage_faults.install = true;  // private route, brownouts scripted below
  ASSERT_TRUE(service.RegisterTenant("healthy", healthy).ok());
  ASSERT_TRUE(service.RegisterTenant("shaky", shaky).ok());

  auto solo = Session::Create(TenantSessionOptions(MakeCoyo700m()));
  ASSERT_TRUE(solo.ok());

  Session* shaky_session = service.session("shaky");
  FaultInjectingStore* faults = shaky_session->fault_store();
  ASSERT_NE(faults, nullptr);

  for (int64_t s = 0; s < 4; ++s) {
    // A fresh burst of failures into the shaky tenant's route every step;
    // the retry budget rides each one out.
    faults->BrownoutNextGets(3);
    ExpectStepIdentical(*service.session("healthy"), **solo);
    std::vector<RankBatch> shaky_batches = StreamStep(*shaky_session);
    EXPECT_FALSE(shaky_batches.empty());
  }
  EXPECT_GT(faults->brownout_failures(), 0) << "the brownout never engaged";

  // The shaky tenant needed (and got) retries; the healthy tenant saw NONE of
  // them — not one failed or retried Get on its route.
  DataService::TenantStats shaky_stats = service.tenant_stats("shaky").value();
  DataService::TenantStats healthy_stats = service.tenant_stats("healthy").value();
  EXPECT_GT(shaky_stats.scheduler.retries, 0);
  EXPECT_GT(shaky_stats.scheduler.retry_successes, 0);
  EXPECT_EQ(shaky_stats.scheduler.failed_gets, 0);  // budget absorbed all of it
  EXPECT_EQ(healthy_stats.scheduler.retries, 0);
  EXPECT_EQ(healthy_stats.scheduler.failed_gets, 0);
}

// ---------------------------------------------------------------------------
// Quota isolation: budget pressure evicts the owner's entries only.
// ---------------------------------------------------------------------------

TEST(ServiceTest, QuotaEvictsOwnEntriesOnly) {
  BlockCache::Config config;
  config.capacity_bytes = 4096;
  config.shards = 1;
  BlockCache cache(config);
  constexpr IoTenantId kBudgeted = 1;
  constexpr IoTenantId kNeighbor = 2;
  cache.RegisterTenant(kBudgeted, 128);  // room for two 64-byte blocks
  auto block = [](char fill) { return std::make_shared<const std::string>(std::string(64, fill)); };

  // The neighbour's blocks go in first — they sit at the LRU end, exactly
  // where owner-blind eviction would pick victims.
  BlockKey n1{"n", 0, 64}, n2{"n", 64, 64};
  cache.Insert(n1, block('x'), kNeighbor);
  cache.Insert(n2, block('y'), kNeighbor);
  BlockKey b1{"b", 0, 64}, b2{"b", 64, 64}, b3{"b", 128, 64};
  cache.Insert(b1, block('a'), kBudgeted);
  cache.Insert(b2, block('b'), kBudgeted);
  cache.Insert(b3, block('c'), kBudgeted);  // 192 > 128: must shed its own

  // The budgeted tenant lost its own oldest block...
  EXPECT_EQ(cache.PeekResident(b1), nullptr);
  ASSERT_NE(cache.PeekResident(b2), nullptr);
  ASSERT_NE(cache.PeekResident(b3), nullptr);
  // ...and the neighbour (and the shard, at 4096 capacity) lost nothing.
  ASSERT_NE(cache.PeekResident(n1), nullptr);
  ASSERT_NE(cache.PeekResident(n2), nullptr);
  BlockCache::Stats budgeted = cache.tenant_stats(kBudgeted);
  BlockCache::Stats neighbor = cache.tenant_stats(kNeighbor);
  EXPECT_EQ(budgeted.evictions, 1);
  EXPECT_LE(budgeted.resident_bytes, 128);
  EXPECT_EQ(neighbor.evictions, 0);
  EXPECT_EQ(neighbor.resident_bytes, 128);

  // RemoveTenant releases exactly the owner's bytes and leaves the rest.
  EXPECT_EQ(cache.RemoveTenant(kBudgeted), 128);
  ASSERT_NE(cache.PeekResident(n1), nullptr);
  EXPECT_EQ(cache.stats().resident_bytes, 128);
}

// ---------------------------------------------------------------------------
// Fair share: dispatch interleaves tenants by weight, deterministically.
// ---------------------------------------------------------------------------

// Records Get order; blocks Gets of "blocker" until released, so tenant
// queues can build behind the single in-flight slot.
class RecordingStore final : public ObjectStore {
 public:
  Result<std::string> Get(const std::string& name, int64_t /*offset*/,
                          int64_t length) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      order_.push_back(name);
      while (name == "blocker" && !released_) {
        cv_.wait(lock);
      }
    }
    return std::string(static_cast<size_t>(length), 'd');
  }
  Result<int64_t> SizeOf(const std::string&) const override { return int64_t{1 << 20}; }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::vector<std::string> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<std::string> order_;
  bool released_ = false;
};

TEST(ServiceTest, FairShareDispatchFollowsWeights) {
  RecordingStore store;
  BlockCache cache(BlockCache::Config{});
  IoScheduler::Config config;
  config.threads = 2;
  config.max_inflight = 1;  // serialize dispatch: order is the schedule
  IoScheduler io(&store, &cache, config);
  constexpr IoTenantId kHeavy = 1;  // weight 2: two Get slots per...
  constexpr IoTenantId kLight = 2;  // ...one of weight 1
  io.RegisterTenant(kHeavy, {.weight = 2.0});
  io.RegisterTenant(kLight, {.weight = 1.0});

  // Occupy the single slot, then queue 6 Gets per tenant behind it.
  auto blocker = io.Fetch("blocker", 0, 8);
  std::vector<std::shared_future<IoScheduler::BlockResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(io.Fetch(std::string("h").append(std::to_string(i)), 0, 8, false, kHeavy));
    futures.push_back(io.Fetch(std::string("l").append(std::to_string(i)), 0, 8, false, kLight));
  }
  store.Release();
  for (auto& f : futures) {
    ASSERT_TRUE(f.get().ok());
  }
  ASSERT_TRUE(blocker.get().ok());

  // SFQ with weights 2:1 and lowest-id tie-break dispatches
  // H L H H L H H L H ... — verify the 2:1 split over the first 9.
  std::vector<std::string> order = store.order();
  ASSERT_EQ(order.size(), 13u);  // blocker + 12
  int heavy_first9 = 0;
  for (size_t i = 1; i <= 9; ++i) {
    heavy_first9 += order[i][0] == 'h' ? 1 : 0;
  }
  EXPECT_EQ(heavy_first9, 6) << "weighted interleave broke";
  EXPECT_EQ(order[1][0], 'h');  // tie at vtime 0 breaks to the lower id
  EXPECT_EQ(io.tenant_stats(kHeavy).issued_gets, 6);
  EXPECT_EQ(io.tenant_stats(kLight).issued_gets, 6);
}

// ---------------------------------------------------------------------------
// Teardown: removing a tenant drains it and leaves survivors untouched.
// ---------------------------------------------------------------------------

TEST(ServiceTest, RemoveTenantMidStreamLeavesSurvivorByteIdentical) {
  DataService service(TestPlaneConfig());
  DataService::TenantConfig a;
  a.session = TenantSessionOptions(MakeCoyo700m());
  DataService::TenantConfig b;
  b.session = TenantSessionOptions(MakeCoyo700m());
  ASSERT_TRUE(service.RegisterTenant("departing", a).ok());
  ASSERT_TRUE(service.RegisterTenant("survivor", b).ok());

  auto solo = Session::Create(TenantSessionOptions(MakeCoyo700m()));
  ASSERT_TRUE(solo.ok());

  ExpectStepIdentical(*service.session("survivor"), **solo);
  StreamStep(*service.session("departing"));
  // Tear the departing tenant down while the survivor is mid-stream. The
  // drain contract: after this returns, no read of the departed tenant is
  // queued, running, or hedged (ASan/TSan runs verify nothing dangles).
  ASSERT_TRUE(service.RemoveTenant("departing").ok());
  EXPECT_EQ(service.session("departing"), nullptr);
  EXPECT_FALSE(service.RemoveTenant("departing").ok());  // idempotence: NotFound

  for (int64_t s = 0; s < 2; ++s) {
    ExpectStepIdentical(*service.session("survivor"), **solo);
  }
  EXPECT_EQ(service.tenant_names(), std::vector<std::string>{"survivor"});
}

// ---------------------------------------------------------------------------
// Stats: snapshots are consistent cuts under concurrent tenants.
// ---------------------------------------------------------------------------

TEST(ServiceTest, StatsSnapshotsAreConsistentUnderConcurrentTenants) {
  BlockCache::Config config;
  config.capacity_bytes = 64 * kKiB;
  config.shards = 4;
  BlockCache cache(config);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&cache, &stop, t] {
      const IoTenantId tenant = 1 + (t % 2);
      auto bytes = std::make_shared<const std::string>(std::string(512, 'w'));
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        BlockKey key{"obj-" + std::to_string(t), (i % 64) * 512, 512};
        if (i % 3 == 0) {
          cache.Insert(key, bytes, tenant);
        } else {
          cache.Lookup(key, tenant);
        }
      }
    });
  }
  // Every snapshot taken mid-hammer must be a consistent cut: the all-shard
  // lock makes lookups == hits + misses hold EXACTLY, not approximately.
  for (int i = 0; i < 200; ++i) {
    BlockCache::Stats s = cache.stats();
    ASSERT_EQ(s.lookups, s.hits + s.misses)
        << "aggregate snapshot tore at iteration " << i;
    BlockCache::Stats t1 = cache.tenant_stats(1);
    ASSERT_EQ(t1.lookups, t1.hits + t1.misses)
        << "tenant snapshot tore at iteration " << i;
  }
  stop.store(true);
  for (std::thread& w : workers) {
    w.join();
  }
  // And the tenant views partition the aggregate exactly once quiescent.
  BlockCache::Stats total = cache.stats();
  BlockCache::Stats t1 = cache.tenant_stats(1);
  BlockCache::Stats t2 = cache.tenant_stats(2);
  EXPECT_EQ(total.lookups, t1.lookups + t2.lookups);
  EXPECT_EQ(total.insertions, t1.insertions + t2.insertions);
  EXPECT_EQ(total.resident_bytes, t1.resident_bytes + t2.resident_bytes);
}

// ---------------------------------------------------------------------------
// GCS namespacing: durable state of co-hosted tenants never crosses.
// ---------------------------------------------------------------------------

TEST(ServiceTest, GcsNamespaceIsolatesDurableState) {
  const std::string dir = testing::ScratchDir("service_gcs");
  {
    SharedIoPlaneConfig plane = TestPlaneConfig();
    plane.durable_gcs_dir = dir;
    DataService service(plane);
    DataService::TenantConfig a;
    a.session = TenantSessionOptions(MakeCoyo700m());
    DataService::TenantConfig b;
    b.session = TenantSessionOptions(MakeCoyo700m());
    ASSERT_TRUE(service.RegisterTenant("alpha", a).ok());
    ASSERT_TRUE(service.RegisterTenant("beta", b).ok());

    // Each session attached the SHARED durable store under its own prefix.
    Gcs& gcs_a = service.session("alpha")->actor_system().gcs();
    Gcs& gcs_b = service.session("beta")->actor_system().gcs();
    EXPECT_EQ(gcs_a.durable_prefix(), "gcs/alpha/");
    EXPECT_EQ(gcs_b.durable_prefix(), "gcs/beta/");

    // Same key, different tenants: lands twice, namespaced, no collision.
    gcs_a.PutState("cursor", "alpha-state");
    gcs_b.PutState("cursor", "beta-state");
    ObjectStore* store = service.plane()->gcs_store();
    ASSERT_NE(store, nullptr);
    EXPECT_TRUE(store->Exists("gcs/alpha/cursor"));
    EXPECT_TRUE(store->Exists("gcs/beta/cursor"));
    EXPECT_EQ(gcs_a.GetState("cursor").value(), "alpha-state");
    EXPECT_EQ(gcs_b.GetState("cursor").value(), "beta-state");
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Validation: misconfigured tenants are rejected before they can interfere.
// ---------------------------------------------------------------------------

TEST(ServiceTest, RejectsPrivatePlaneOptionsAndConflictingCorpora) {
  DataService service(TestPlaneConfig());

  // A tenant may not stand up a private I/O stack under the shared plane.
  DataService::TenantConfig private_cache;
  private_cache.session = TenantSessionOptions(MakeCoyo700m());
  private_cache.session.block_cache_bytes = 1 * kMiB;
  EXPECT_EQ(service.RegisterTenant("bad", private_cache).code(),
            StatusCode::kInvalidArgument);

  DataService::TenantConfig ok;
  ok.session = TenantSessionOptions(MakeCoyo700m());
  ASSERT_TRUE(service.RegisterTenant("first", ok).ok());

  // Names key tenants: no duplicates.
  DataService::TenantConfig dup;
  dup.session = TenantSessionOptions(MakeCoyo700m());
  EXPECT_EQ(service.RegisterTenant("first", dup).code(), StatusCode::kAlreadyExists);

  // Same source names with a different seed would silently serve the first
  // tenant's bytes to the second — rejected at materialization.
  DataService::TenantConfig conflicting;
  conflicting.session = TenantSessionOptions(MakeCoyo700m());
  conflicting.session.seed = 999;
  EXPECT_EQ(service.RegisterTenant("second", conflicting).code(),
            StatusCode::kInvalidArgument);

  // Invalid quotas never make it onto the plane.
  DataService::TenantConfig bad_weight;
  bad_weight.session = TenantSessionOptions(MakeTextCorpus(13, 2));
  bad_weight.quota.weight = 0.0;
  EXPECT_EQ(service.RegisterTenant("weightless", bad_weight).code(),
            StatusCode::kInvalidArgument);
  // A failed registration leaves no residue: the name is reusable.
  bad_weight.quota.weight = 1.0;
  EXPECT_TRUE(service.RegisterTenant("weightless", bad_weight).ok());
}

// ---------------------------------------------------------------------------
// Diagnosis surface: per-tenant Diagnose/SetSloPolicy, plane-default health
// adoption, the shared flight recorder, and the health-carrying snapshot.
// ---------------------------------------------------------------------------

TEST(ServiceTest, DiagnosePerTenantWithPlaneDefaultHealthAndSharedRecorder) {
  const std::string dir = testing::ScratchDir("service_recorder");
  SharedIoPlaneConfig config = TestPlaneConfig();
  config.health.enabled = true;
  config.health.recorder_dir = dir;
  DataService service(config);
  ASSERT_NE(service.recorder(), nullptr) << "recorder_dir stands up the plane recorder";

  DataService::TenantConfig alpha;
  alpha.session = TenantSessionOptions(MakeCoyo700m());
  ASSERT_TRUE(service.RegisterTenant("alpha", alpha).ok());
  DataService::TenantConfig beta;
  beta.session = TenantSessionOptions(MakeTextCorpus(13, 2));
  ASSERT_TRUE(service.RegisterTenant("beta", beta).ok());

  // Both tenants adopted the plane default monitor and share ONE recorder:
  // a plane-wide incident yields one bundle, not one per symptom per tenant.
  for (const char* name : {"alpha", "beta"}) {
    Session* session = service.session(name);
    ASSERT_NE(session, nullptr);
    ASSERT_NE(session->health(), nullptr) << name;
    EXPECT_EQ(session->health()->recorder(), service.recorder()) << name;
  }

  for (int64_t s = 0; s < 4; ++s) {
    StreamStep(*service.session("alpha"));
  }
  Result<HealthReport> report = service.Diagnose("alpha");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report.value().verdict.steps_observed, 1);
  for (const StepBreakdown& b : report.value().recent) {
    const double sum = b.consumer_stall_ms + b.plan_ms + b.pop_wait_ms + b.io_backing_ms +
                       b.io_retry_ms + b.build_ms + b.other_ms;
    EXPECT_NEAR(sum, b.wall_ms, 1e-6) << "step " << b.step;
  }
  EXPECT_EQ(service.Diagnose("ghost").status().code(), StatusCode::kNotFound);

  SloPolicy loose;
  loose.latency_factor = 50.0;
  EXPECT_TRUE(service.SetSloPolicy("alpha", loose).ok());
  EXPECT_EQ(service.SetSloPolicy("ghost", loose).code(), StatusCode::kNotFound);

  // The scrape-facing snapshot carries each monitored tenant's report.
  DataService::ServiceSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.health.count("alpha"), 1u);
  EXPECT_EQ(snap.health.count("beta"), 1u);
  fs::remove_all(dir);
}

TEST(ServiceTest, DiagnoseOnAMonitorlessTenantIsFailedPrecondition) {
  DataService service(TestPlaneConfig());  // no plane-default health
  DataService::TenantConfig plain;
  plain.session = TenantSessionOptions(MakeCoyo700m());
  ASSERT_TRUE(service.RegisterTenant("plain", plain).ok());
  EXPECT_EQ(service.Diagnose("plain").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.SetSloPolicy("plain", SloPolicy{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.MetricsSnapshot().health.empty());
}

// ---------------------------------------------------------------------------
// Scrape lifecycle vs tenant churn: a scrape tick must never observe a
// half-removed (or half-registered) tenant.
// ---------------------------------------------------------------------------

TEST(ServiceTest, ScrapeHammerNeverObservesHalfRemovedTenant) {
  SharedIoPlaneConfig config = TestPlaneConfig();
  config.health.enabled = true;  // scrape ticks call Diagnose() per tenant
  DataService service(config);

  DataService::TenantConfig anchor;
  anchor.session = TenantSessionOptions(MakeCoyo700m());
  ASSERT_TRUE(service.RegisterTenant("anchor", anchor).ok());

  // The callback runs on the scrape thread: record violations, assert later.
  std::atomic<int64_t> ticks{0};
  std::atomic<int64_t> violations{0};
  Status started = service.StartScrape(1, [&](DataService::ServiceSnapshot snap) {
    ticks.fetch_add(1);
    // Every tenant slice is a FULLY registered tenant: it has a live health
    // report (the plane default guarantees a monitor) and a plane id. A
    // half-removed tenant would surface as a slice with no report, or a
    // report for a name with no slice.
    if (snap.tenants.count("anchor") == 0) {
      violations.fetch_add(1);
    }
    for (const auto& [name, stats] : snap.tenants) {
      if (snap.health.count(name) == 0) {
        violations.fetch_add(1);
      }
    }
    for (const auto& [name, report] : snap.health) {
      if (snap.tenants.count(name) == 0) {
        violations.fetch_add(1);
      }
    }
  });
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(service.StartScrape(1, [](DataService::ServiceSnapshot) {}).code(),
            StatusCode::kFailedPrecondition)
      << "second scrape must be rejected while one runs";

  // Hammer: register/stream/remove a flapping tenant while the 1 ms scrape
  // snapshots concurrently; the anchor keeps streaming throughout.
  for (int cycle = 0; cycle < 3; ++cycle) {
    DataService::TenantConfig flapper;
    flapper.session = TenantSessionOptions(MakeTextCorpus(17, 2));
    Status registered = service.RegisterTenant("flapper", flapper);
    ASSERT_TRUE(registered.ok()) << "cycle " << cycle << ": " << registered.ToString();
    StreamStep(*service.session("flapper"));
    StreamStep(*service.session("anchor"));
    ASSERT_TRUE(service.RemoveTenant("flapper").ok());
  }
  service.StopScrape();
  const int64_t ticks_at_stop = ticks.load();
  EXPECT_GT(ticks_at_stop, 0) << "the 1 ms scrape never fired during the hammer";
  EXPECT_EQ(violations.load(), 0);

  // StopScrape means stopped: no tick arrives afterwards, and the teardown
  // path (dtor -> StopScrape again) is a no-op on the already-stopped state.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ticks.load(), ticks_at_stop);
}

}  // namespace
}  // namespace msd
