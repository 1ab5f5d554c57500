// SharedIoPlane: the one I/O plane many co-hosted training jobs share.
//
// The paper's production deployment is a dataloader *service*: N concurrent
// jobs, one data plane. This class owns that plane — the backing ObjectStore
// (with the corpus materialized exactly once per distinct source), the
// latency decorator that makes it "remote" and counts backing Gets, the
// multi-tenant BlockCache, and the fair-share IoScheduler — and hands
// Sessions non-owning views of it (Session::Options::shared_plane).
//
// Tenant lifecycle:
//   AddTenant(name, quota[, faults])  -> IoTenantId
//     registers the tenant's fair-share weight + in-flight cap with the
//     scheduler, its cache-byte budget with the cache, and (optionally) a
//     private FaultInjectingStore route so chaos injected into this tenant
//     can never fail another tenant's Gets.
//   DrainAndRemoveTenant(id)
//     blocks until the tenant has no queued/running/hedged Gets, evicts its
//     cache footprint, forgets its scheduler state, and only then frees its
//     fault decorator. Call after the tenant's Session is destroyed.
//
// What co-hosting buys (bench_multitenant): jobs reading overlapping corpora
// share one cached copy and coalesce in-flight Gets across session
// boundaries, so N co-hosted jobs issue fewer backing Gets at less total
// cache memory than N isolated ones — while each job's byte stream stays
// identical to its solo run (the cache serves the same bytes a Get would).
#ifndef SRC_SERVICE_SHARED_PLANE_H_
#define SRC_SERVICE_SHARED_PLANE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/common/units.h"
#include "src/data/source_spec.h"
#include "src/io/block_cache.h"
#include "src/io/fault_injecting_store.h"
#include "src/io/io_scheduler.h"
#include "src/io/latency_store.h"
#include "src/storage/columnar.h"
#include "src/storage/memory_model.h"
#include "src/storage/object_store.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace msd {

// Per-tenant resource envelope, enforced by the shared cache + scheduler.
struct TenantQuota {
  // Fair-share weight for backing Gets (IoScheduler::TenantOptions::weight):
  // under contention a weight-2 tenant gets twice the Get slots of a
  // weight-1 one. Must be > 0.
  double weight = 1.0;
  // Cache-byte budget: over it, eviction pressure removes this tenant's OWN
  // least-recent blocks (never a neighbour's). 0 = no per-tenant budget —
  // the tenant competes only under the global capacity.
  int64_t cache_bytes = 0;
  // Cap on this tenant's concurrently running backing Gets. 0 = only the
  // plane-wide max_inflight bounds it.
  int32_t max_inflight_gets = 0;
};

struct SharedIoPlaneConfig {
  // Global BlockCache capacity shared by every tenant.
  int64_t cache_bytes = 256 * kMiB;
  int32_t cache_shards = 8;
  // Optional disk tier for evicted blocks.
  std::string cache_spill_dir;
  // Scheduler pool size; 0 derives it from max_inflight.
  size_t io_threads = 0;
  // Plane-wide bound on concurrent backing Gets.
  int32_t max_inflight = 16;
  IoScheduler::RetryPolicy retry;
  IoScheduler::HedgePolicy hedge;
  // Simulated remote storage: microseconds charged per backing Get. 0 keeps
  // the latency decorator installed as a pure Get counter (zero delay), so
  // backing_gets() is always meaningful.
  SimTime storage_get_latency = 0;
  double storage_bandwidth_bytes_per_sec = 0;  // <= 0 disables the term
  // Directory for the shared durable GCS store; each tenant's Session
  // attaches it under its own "gcs/<namespace>/" prefix, so heartbeat
  // journals, quarantine state, and watchdog snapshots never cross tenants.
  // Empty = tenants get no plane-provided durable GCS.
  std::string durable_gcs_dir;
  // ---- Telemetry (src/telemetry/) ----
  // One registry + one trace ring for the whole plane: every tenant's spans
  // interleave in a single timeline and MetricsSnapshot() renders consistent
  // per-tenant slices. Sessions bound to this plane adopt both.
  bool telemetry_enabled = true;
  // Spans retained before the oldest are overwritten; sized for several
  // tenants' worth of step + io spans. 0 = metrics only, no tracing.
  int64_t trace_ring_spans = 8192;
  // Default diagnosis-plane options every tenant adopts unless its own
  // Session::Options.health is enabled. When health.recorder_dir is set the
  // DataService stands up ONE FlightRecorder shared by all tenant monitors,
  // so a plane-wide incident writes one bundle, not one per tenant.
  HealthOptions health;
};

class SharedIoPlane {
 public:
  explicit SharedIoPlane(SharedIoPlaneConfig config);
  // Tear down every Session using this plane first; the destructor drains
  // the scheduler but cannot wait for foreign actors.
  ~SharedIoPlane();

  SharedIoPlane(const SharedIoPlane&) = delete;
  SharedIoPlane& operator=(const SharedIoPlane&) = delete;

  // Materializes `corpus` into the shared store, writing each distinct
  // source exactly once: a source whose (spec, seed, row-group sizing)
  // fingerprint matches an already-materialized one is skipped — the bytes
  // on store are already identical, which is the cross-job dedup premise.
  // A name collision with a DIFFERENT fingerprint is an error (two jobs
  // would silently read each other's data). Returns the corpus row count.
  Result<int64_t> MaterializeCorpus(const CorpusSpec& corpus, uint64_t seed,
                                    const MsdfWriteOptions& write_options);

  // Registers a tenant: fair-share weight + inflight cap on the scheduler,
  // cache budget on the cache, and — when `faults` is enabled — a private
  // fault-injecting route wrapping the shared remote store (fault(latency(
  // base)), same stacking as single-tenant chaos sessions). Returns the id
  // to pass as Session::Options::io_tenant.
  Result<IoTenantId> AddTenant(const std::string& name, const TenantQuota& quota,
                               FaultSchedule faults = {});

  // Drains the tenant out of the scheduler (no queued/running/hedged Gets),
  // evicts its cache footprint, and frees its fault decorator. The tenant's
  // Session must already be destroyed (its destructor stops all traffic).
  void DrainAndRemoveTenant(IoTenantId tenant);

  // The store a tenant's loaders read through: its private fault route if it
  // registered one, else the shared (latency-counting) remote store.
  ObjectStore* loader_store(IoTenantId tenant);
  // The tenant's fault decorator, for scripting brownouts; nullptr if the
  // tenant registered without faults.
  FaultInjectingStore* fault_store(IoTenantId tenant);

  BlockCache* cache() { return cache_.get(); }
  IoScheduler* scheduler() { return io_.get(); }
  LatencyInjectingStore* remote_store() { return remote_store_.get(); }
  // Plane-wide telemetry. The plane's collector exports the cache/scheduler
  // aggregate plus every tenant's slice (one SnapshotAll pass each, so the
  // slices always sum to the aggregate) and the storage/fault/payload
  // counters; plane-bound Sessions add their pipeline/quarantine series.
  // Null when config.telemetry_enabled is false.
  MetricsRegistry* metrics() { return metrics_.get(); }
  // The plane-wide trace ring (null when tracing is off).
  StepTracer* tracer() { return tracer_.get(); }
  // Shared durable GCS store (nullptr without durable_gcs_dir).
  ObjectStore* gcs_store() { return gcs_store_.get(); }
  const SharedIoPlaneConfig& config() const { return config_; }
  const MemoryAccountant& memory() const { return memory_; }

  // Backing Gets the plane's remote store actually served — the number
  // co-hosting exists to shrink (every cache hit and every cross-session
  // coalesce is a Get that never reaches here).
  int64_t backing_gets() const { return remote_store_->gets(); }
  BlockCache::Stats cache_stats() const { return cache_->stats(); }
  BlockCache::Stats tenant_cache_stats(IoTenantId tenant) const {
    return cache_->tenant_stats(tenant);
  }
  IoScheduler::Stats scheduler_stats() const { return io_->stats(); }
  IoScheduler::Stats tenant_scheduler_stats(IoTenantId tenant) const {
    return io_->tenant_stats(tenant);
  }

 private:
  struct TenantRecord {
    std::string name;
    TenantQuota quota;
    // Private chaos route; lives until DrainAndRemoveTenant so in-flight
    // (and hedged) Gets can finish against it.
    std::unique_ptr<FaultInjectingStore> fault_store;
  };

  SharedIoPlaneConfig config_;
  MemoryAccountant memory_;
  ObjectStore store_{&memory_};  // the shared backing corpus store
  // Always installed, even at zero latency: its Get counter is the
  // denominator of every dedup claim the service makes.
  std::unique_ptr<LatencyInjectingStore> remote_store_;
  std::unique_ptr<ObjectStore> cache_spill_store_;
  std::unique_ptr<ObjectStore> gcs_store_;
  // Telemetry plane. Declared before cache_/io_ so the scheduler holding the
  // tracer pointer is destroyed first; the collector reading cache_/io_ is
  // explicitly removed in the destructor before either dies.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<StepTracer> tracer_;
  int64_t collector_ = -1;  // AddCollector handle (-1 = none)
  std::unique_ptr<BlockCache> cache_;

  mutable std::mutex mu_;
  IoTenantId next_tenant_ = 1;  // 0 is the default (non-service) tenant
  std::map<IoTenantId, TenantRecord> tenants_;
  // Source name -> (spec, seed, sizing) fingerprint of the materialized copy.
  std::unordered_map<std::string, uint64_t> materialized_;

  // Declared after the tenant records: the scheduler is destroyed FIRST, so
  // its workers (which may hold tenant fault-store pointers) are joined
  // before any store they read from dies.
  std::unique_ptr<IoScheduler> io_;
};

}  // namespace msd

#endif  // SRC_SERVICE_SHARED_PLANE_H_
