// msd::Session — the public entry point, redesigned around streaming clients.
//
// A Session materializes a synthetic (or caller-provided) corpus into the
// object store, auto-partitions sources into Source Loader actors, deploys
// one Data Constructor per DP group plus a central Planner, and then serves
// every training rank a continuous stream of batches: an internal prefetch
// pipeline (src/api/prefetch_pipeline.h) drives plan -> pop -> build for
// steps N .. N+depth-1 while ranks consume step N, so on the hot path a
// rank's pull is a prefetch hit — the loader disappears from step time.
//
//   msd::Session::Options options;
//   options.corpus = msd::MakeCoyo700m();
//   options.spec = {.dp = 2, .pp = 1, .cp = 2, .tp = 2};
//   auto session = msd::Session::Create(std::move(options)).value();
//   msd::DataClient* client = session->client(rank).value();   // per rank
//   msd::RankBatch batch = client->NextBatch().value();        // blocking pull
//   auto future = client->NextBatchAsync();                    // overlap compute
//
// Steps are retired by refcount: once all dp*pp*cp*tp ranks have fetched a
// step, its resident data is released and the pipeline moves the window
// forward (bounded by the prefetch depth — natural backpressure if training
// consumes slower than the loader produces). Reshard() and
// KillAndRecoverLoader() drain the pipeline first and rebuild (not discard)
// any prefetched steps, so elasticity and failure recovery never race
// in-flight work. At prefetch_depth = 0 nothing is built ahead: the first
// rank to pull a step produces it inline, which is the lockstep baseline.
//
// All components run as actors on an in-process ActorSystem; the flow follows
// the paper's pull model (client -> Data Constructor -> Planner -> Source
// Loaders -> storage).
#ifndef SRC_API_SESSION_H_
#define SRC_API_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/actor/actor_system.h"
#include "src/api/data_client.h"
#include "src/api/prefetch_pipeline.h"
#include "src/checkpoint/checkpoint.h"
#include "src/checkpoint/state_journal.h"
#include "src/constructor/data_constructor.h"
#include "src/data/source_spec.h"
#include "src/ft/fault_tolerance.h"
#include "src/ft/watchdog.h"
#include "src/io/block_cache.h"
#include "src/io/fault_injecting_store.h"
#include "src/io/io_scheduler.h"
#include "src/io/latency_store.h"
#include "src/loader/source_loader.h"
#include "src/mesh/client_place_tree.h"
#include "src/planner/autoscaler.h"
#include "src/planner/planner.h"
#include "src/planner/strategies.h"
#include "src/storage/object_store.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace msd {

class SharedIoPlane;

class Session {
 public:
  enum class StrategyKind { kVanilla, kBackboneBalance, kHybridBalance };

  struct Options {
    CorpusSpec corpus;
    ParallelismSpec spec;
    int32_t num_microbatches = 4;
    int64_t samples_per_step = 32;
    int32_t max_seq_len = 4096;
    StrategyKind strategy = StrategyKind::kBackboneBalance;
    ModelConfig backbone;                        // defaults to Llama12B()
    ModelConfig encoder;                         // defaults to ViT1B()
    std::shared_ptr<const MixSchedule> schedule; // defaults to uniform static
    // Dynamic mixture schedule (src/plan/mixture_schedule.h): piecewise
    // curriculum phases with temperature-scaled weights, per-step multi-scale
    // picks, and the client-fed re-weighting hook (Session::UpdateMixture).
    // When set it *becomes* `schedule` (setting both is an error) and the
    // checkpoint plane commits/restores its override map, so a resume
    // continues mid-phase byte-identically.
    std::shared_ptr<MixtureSchedule> mixture_schedule;
    // Metadata-driven decode bound (multi-scale batching): stop pixel decode
    // past max_seq_len patches — a packed segment can never consume more.
    // Byte-stream-affecting (part of the checkpoint fingerprint).
    bool bound_pixel_decode = false;
    BalanceMethod balance_method = BalanceMethod::kGreedy;
    uint64_t seed = 2026;
    int32_t loader_workers = 2;
    bool enable_fault_tolerance = false;
    int64_t loader_snapshot_interval = 8;
    // Rows materialized per source file (kept small for fast startup).
    int64_t rows_per_file_override = 0;
    // Transformation reordering (Sec. 6.2): ship compressed image bytes from
    // loaders and decode at the Data Constructor.
    bool defer_image_decode = false;
    // Steps the pipeline works ahead of consumption (>= 2 hides the data
    // plane behind training compute). 0 = fully synchronous lockstep
    // production: the first rank to pull a step produces it inline — the
    // baseline bench_pipeline_throughput measures against.
    int32_t prefetch_depth = 2;
    // Durable resume (src/checkpoint/): directory of a checkpoint written by
    // Checkpoint(). The corpus/seed/step-shape options must match the
    // checkpointed job (validated via fingerprint); the mesh and prefetch
    // depth may differ — that is the elastic part. Empty = fresh start.
    std::string resume_dir;
    // When set, every GCS state write (plan journal, FT loader snapshots)
    // also lands atomically in a disk-backed ObjectStore under this
    // directory, so the journal survives the process even between explicit
    // Checkpoint() calls. Empty = in-memory GCS only.
    std::string gcs_spill_dir;
    // Records a per-step rewind point (planner cursor + loader snapshots,
    // one fanned-out actor round-trip per produced step) so Checkpoint()
    // can commit at the consumption frontier. Disable for jobs that will
    // never checkpoint and want the producer path at its leanest;
    // Checkpoint() then fails with FailedPrecondition.
    bool enable_checkpoint_journal = true;
    // ---- Remote-storage I/O subsystem (src/io/) ----
    // Shared block-cache budget for loader reads; > 0 routes every loader
    // read (footers + row groups) through a sharded, checksummed LRU with
    // request coalescing. 0 = legacy direct whole-blob reads.
    int64_t block_cache_bytes = 0;
    // Optional disk tier: blocks evicted from the memory cache spill to a
    // disk-backed ObjectStore under this directory. Empty = no spill.
    std::string cache_spill_dir;
    // Row groups each loader prefetches past its read cursor (needs
    // block_cache_bytes > 0). 0 = no read-ahead.
    int32_t read_ahead_groups = 0;
    // Simulated remote storage: > 0 wraps the corpus store in a
    // LatencyInjectingStore charging this many microseconds per Get (plus
    // size over the sim/network default bandwidth).
    SimTime storage_get_latency = 0;
    // MSDF row-group target size for the materialized corpus; 0 = the
    // synthetic default (4 MiB). Smaller groups = more Gets per step —
    // the knob bench_io_cache turns to make storage latency bite.
    int64_t row_group_bytes = 0;
    // ---- Storage chaos plane (src/io/fault_injecting_store.h) ----
    // Deterministic storage fault injection: wraps the loader-visible store
    // outside the latency decorator — fault(latency(base)) — so an injected
    // timeout still pays the latency of the Get it interrupted. Requires the
    // block cache: the retry machinery under test lives in the ranged-read
    // path (IoScheduler), which only engages with a cache.
    FaultSchedule storage_faults;
    // Retry budget + exponential backoff with deterministic jitter for
    // failed backing Gets (max_attempts = 1 keeps the legacy fail-fast).
    IoScheduler::RetryPolicy io_retry;
    // Hedged duplicate Gets once a primary outlives the latency quantile.
    IoScheduler::HedgePolicy io_hedge;
    // Graceful mixture degradation: after this many consecutive failed
    // metadata gathers on one loader the planner quarantines it and
    // deterministically renormalizes the mixture over the survivors instead
    // of failing the step. 0 = legacy: any failed gather fails the plan.
    int32_t quarantine_after_failures = 0;
    // Steps between re-admission probes of a quarantined source; a healthy
    // probe re-admits it. <= 0 disables re-admission.
    int64_t quarantine_probe_interval = 16;
    // Produce-round retry budget for transient failures (Unavailable,
    // DeadlineExceeded): a failed plan/pop round is re-run with backoff
    // instead of halting the stream. 1 = legacy halt-on-first-error.
    // Auto-raised above quarantine_after_failures when quarantine is on, so
    // production survives long enough for the quarantine to kick in.
    int32_t produce_retry_attempts = 1;
    // Watchdog (src/ft/watchdog.h): scan for stale loader heartbeats at
    // least this often, promoting shadows of loaders that went silent
    // without surfacing an error. Driven from the producer thread between
    // steps and between produce retry attempts. 0 = no watchdog. Requires
    // fault tolerance (shadows to promote) and prefetch_depth >= 1.
    int64_t watchdog_interval_ms = 0;
    // Heartbeat age past which the watchdog declares a loader dead.
    int64_t watchdog_heartbeat_timeout_ms = 5000;
    // Overrides the planner's per-gather RPC timeout; 0 = planner default.
    int64_t loader_rpc_timeout_ms = 0;
    // ---- Periodic auto-checkpoint ----
    // Every `auto_checkpoint_every` produced steps the session checkpoints
    // into `auto_checkpoint_dir` (piggybacking on the per-step rewind ring;
    // requires enable_checkpoint_journal and prefetch_depth >= 1).
    std::string auto_checkpoint_dir;
    int64_t auto_checkpoint_every = 0;
    // Retention for auto-checkpoints: keep the newest N ckpt-* generations
    // (0 = keep all). Applied after each successful publish.
    int32_t checkpoint_keep_generations = 0;
    // ---- Multi-tenant service binding (src/service/) ----
    // When set, this session runs as one tenant of a shared I/O plane: the
    // corpus is materialized (or deduped) into the plane's store, loader
    // reads go through the plane's cache + fair-share scheduler tagged with
    // `io_tenant`, and durable GCS state lands in the plane's store under
    // "gcs/<gcs_namespace>/". Mutually exclusive with the per-session I/O
    // options above (block_cache_bytes, cache_spill_dir, storage latency,
    // storage_faults, gcs_spill_dir) — the plane provides all of that. Not
    // owned; must outlive the session. Normally installed by DataService.
    SharedIoPlane* shared_plane = nullptr;
    // Tenant id on the shared plane (from SharedIoPlane::AddTenant).
    IoTenantId io_tenant = kDefaultIoTenant;
    // Namespace for durable GCS state on the shared plane ("gcs/<ns>/").
    // Empty with a shared plane = the bare "gcs/" prefix (single tenant).
    std::string gcs_namespace;
    // ---- Telemetry (src/telemetry/) ----
    // Master switch for the metrics registry + step tracer. On by default —
    // the hot-path cost is a handful of relaxed atomics per step (the
    // BENCH_telemetry.json gate holds it under 3% of tokens/s). A session
    // bound to a shared plane uses the PLANE's registry/tracer (so operator
    // snapshots stay cross-tenant consistent); turning this off there only
    // stops the session registering its own pipeline/quarantine series.
    bool telemetry_enabled = true;
    // Spans retained in the step tracer's in-memory ring before the oldest
    // are overwritten. 0 = no tracing (metrics stay on). Ignored with a
    // shared plane — the plane's ring (and its sizing knob) is used instead.
    int64_t trace_ring_spans = 4096;
    // Health monitor (src/telemetry/health.h): per-step stall attribution,
    // SLO anomaly detection, and the flight recorder. Strictly read-side —
    // delivered batches are byte-identical with it on or off. Requires
    // telemetry + tracing + prefetch_depth >= 1 when enabled.
    HealthOptions health;
  };

  // Per-step observability snapshot: planner quality, pipeline progress,
  // io-subsystem counters, and payload-plane allocation/copy accounting.
  // The io/payload fields are views over the same consistent cuts the
  // telemetry registry exports (src/telemetry/bridge.h), so these numbers
  // and `DataService::MetricsSnapshot()` can never disagree. On a shared
  // plane the io counters are this session's tenant-attributed slice.
  struct StepStats {
    /// Step index these stats describe.
    int64_t step = 0;
    /// Max/mean load across DP buckets for this step's plan (1.0 = perfect).
    double dp_imbalance = 1.0;
    /// Samples the plan assigned across all buckets.
    size_t samples = 0;
    /// Wall time the Planner spent computing this step's plan.
    double plan_compute_ms = 0.0;
    /// Configured build-ahead window (Options::prefetch_depth).
    int32_t prefetch_depth = 0;
    /// Produced-but-unretired steps resident in the pipeline right now.
    size_t prefetch_queue_depth = 0;
    /// Cumulative rank pulls served without waiting (the hot-path case).
    int64_t prefetch_hits = 0;
    /// Cumulative rank pulls that blocked on an unfinished build.
    int64_t prefetch_stalls = 0;
    /// Plan+pop+build wall time of this step on the producer thread.
    double build_ahead_ms = 0.0;
    /// Per-rank blocked-pull histogram (count + total wait), indexed by rank;
    /// empty before any streaming pull. Localizes which ranks outrun builds.
    std::vector<PrefetchPipeline::RankStall> rank_stalls;
    /// Cumulative block-cache hits — memory-tier, spill, and (on a shared
    /// plane) cross-tenant dedup hits alike (zero when src/io/ is disabled).
    int64_t cache_hits = 0;
    /// Cumulative block-cache misses (the checksum path drops corrupt blocks
    /// and recounts the re-read as a miss, so hits + misses == lookups).
    int64_t cache_misses = 0;
    /// Cumulative block-cache evictions (memory tier; evicted blocks may
    /// live on in the disk spill tier and return as spill hits above).
    int64_t cache_evictions = 0;
    /// Reads that coalesced onto an already-in-flight backing Get.
    int64_t io_coalesced = 0;
    /// Read-ahead prefetch fetches issued by the loaders.
    int64_t readahead_issued = 0;
    /// Backing Gets the (latency-injecting) store actually served. On a
    /// shared plane this is the plane-wide count: the backing store has no
    /// tenant dimension (coalescing merges tenants' reads into one Get).
    int64_t storage_gets = 0;
    /// Cumulative token bytes frozen into immutable buffers (payload plane).
    int64_t token_bytes_frozen = 0;
    /// Cumulative pixel bytes frozen into immutable buffers. With arena
    /// decode this grows by whole row-group slabs, not per sample.
    int64_t pixel_bytes_frozen = 0;
    /// Cumulative bytes explicitly copied OUT of payload views (ToVector).
    /// Zero on the hot path: the data plane serves aliases, never copies.
    int64_t payload_copy_bytes = 0;
    /// Row-group arena slabs frozen so far (payload_arena.h). The allocator
    /// win is rows-per-group / slabs-per-group buffers saved.
    int64_t arena_slabs_frozen = 0;
    /// Backing Gets re-issued after transient failures (retry layer).
    int64_t io_retries = 0;
    /// Hedged duplicate Gets launched for slow primaries.
    int64_t io_hedges = 0;
    /// Loaders currently quarantined by the planner (mixture degraded).
    int64_t sources_quarantined = 0;
  };

  // Snapshot of the remote-storage I/O subsystem's counters.
  struct IoStats {
    /// True when the block cache + io scheduler are active for this session.
    bool enabled = false;
    /// True when the counters come from a shared multi-tenant plane; the
    /// aggregate views then include other tenants' traffic — the per-tenant
    /// views below isolate this session's share.
    bool shared = false;
    /// Block-cache counters: lookups/hits/misses/insertions/evictions, the
    /// disk-spill tier (writes + hits), checksum corruption drops, and — on
    /// a shared plane — cross-tenant dedup hits and resident bytes.
    BlockCache::Stats cache;
    /// Scheduler counters: the request ladder (requests = cache hits +
    /// coalesced + issued Gets), prefetch issues, the retry ladder
    /// (retries / successes / exhausted / failed), hedges launched and won,
    /// abandoned reads, and invalidations.
    IoScheduler::Stats scheduler;
    /// This session's tenant-attributed slice of the cache counters (equals
    /// `cache` for an owned, single-tenant plane).
    BlockCache::Stats cache_tenant;
    /// This session's tenant-attributed slice of the scheduler counters.
    IoScheduler::Stats scheduler_tenant;
    /// Backing Gets observed by the LatencyInjectingStore (0 without one).
    int64_t storage_gets = 0;
    /// Payload bytes the LatencyInjectingStore served (0 without one).
    int64_t storage_bytes_served = 0;
    /// Chaos-plane counters (all zero without Options::storage_faults etc.).
    int64_t faults_injected = 0;       // transient failures the store injected
    int64_t corruptions_injected = 0;  // bit-flips the store injected
    int64_t brownout_failures = 0;     // Gets failed by an engaged brownout
    int64_t sources_quarantined = 0;   // loaders currently quarantined
    int64_t watchdog_detections = 0;   // stale-heartbeat detections so far
  };

  static Result<std::unique_ptr<Session>> Create(Options options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Streaming handle for `rank`. Owned by the Session; valid for its
  // lifetime. One consumer per rank (handles for different ranks may be
  // driven from different threads — that is the intended use).
  Result<DataClient*> client(int32_t rank);

  // Injects a loader failure and recovers via shadow promotion (requires
  // enable_fault_tolerance). Drains the prefetch pipeline first so no
  // in-flight pop can race the kill. Returns the promoted loader's name.
  Result<std::string> KillAndRecoverLoader(size_t loader_index);

  // Elastic resharding (Sec. 6.1): adopts a new parallelism layout on the
  // fly. The DP degree must be unchanged (Data Constructors map 1:1 to DP
  // groups); CP/PP/TP may change freely. The pipeline is drained and every
  // prefetched step is rebuilt against the new mesh from its retained pop
  // slices — no samples are re-popped and none are dropped.
  Status Reshard(const ParallelismSpec& new_spec);

  // Durable checkpoint (src/checkpoint/): commits the data-plane position at
  // the pipeline's retirement frontier into `dir` on disk — planner RNG and
  // plan cursor, every loader's read-state, the journaled in-flight plans,
  // and the per-rank *delivered* cursors — with two-phase staging, so a
  // crash mid-save never corrupts the previous checkpoint. The pipeline is
  // drained during the save and resumes after. Returns the published id.
  // A dead process resumes via Options::resume_dir, on the same
  // mesh (byte-identical continuation) or a different dp/pp/cp/tp mesh and
  // prefetch depth (elastic resume: in-flight plans replayed against the new
  // mesh when the DP degree is unchanged, deterministically replanned from
  // the commit frontier when it is not).
  Result<std::string> Checkpoint(const std::string& dir,
                                 CheckpointWriter::Options writer_options = {});

  // Streaming observability: stats of `step`, blocking until it is produced.
  // Call before the step is fully consumed (it retires afterwards).
  Result<StepStats> StepStatsFor(int64_t step);
  // Live pipeline counters (prefetch hits/stalls, queue depth, retirement).
  PrefetchPipeline::Stats pipeline_stats() const;
  // Remote-storage I/O counters (cache, scheduler, backing store, chaos
  // plane). Non-const: the quarantine count is gathered from the planner.
  // The aggregate and tenant slices come from one locked pass each
  // (SnapshotAll), so on a shared plane the tenant slice is exactly the
  // session's share of the aggregate even while neighbours stream.
  IoStats io_stats();
  // Telemetry (src/telemetry/): the registry this session's subsystems
  // export into — session-owned, or the shared plane's when bound to one.
  // Null when telemetry is disabled.
  MetricsRegistry* metrics() { return metrics_view_; }
  // The step tracer capturing plan/pop/build/fetch/stall/io spans. Null
  // when tracing is off (trace_ring_spans = 0 or telemetry disabled).
  StepTracer* tracer() { return tracer_view_; }
  // The health monitor (Options::health): stall attribution, anomaly
  // detection, flight recorder. Null when not enabled.
  HealthMonitor* health() { return health_.get(); }
  // The latency-injecting backing store decorator (storage_get_latency), for
  // benches that script mid-stream brownouts via set_get_latency. Null
  // without one (including shared-plane sessions — use the plane's).
  LatencyInjectingStore* remote_store() { return remote_store_.get(); }
  // Writes the retained trace ring as Chrome trace-event JSON (load in
  // chrome://tracing or ui.perfetto.dev). Fails when tracing is off.
  Status DumpTrace(const std::string& path);
  // Loaders the planner currently holds in quarantine
  // (loader_id -> step the quarantine started at). Empty when healthy.
  std::map<int32_t, int64_t> QuarantinedLoaders();
  // Client-fed mixture re-weighting (requires a mixture_schedule): commits
  // an override that takes effect at `effective_step` (-1 = the next step the
  // planner has not yet planned). Overrides are checkpointed with the planner
  // state and replayed on resume; committing at an already-planned step is an
  // error (it would fork the stream). Also reachable per rank via
  // DataClient::UpdateMixture.
  Status UpdateMixture(int64_t effective_step, std::vector<double> weights);
  // Last planned step's mixture view: phase, scale, and the effective
  // (quarantine-masked, temperature-scaled) per-source weights. step = -1
  // before the first plan or without a mixture_schedule.
  Planner::MixtureStatus LastMixtureStatus();
  // The fault-injecting store decorator, for tests/benches that script
  // brownouts mid-stream: the session-owned one (storage_faults) or the
  // tenant's private route on a shared plane. Null without either.
  FaultInjectingStore* fault_store();
  // The heartbeat watchdog. Null without watchdog_interval_ms.
  Watchdog* watchdog() { return watchdog_.get(); }
  // Test/tooling hook: the plan and pop slices of a live (unretired) step,
  // e.g. to replay the step through ReferenceDataPlane. Slice aliases only.
  Result<PrefetchPipeline::Capture> CaptureStep(int64_t step);
  // Test/tooling hook: steps with resident StepData per Data Constructor
  // (flushes each constructor's mailbox — pending releases land first).
  std::vector<std::vector<int64_t>> ConstructorResidentSteps();

  const ClientPlaceTree& tree() const { return tree_; }
  const MemoryAccountant& memory() const { return memory_; }
  const std::vector<LoaderPartition>& partitions() const { return partitions_; }
  size_t num_loaders() const { return loaders_.size(); }
  ActorSystem& actor_system() { return system_; }

 private:
  explicit Session(Options options);
  Status Initialize();
  Strategy BuildStrategy() const;
  // Fingerprint of the options that must match across checkpoint/resume.
  CheckpointFingerprint ComputeFingerprint() const;
  // Applies a loaded checkpoint during Initialize (rewinds loaders/planner,
  // seeds the FT frontier and the plan journal).
  Status ApplyResumeState();

  // Copies the cumulative io-subsystem counters into `stats`. Non-const:
  // the quarantine count is an Ask round-trip to the planner actor.
  void FillIoCounters(StepStats* stats);
  // Health-monitor tick, driven from the producer thread after each produced
  // step (via on_produced_meta, which fires after the on_produced chain, so
  // it observes the post-watchdog state): feeds the step's signals to the
  // monitor. Takes the meta captured under the pipeline lock — a consumer
  // retiring the step before the hooks run must not drop the observation.
  void HealthTick(const PrefetchPipeline::StepMeta& meta);
  // Watchdog tick, driven from the producer thread between steps and between
  // produce retry attempts: rate-limits to watchdog_interval_ms, scans the
  // GCS for stale loader heartbeats, and promotes + rebinds shadows of dead
  // loaders. Skips the scan when another control operation is in progress.
  void MaybeRunWatchdog();
  // Copies the process-wide payload-plane freeze/copy counters into `stats`.
  static void FillPayloadCounters(StepStats* stats);

  // Silent-hang recovery mid-production: a loader that accepted a message but
  // never answered within the RPC deadline is promoted out on the spot and the
  // replacement returned, so the producer can re-issue the request instead of
  // blocking forever (the periodic scan can't help here — it only runs between
  // steps, and production never finishes while a get() hangs).
  Result<SourceLoader*> PromoteHungLoader(int32_t loader_id, int64_t step, const char* what);
  // Pop-path wrapper: promote, then re-issue the identical pop. Safe because
  // the shadow's buffer mirrors every completed step's pops, and this step's
  // hung pop never executed on either replica.
  Result<SampleSlice> RecoverHungPop(int32_t loader_id, int64_t step,
                                     const std::vector<uint64_t>& ids);
  // Producer callbacks wired into the prefetch pipeline.
  Result<ProducedStep> ProduceStep(int64_t step);
  Status BuildConstructors(const LoadingPlan& plan,
                           const std::vector<std::vector<SampleSlice>>& slices_per_dp);
  Result<RankBatch> FetchFromConstructor(int32_t rank, int64_t step);
  void ReleaseStepOnConstructors(int64_t step);

  Options options_;
  MemoryAccountant memory_;
  ObjectStore store_{&memory_};
  // Telemetry plane (src/telemetry/). Declared before the io members so the
  // scheduler/pipeline holding a tracer pointer are destroyed first.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<StepTracer> tracer_;
  // The registry/tracer actually in use: the owned ones above, or the shared
  // plane's (non-owning) when options_.shared_plane is set.
  MetricsRegistry* metrics_view_ = nullptr;
  StepTracer* tracer_view_ = nullptr;
  int64_t metrics_collector_ = -1;  // AddCollector handle (-1 = none)
  // Producer-path instruments (owned by the registry; cached pointers).
  Histogram* plan_ms_hist_ = nullptr;
  Histogram* produce_ms_hist_ = nullptr;
  // Diagnosis plane (declared after the registry/tracer it reads; the
  // pipeline is stopped in ~Session before members die, so no health tick
  // can race destruction).
  std::unique_ptr<HealthMonitor> health_;
  // Remote-storage I/O subsystem (src/io/). Declared before system_ so the
  // loaders (actors) holding pointers die first.
  std::unique_ptr<LatencyInjectingStore> remote_store_;  // latency decorator
  std::unique_ptr<FaultInjectingStore> fault_store_;     // chaos decorator
  std::unique_ptr<ObjectStore> cache_spill_store_;       // disk spill tier
  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<IoScheduler> io_;
  // The cache/scheduler the loaders actually use: the owned ones above, or a
  // shared plane's (non-owning) when options_.shared_plane is set.
  BlockCache* cache_view_ = nullptr;
  IoScheduler* io_view_ = nullptr;
  // Disk-backed write-through target for the GCS (gcs_spill_dir option).
  // Declared before system_ so it outlives the Gcs holding a pointer to it.
  std::unique_ptr<ObjectStore> gcs_spill_;
  ActorSystem system_;
  ClientPlaceTree tree_;
  std::vector<LoaderPartition> partitions_;
  std::vector<std::shared_ptr<SourceLoader>> loaders_;
  std::vector<std::shared_ptr<SourceLoader>> shadows_;
  std::vector<std::shared_ptr<DataConstructor>> constructors_;
  std::shared_ptr<Planner> planner_;
  std::unique_ptr<FaultToleranceManager> ft_;
  std::unique_ptr<Watchdog> watchdog_;
  // Last watchdog scan time (steady-clock epoch ms). Producer thread only.
  int64_t last_watchdog_scan_ms_ = 0;
  std::unique_ptr<PrefetchPipeline> pipeline_;
  // Per-step rewind points feeding Checkpoint(); spans the build-ahead window.
  std::unique_ptr<StepStateJournal> state_journal_;
  // Loaded checkpoint when this session was built with a resume_dir.
  std::unique_ptr<CheckpointState> resume_;
  int64_t start_step_ = 0;  // first step this session produces (0 unless resumed)
  // Serializes control operations (Checkpoint — user-called or the periodic
  // auto-checkpoint firing on the producer thread — Reshard, loader
  // recovery) so their pause/resume brackets never interleave.
  std::mutex control_mu_;
  std::mutex clients_mu_;
  std::unordered_map<int32_t, std::unique_ptr<DataClient>> clients_;
};

}  // namespace msd

#endif  // SRC_API_SESSION_H_
