#include "src/api/session.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/data/synthetic.h"
#include "src/data/transform.h"
#include "src/service/shared_plane.h"
#include "src/storage/wire.h"
#include "src/telemetry/bridge.h"

namespace msd {

Session::Session(Options options)
    : options_(std::move(options)),
      tree_(ClientPlaceTree::FromDeviceMesh(options_.spec, options_.num_microbatches)) {}

Session::~Session() {
  if (metrics_view_ != nullptr && metrics_collector_ >= 0) {
    // Unregister before any teardown: RemoveCollector blocks until no
    // Snapshot() is mid-flight, so a concurrent scrape can never run our
    // collector against a half-destroyed session — the pipeline/planner it
    // reads are still fully alive here. Matters most when the registry is a
    // shared plane's, which outlives this session.
    metrics_view_->RemoveCollector(metrics_collector_);
  }
  if (pipeline_ != nullptr) {
    pipeline_->Stop();  // join the producer before tearing down the actors
  }
  system_.Shutdown();
  if (options_.shared_plane != nullptr && io_view_ != nullptr) {
    // Shared-plane teardown ordering: the actors are gone (no new Fetches for
    // this tenant can be issued), but reads they started may still be running
    // or queued on the shared scheduler. Drain them deterministically before
    // returning, so a caller may free tenant-scoped state (e.g. via
    // SharedIoPlane::DrainAndRemoveTenant) the moment the session is gone.
    io_view_->DrainTenant(options_.io_tenant);
  }
}

Result<std::unique_ptr<Session>> Session::Create(Options options) {
  if (options.corpus.sources.empty()) {
    return Status::InvalidArgument("corpus has no sources");
  }
  if (options.prefetch_depth < 0) {
    return Status::InvalidArgument("prefetch_depth must be >= 0");
  }
  if (options.block_cache_bytes < 0 || options.read_ahead_groups < 0 ||
      options.storage_get_latency < 0 || options.row_group_bytes < 0) {
    return Status::InvalidArgument("io options must be >= 0");
  }
  if (options.shared_plane != nullptr) {
    // The plane provides the whole I/O tier; a session bound to one must not
    // stand up a private cache/latency/fault/durable-GCS stack underneath it.
    if (options.block_cache_bytes > 0 || !options.cache_spill_dir.empty() ||
        options.storage_get_latency > 0 || options.storage_faults.enabled() ||
        !options.gcs_spill_dir.empty()) {
      return Status::InvalidArgument(
          "a shared-plane session must leave the per-session I/O options "
          "unset (block_cache_bytes, cache_spill_dir, storage_get_latency, "
          "storage_faults, gcs_spill_dir) — the plane provides them");
    }
    if (options.io_tenant < 0) {
      return Status::InvalidArgument("io_tenant must be >= 0");
    }
  } else if (options.io_tenant != kDefaultIoTenant || !options.gcs_namespace.empty()) {
    return Status::InvalidArgument(
        "io_tenant/gcs_namespace only apply with a shared I/O plane "
        "(shared_plane)");
  }
  if (options.read_ahead_groups > 0 && options.block_cache_bytes <= 0 &&
      options.shared_plane == nullptr) {
    return Status::InvalidArgument(
        "read_ahead_groups needs the block cache (block_cache_bytes) to land "
        "its prefetched groups somewhere");
  }
  if (!options.cache_spill_dir.empty() && options.block_cache_bytes <= 0) {
    return Status::InvalidArgument(
        "cache_spill_dir needs the block cache enabled (block_cache_bytes)");
  }
  if (options.storage_faults.enabled() && options.block_cache_bytes <= 0) {
    return Status::InvalidArgument(
        "storage_faults needs the block cache (block_cache_bytes): the retry "
        "machinery under test lives in the ranged-read path");
  }
  if (options.io_retry.max_attempts < 1 || options.produce_retry_attempts < 1) {
    return Status::InvalidArgument(
        "io_retry.max_attempts and produce_retry_attempts must be >= 1");
  }
  if (options.trace_ring_spans < 0) {
    return Status::InvalidArgument("trace_ring_spans must be >= 0 (0 = no tracing)");
  }
  if (options.health.enabled) {
    if (!options.telemetry_enabled) {
      return Status::InvalidArgument(
          "the health monitor reads the metrics registry and span ring "
          "(telemetry_enabled)");
    }
    if (options.trace_ring_spans <= 0 && options.shared_plane == nullptr) {
      return Status::InvalidArgument(
          "stall attribution needs the span ring (trace_ring_spans > 0)");
    }
    if (options.prefetch_depth < 1) {
      // The health tick fires from the producer thread after each produced
      // step; synchronous mode has no producer thread to fire it from.
      return Status::InvalidArgument(
          "the health monitor requires an asynchronous pipeline "
          "(prefetch_depth >= 1)");
    }
  }
  if (options.quarantine_after_failures < 0 || options.loader_rpc_timeout_ms < 0 ||
      options.watchdog_interval_ms < 0 || options.watchdog_heartbeat_timeout_ms < 0) {
    return Status::InvalidArgument("chaos-plane options must be >= 0");
  }
  if (options.watchdog_interval_ms > 0) {
    if (!options.enable_fault_tolerance) {
      return Status::InvalidArgument(
          "the watchdog needs hot-standby shadows to promote "
          "(enable_fault_tolerance)");
    }
    if (options.prefetch_depth < 1) {
      // The scan fires from the producer thread between steps; synchronous
      // mode has no producer thread to fire it from.
      return Status::InvalidArgument(
          "the watchdog requires an asynchronous pipeline (prefetch_depth >= 1)");
    }
  }
  if (options.quarantine_after_failures > 0 &&
      options.produce_retry_attempts <= options.quarantine_after_failures) {
    // The planner needs K consecutive failed gathers to quarantine, and each
    // failed gather surfaces as one failed (retried) produce round — give
    // production enough budget to live through the quarantine decision plus
    // the first renormalized round.
    options.produce_retry_attempts = options.quarantine_after_failures + 2;
  }
  if (!options.auto_checkpoint_dir.empty() || options.auto_checkpoint_every > 0) {
    if (options.auto_checkpoint_dir.empty() || options.auto_checkpoint_every <= 0) {
      return Status::InvalidArgument(
          "auto-checkpoint needs both a directory and a positive step interval");
    }
    if (!options.enable_checkpoint_journal) {
      return Status::InvalidArgument(
          "auto-checkpoint requires the checkpoint journal "
          "(enable_checkpoint_journal)");
    }
    if (options.prefetch_depth < 1) {
      // The periodic save fires from the producer thread; synchronous mode
      // has no producer thread to fire it from.
      return Status::InvalidArgument(
          "auto-checkpoint requires an asynchronous pipeline (prefetch_depth >= 1)");
    }
  }
  if (options.backbone.layers == 0) {
    options.backbone = Llama12B();
  }
  if (options.encoder.layers == 0) {
    options.encoder = ViT1B();
  }
  if (options.mixture_schedule != nullptr) {
    if (options.schedule != nullptr) {
      return Status::InvalidArgument(
          "mixture_schedule and schedule are mutually exclusive — the "
          "mixture schedule IS the mixing schedule");
    }
    if (options.mixture_schedule->num_sources() != options.corpus.sources.size()) {
      return Status::InvalidArgument(
          "mixture schedule arity (" +
          std::to_string(options.mixture_schedule->num_sources()) +
          ") must match the corpus source count (" +
          std::to_string(options.corpus.sources.size()) + ")");
    }
    for (int32_t scale : options.mixture_schedule->scale_set()) {
      if (scale <= 0 || scale > options.max_seq_len) {
        return Status::InvalidArgument(
            "mixture scale_set entries must be in (0, max_seq_len]; got " +
            std::to_string(scale) + " with max_seq_len " +
            std::to_string(options.max_seq_len));
      }
    }
    options.schedule = options.mixture_schedule;
  }
  if (options.schedule == nullptr) {
    options.schedule =
        std::make_shared<StaticMix>(options.corpus.UniformWeights());
  }
  std::unique_ptr<Session> session(new Session(std::move(options)));
  if (!session->options_.resume_dir.empty()) {
    // Durable resume: load (and checksum-verify) the checkpoint before any
    // heavy initialization; Initialize() then rewinds the data plane to it.
    ObjectStore ckpt_store(session->options_.resume_dir);
    Result<CheckpointState> loaded = CheckpointReader::Load(ckpt_store);
    if (!loaded.ok()) {
      return loaded.status();
    }
    session->resume_ = std::make_unique<CheckpointState>(std::move(loaded.value()));
  }
  Status init = session->Initialize();
  if (!init.ok()) {
    return init;
  }
  return session;
}

Strategy Session::BuildStrategy() const {
  StrategyOptions so;
  so.samples_per_step = options_.samples_per_step;
  so.schedule = options_.schedule;
  so.method = options_.balance_method;
  switch (options_.strategy) {
    case StrategyKind::kVanilla:
      return MakeVanillaStrategy(so);
    case StrategyKind::kBackboneBalance:
      return MakeLlmBalanceStrategy(so, BackboneCostFn(options_.backbone));
    case StrategyKind::kHybridBalance:
      return MakeVlmHybridStrategy(so, BackboneCostFn(options_.backbone),
                                   EncoderCostFn(options_.encoder));
  }
  return MakeVanillaStrategy(so);
}

Status Session::Initialize() {
  // 0a. Telemetry plane: the registry/tracer every subsystem below exports
  // into. A plane-bound session adopts the PLANE's (one registry per plane
  // keeps operator snapshots cross-tenant consistent and one trace ring
  // interleaves every tenant's spans); an owned session stands up its own.
  if (options_.telemetry_enabled) {
    if (options_.shared_plane != nullptr) {
      metrics_view_ = options_.shared_plane->metrics();
      tracer_view_ = options_.shared_plane->tracer();
    } else {
      metrics_ = std::make_unique<MetricsRegistry>();
      metrics_view_ = metrics_.get();
      if (options_.trace_ring_spans > 0) {
        tracer_ = std::make_unique<StepTracer>(static_cast<size_t>(options_.trace_ring_spans));
        tracer_view_ = tracer_.get();
      }
    }
  }
  if (metrics_view_ != nullptr) {
    // Producer-path latency histograms. Tenant-labelled on a shared plane so
    // co-hosted jobs' planning/production costs stay separable.
    const IoTenantId label =
        options_.shared_plane != nullptr ? options_.io_tenant : kMetricNoTenant;
    plan_ms_hist_ = metrics_view_->GetHistogram(
        "msd_step_plan_ms", {0.5, 1, 2.5, 5, 10, 25, 50, 100, 250}, label);
    produce_ms_hist_ = metrics_view_->GetHistogram(
        "msd_step_produce_ms", {1, 2.5, 5, 10, 25, 50, 100, 250, 1000}, label);
  }
  if (options_.health.enabled) {
    // 0b. Diagnosis plane. Built on the (possibly plane-owned) registry and
    // tracer adopted above; strictly read-side, so standing it up changes no
    // delivered byte.
    health_ = std::make_unique<HealthMonitor>(options_.health, options_.io_tenant,
                                              metrics_view_, tracer_view_);
  }

  // 0. Durable GCS: attach the disk-backed write-through before anything
  // journals state, so every plan/snapshot write from step 0 on survives
  // the process. A shared-plane session uses the plane's store under its
  // tenant namespace ("gcs/<ns>/"), so co-hosted jobs never read each
  // other's journals.
  if (!options_.gcs_spill_dir.empty()) {
    gcs_spill_ = std::make_unique<ObjectStore>(options_.gcs_spill_dir);
    system_.gcs().AttachDurableStore(gcs_spill_.get());
  } else if (options_.shared_plane != nullptr &&
             options_.shared_plane->gcs_store() != nullptr) {
    std::string prefix = "gcs/";
    if (!options_.gcs_namespace.empty()) {
      prefix += options_.gcs_namespace + "/";
    }
    system_.gcs().AttachDurableStore(options_.shared_plane->gcs_store(),
                                     std::move(prefix));
  }

  // 1. Materialize the corpus into the object store.
  CorpusSpec corpus = options_.corpus;
  if (options_.rows_per_file_override > 0) {
    for (SourceSpec& src : corpus.sources) {
      src.rows_per_file = options_.rows_per_file_override;
    }
  }
  MsdfWriteOptions write_options;
  if (options_.row_group_bytes > 0) {
    write_options.target_row_group_bytes = options_.row_group_bytes;
  } else {
    write_options.target_row_group_bytes = 4 * kMiB;  // synthetic default
  }
  // Shared-plane tenants materialize into the PLANE's store, which dedups
  // sources already written by an earlier tenant (same spec + seed = same
  // bytes); owned sessions write into their private store as before.
  Result<int64_t> rows =
      options_.shared_plane != nullptr
          ? options_.shared_plane->MaterializeCorpus(corpus, options_.seed, write_options)
          : WriteCorpus(store_, corpus, options_.seed, write_options);
  if (!rows.ok()) {
    return rows.status();
  }

  // 1b. Remote-storage I/O subsystem. A shared-plane session binds to the
  // plane's cache + fair-share scheduler (non-owning views) instead of
  // standing up its own; an owned session builds the decorators + cache +
  // scheduler exactly as before and points the views at them.
  ObjectStore* loader_store = &store_;
  if (options_.shared_plane != nullptr) {
    loader_store = options_.shared_plane->loader_store(options_.io_tenant);
    cache_view_ = options_.shared_plane->cache();
    io_view_ = options_.shared_plane->scheduler();
  }
  if (options_.storage_get_latency > 0) {
    RemoteStorageParams params;
    params.get_latency = options_.storage_get_latency;
    remote_store_ = std::make_unique<LatencyInjectingStore>(&store_, params);
    loader_store = remote_store_.get();
  }
  if (options_.storage_faults.enabled()) {
    // Chaos decorator goes outside the latency decorator — fault(latency(
    // base)) — so an injected timeout still pays the latency of the Get it
    // interrupted, and a retried Get pays it again.
    fault_store_ = std::make_unique<FaultInjectingStore>(loader_store, options_.storage_faults);
    loader_store = fault_store_.get();
  }
  if (options_.block_cache_bytes > 0) {
    BlockCache::Config cache_config;
    cache_config.capacity_bytes = options_.block_cache_bytes;
    if (!options_.cache_spill_dir.empty()) {
      cache_spill_store_ = std::make_unique<ObjectStore>(options_.cache_spill_dir);
      cache_config.spill = cache_spill_store_.get();
    }
    block_cache_ = std::make_unique<BlockCache>(cache_config);
    IoScheduler::Config io_config;
    // Deep read-ahead windows need matching issue depth or the prefetches
    // serialize behind each other; the pool threads spend their time parked
    // in (simulated) storage latency, so scaling them is cheap.
    io_config.threads = static_cast<size_t>(
        std::clamp(options_.read_ahead_groups * 2, 4, 32));
    io_config.max_inflight = static_cast<int32_t>(io_config.threads);
    io_config.retry = options_.io_retry;
    io_config.hedge = options_.io_hedge;
    io_config.tracer = tracer_view_;
    io_ = std::make_unique<IoScheduler>(loader_store, block_cache_.get(), io_config);
    cache_view_ = block_cache_.get();
    io_view_ = io_.get();
  }

  // 2. Offline source auto-partitioning from per-source cost profiles.
  std::vector<SourceCostProfile> profiles;
  Rng profile_rng(options_.seed ^ 0x51);
  for (const SourceSpec& src : corpus.sources) {
    SourceCostProfile profile;
    profile.source_id = src.source_id;
    RunningStat stat;
    for (int i = 0; i < 16; ++i) {
      SampleMeta meta = src.DrawMeta(profile_rng, 0);
      stat.Add(static_cast<double>(
          SampleTransformLatency(meta, src.transform_cost_multiplier)));
    }
    profile.transform_cost = stat.mean();
    profile.memory_bytes =
        src.num_files * (kSocketBufferBytes + 64 * kKiB + src.rows_per_file * 8 * kKiB);
    profiles.push_back(profile);
  }
  ClusterResources resources;
  resources.total_workers = std::max<int64_t>(
      16, static_cast<int64_t>(corpus.sources.size()) * options_.loader_workers);
  PartitionBounds bounds;
  bounds.wactor = options_.loader_workers;
  partitions_ = AutoPartitionSources(profiles, resources, bounds);

  // 3. Spawn Source Loaders (+ shadows) per partition actor.
  std::map<int32_t, const SourceSpec*> spec_of;
  for (const SourceSpec& src : corpus.sources) {
    spec_of[src.source_id] = &src;
  }
  int32_t next_loader_id = 0;
  for (const LoaderPartition& part : partitions_) {
    const SourceSpec& src = *spec_of.at(part.source_id);
    int32_t actors = std::min<int32_t>(part.num_actors, static_cast<int32_t>(src.num_files));
    actors = std::max(actors, 1);
    for (int32_t a = 0; a < actors; ++a) {
      SourceLoaderConfig config;
      config.loader_id = next_loader_id++;
      config.spec = src;
      if (options_.rows_per_file_override > 0) {
        config.spec.rows_per_file = options_.rows_per_file_override;
      }
      for (int64_t f = a; f < src.num_files; f += actors) {
        config.files.push_back(SourceFileName(src, f));
      }
      config.num_workers = std::max(1, part.workers_per_actor);
      config.defer_image_decode = options_.defer_image_decode;
      config.max_decode_patches = options_.bound_pixel_decode ? options_.max_seq_len : 0;
      config.read_ahead_groups = options_.read_ahead_groups;
      config.ranged_reads = remote_store_ != nullptr || options_.shared_plane != nullptr;
      config.io_tenant = options_.io_tenant;
      config.buffer_low_watermark =
          static_cast<size_t>(options_.samples_per_step) * 2 / std::max<size_t>(1, actors) + 8;
      auto loader = system_.Spawn<SourceLoader>(config, loader_store, &memory_, io_view_);
      Status open = system_.Ask<Status>(*loader, [l = loader.get()] { return l->Open(); });
      if (!open.ok()) {
        return open;
      }
      loaders_.push_back(loader);
      if (options_.enable_fault_tolerance) {
        SourceLoaderConfig shadow_config = config;
        shadow_config.is_shadow = true;
        auto shadow =
            system_.Spawn<SourceLoader>(shadow_config, loader_store, &memory_, io_view_);
        Status shadow_open =
            system_.Ask<Status>(*shadow, [s = shadow.get()] { return s->Open(); });
        if (!shadow_open.ok()) {
          return shadow_open;
        }
        shadows_.push_back(shadow);
      }
    }
  }

  // 4. One Data Constructor per DP group, keeping the resident window the
  // prefetch pipeline relies on: eviction must never race consumption.
  for (int32_t dp = 0; dp < options_.spec.dp; ++dp) {
    DataConstructorConfig config;
    config.constructor_id = dp;
    config.max_seq_len = options_.max_seq_len;
    config.max_decode_patches = options_.bound_pixel_decode ? options_.max_seq_len : 0;
    config.resident_steps = ResidentStepsForDepth(options_.prefetch_depth);
    constructors_.push_back(system_.Spawn<DataConstructor>(config, &tree_, &memory_));
  }

  // 5. Central Planner with the selected strategy.
  PlannerConfig planner_config;
  planner_config.seed = options_.seed;
  planner_config.mixture = options_.mixture_schedule;
  planner_config.quarantine_after_failures = options_.quarantine_after_failures;
  planner_config.quarantine_probe_interval = options_.quarantine_probe_interval;
  if (options_.loader_rpc_timeout_ms > 0) {
    planner_config.loader_rpc_timeout_ms = options_.loader_rpc_timeout_ms;
  }
  planner_ =
      system_.Spawn<Planner>(planner_config, &system_, &tree_, BuildStrategy(), &memory_);
  std::vector<SourceLoader*> raw_loaders;
  raw_loaders.reserve(loaders_.size());
  for (auto& l : loaders_) {
    raw_loaders.push_back(l.get());
  }
  system_.Ask<bool>(*planner_, [p = planner_.get(), raw_loaders] {
    p->SetLoaders(raw_loaders);
    return true;
  });

  // 6. Fault tolerance manager.
  if (options_.enable_fault_tolerance) {
    FaultToleranceConfig ft_config;
    ft_config.loader_snapshot_interval = options_.loader_snapshot_interval;
    ft_ = std::make_unique<FaultToleranceManager>(ft_config, &system_);
    for (size_t i = 0; i < loaders_.size(); ++i) {
      ft_->RegisterPair(loaders_[i].get(), shadows_[i].get());
    }
  }

  // 6b. Heartbeat watchdog: catches loaders that die silently (heartbeat
  // stops, no error ever surfaces) and promotes their shadows mid-stream.
  if (options_.watchdog_interval_ms > 0) {
    watchdog_ = std::make_unique<Watchdog>(&system_, ft_.get(),
                                           options_.watchdog_heartbeat_timeout_ms);
    // Loaders heartbeat when they answer a metadata gather; stamp t0 for
    // everyone so a loader that dies before its first gather is measured
    // from session start (the GCS treats a never-heartbeated actor as
    // infinitely stale, which would promote healthy-but-unasked loaders).
    const int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count();
    for (auto& loader : loaders_) {
      system_.gcs().Heartbeat(loader->name(), now_ms);
    }
    for (auto& shadow : shadows_) {
      system_.gcs().Heartbeat(shadow->name(), now_ms);
    }
    last_watchdog_scan_ms_ = now_ms;
  }

  // 7. Checkpoint support: the per-step rewind ring (spans the build-ahead
  // window), then — when resuming — rewind the freshly built data plane to
  // the loaded checkpoint before the pipeline starts producing.
  state_journal_ =
      std::make_unique<StepStateJournal>(static_cast<size_t>(options_.prefetch_depth) + 4);
  if (resume_ != nullptr) {
    MSD_RETURN_IF_ERROR(ApplyResumeState());
    start_step_ = resume_->commit_step;
  }

  // 8. The prefetch pipeline: builds steps ahead of consumption and retires
  // them by rank refcount. Starts producing immediately (warmup) — from the
  // resumed commit frontier when this session was built with a resume_dir.
  PrefetchPipeline::Config pipeline_config;
  pipeline_config.depth = options_.prefetch_depth;
  pipeline_config.start_step = start_step_;
  pipeline_config.produce_max_attempts = options_.produce_retry_attempts;
  pipeline_config.tracer = tracer_view_;
  pipeline_config.tenant = options_.io_tenant;
  if (watchdog_ != nullptr) {
    // Scan while production is stuck retrying: a dead loader's gather fails
    // every attempt, and the only way out is the shadow promotion this
    // callback drives (the retry backoff gives the promotion time to land).
    pipeline_config.on_produce_error = [this](int64_t, const Status&) { MaybeRunWatchdog(); };
  }
  if (health_ != nullptr) {
    // Produce-retry exhaustion is a hard health event: the pipeline halts
    // terminally, so dump the evidence while the span ring still holds it.
    pipeline_config.on_halted = [this](int64_t step, const Status& error) {
      health_->OnHardEvent("produce-exhausted",
                           "step " + std::to_string(step) + ": " + error.ToString());
    };
  }
  if (options_.auto_checkpoint_every > 0) {
    // Fires on the producer thread between steps (outside in_produce_), so
    // the Checkpoint() pause/drain cannot deadlock with production.
    pipeline_config.on_produced = [this](int64_t step) {
      if ((step + 1) % options_.auto_checkpoint_every != 0) {
        return;
      }
      CheckpointWriter::Options writer_options;
      writer_options.keep_generations = options_.checkpoint_keep_generations;
      Result<std::string> saved = Checkpoint(options_.auto_checkpoint_dir, writer_options);
      if (!saved.ok()) {
        MSD_LOG_WARN("auto-checkpoint after step %lld failed: %s",
                     static_cast<long long>(step), saved.status().ToString().c_str());
      }
    };
  }
  if (watchdog_ != nullptr) {
    // Steady-state scan cadence: piggyback on the per-step callback (fires
    // outside in_produce_, so the scan's Pause() bracket cannot deadlock
    // with production). Composes with the auto-checkpoint hook above.
    std::function<void(int64_t)> chained = std::move(pipeline_config.on_produced);
    pipeline_config.on_produced = [this, chained = std::move(chained)](int64_t step) {
      if (chained) {
        chained(step);
      }
      MaybeRunWatchdog();
    };
  }
  if (health_ != nullptr) {
    // Health tick LAST: on_produced_meta fires after the whole on_produced
    // chain (checkpoint, watchdog), so the tick observes the post-checkpoint,
    // post-watchdog state of the step — and it receives the StepMeta captured
    // under the pipeline lock, so a consumer that pops and retires the step
    // before the hooks run cannot starve the monitor of observations.
    pipeline_config.on_produced_meta =
        [this](const PrefetchPipeline::StepMeta& meta) { HealthTick(meta); };
  }
  if (resume_ != nullptr && options_.spec == resume_->mesh &&
      resume_->cursors.size() == static_cast<size_t>(options_.spec.WorldSize())) {
    // Same mesh: every rank resumes at its exact cursor, so no rank
    // re-receives or skips a step. On a changed mesh ranks have no stable
    // identity across the resume; everyone starts at the commit frontier.
    pipeline_config.initial_cursors = resume_->cursors;
  }
  pipeline_ = std::make_unique<PrefetchPipeline>(
      pipeline_config, options_.spec.WorldSize(),
      [this](int64_t step) { return ProduceStep(step); },
      [this](int32_t rank, int64_t step) { return FetchFromConstructor(rank, step); },
      [this](const LoadingPlan& plan, const std::vector<std::vector<SampleSlice>>& slices) {
        return BuildConstructors(plan, slices);
      },
      [this](int64_t step) { ReleaseStepOnConstructors(step); });

  // 9. Register this session's collector with the registry. An owned session
  // bridges its whole stack; a plane-bound one contributes only the series
  // the plane cannot see (pipeline progress, quarantine), tenant-labelled —
  // the plane's own collector covers cache/scheduler/storage for every
  // tenant, so no series is ever emitted twice.
  if (metrics_view_ != nullptr) {
    const bool shared = options_.shared_plane != nullptr;
    metrics_collector_ = metrics_view_->AddCollector(
        [this, shared](std::vector<MetricPoint>* out) {
          const IoTenantId label = shared ? options_.io_tenant : kMetricNoTenant;
          AppendPipelineMetrics(pipeline_->stats(), label, out);
          if (options_.quarantine_after_failures > 0) {
            MetricPoint q;
            q.name = "msd_sources_quarantined";
            q.kind = MetricKind::kGauge;
            q.tenant = label;
            q.value = static_cast<double>(
                system_.Ask<int64_t>(*planner_, [p = planner_.get()] {
                  return static_cast<int64_t>(p->quarantined_loaders().size());
                }));
            out->push_back(std::move(q));
          }
          if (options_.mixture_schedule != nullptr) {
            // Schedule gauges from the planner's last-planned-step snapshot:
            // the phase index, the multi-scale pick, and one effective-weight
            // gauge per source (quarantine-masked, temperature-scaled).
            const Planner::MixtureStatus mix = system_.Ask<Planner::MixtureStatus>(
                *planner_, [p = planner_.get()] { return p->mixture_status(); });
            if (mix.step >= 0) {
              MetricPoint phase;
              phase.name = "msd_mixture_phase";
              phase.kind = MetricKind::kGauge;
              phase.tenant = label;
              phase.value = static_cast<double>(mix.phase);
              out->push_back(std::move(phase));
              MetricPoint scale;
              scale.name = "msd_mixture_scale";
              scale.kind = MetricKind::kGauge;
              scale.tenant = label;
              scale.value = static_cast<double>(mix.scale);
              out->push_back(std::move(scale));
              for (size_t s = 0; s < mix.effective_weights.size(); ++s) {
                MetricPoint weight;
                weight.name = "msd_mixture_effective_weight_s" + std::to_string(s);
                weight.kind = MetricKind::kGauge;
                weight.tenant = label;
                weight.value = mix.effective_weights[s];
                out->push_back(std::move(weight));
              }
            }
          }
          if (shared) {
            return;
          }
          if (cache_view_ != nullptr) {
            AppendCacheMetrics(cache_view_->stats(), kMetricNoTenant, out);
          }
          if (io_view_ != nullptr) {
            AppendSchedulerMetrics(io_view_->stats(), kMetricNoTenant, out);
          }
          if (remote_store_ != nullptr) {
            AppendStorageMetrics(remote_store_->gets(), remote_store_->bytes_served(),
                                 kMetricNoTenant, out);
          }
          if (fault_store_ != nullptr) {
            AppendFaultMetrics(fault_store_->faults_injected(),
                               fault_store_->corruptions_injected(),
                               fault_store_->brownout_failures(), kMetricNoTenant, out);
          }
          if (watchdog_ != nullptr) {
            MetricPoint w;
            w.name = "msd_watchdog_detections_total";
            w.kind = MetricKind::kCounter;
            w.value = static_cast<double>(watchdog_->detections());
            out->push_back(std::move(w));
          }
          AppendPayloadMetrics(out);
          AppendLoggingMetrics(out);
        });
  }

  pipeline_->Start();
  return Status::Ok();
}

CheckpointFingerprint Session::ComputeFingerprint() const {
  CheckpointFingerprint fp;
  // Everything that determines the byte stream must be hashed: the resumed
  // job replays pops against a corpus it re-materializes from these specs.
  WireWriter w;
  for (const SourceSpec& src : options_.corpus.sources) {
    w.PutU32(static_cast<uint32_t>(src.source_id));
    w.PutBytes(src.name);
    w.PutU8(static_cast<uint8_t>(src.modality));
    w.PutI64(src.num_files);
    w.PutI64(options_.rows_per_file_override > 0 ? options_.rows_per_file_override
                                                 : src.rows_per_file);
    w.PutF64(src.transform_cost_multiplier);
    w.PutU32(static_cast<uint32_t>(src.text_bucket_weights.size()));
    for (double weight : src.text_bucket_weights) {
      w.PutF64(weight);
    }
    w.PutU32(static_cast<uint32_t>(src.image_bucket_weights.size()));
    for (double weight : src.image_bucket_weights) {
      w.PutF64(weight);
    }
  }
  // Row-group sizing shapes the refill granularity and with it the buffer
  // contents the planner sees — a resume must re-materialize identically.
  // (Cache/read-ahead/latency options are deliberately NOT hashed: they
  // change timing, never bytes.)
  w.PutI64(options_.row_group_bytes);
  // The MixSchedule is an opaque callable, but its weight trajectory is
  // observable: probe it at a spread of steps so a resume with different
  // stage weights (or a missing curriculum) fails validation instead of
  // silently forking the stream. A custom schedule that differs only at
  // unprobed steps still slips through — supply the identical schedule.
  if (options_.mixture_schedule != nullptr) {
    // The dynamic schedule is hashed structurally (phases, temperatures,
    // scale set, scale seed): probing WeightsAt would fold runtime-committed
    // overrides into the fingerprint and reject every resume of a job that
    // ever called UpdateMixture. Overrides travel in the planner checkpoint.
    w.PutU64(options_.mixture_schedule->StructuralFingerprint());
  } else {
    for (int64_t probe : {0, 1, 7, 50, 400, 3000, 20000}) {
      for (double weight : options_.schedule->WeightsAt(probe)) {
        w.PutF64(weight);
      }
    }
  }
  // The decode bound clamps pixel counts before packing — byte-affecting.
  w.PutU8(options_.bound_pixel_decode ? 1 : 0);
  fp.corpus_hash = Fnv1a64(w.buffer());
  fp.seed = options_.seed;
  fp.samples_per_step = options_.samples_per_step;
  fp.max_seq_len = options_.max_seq_len;
  fp.num_microbatches = options_.num_microbatches;
  fp.loader_workers = options_.loader_workers;
  fp.strategy = static_cast<uint8_t>(options_.strategy);
  fp.balance_method = static_cast<uint8_t>(options_.balance_method);
  fp.defer_image_decode = options_.defer_image_decode ? 1 : 0;
  return fp;
}

Status Session::ApplyResumeState() {
  const CheckpointState& ckpt = *resume_;
  if (!(ComputeFingerprint() == ckpt.fingerprint)) {
    return Status::FailedPrecondition(
        "resume options incompatible with checkpoint: corpus/seed/step-shape "
        "must match the checkpointed job (only mesh and prefetch depth may "
        "change)");
  }
  const int64_t commit = ckpt.commit_step;
  const bool dp_same = options_.spec.dp == ckpt.mesh.dp;
  if (!dp_same && ckpt.planner_at_commit.next_unplanned != commit) {
    // The commit frontier sits inside a window that was itself replayed from
    // an older checkpoint's journal, so no replayable planner state exists
    // at exactly `commit` — and a DP change cannot reuse the journaled plans
    // (their bucketing is bound to the old DP degree).
    return Status::FailedPrecondition(
        "cannot change the DP degree while resuming inside a replayed plan "
        "window; consume past step " +
        std::to_string(ckpt.planner_at_commit.next_unplanned) +
        " and checkpoint again first");
  }

  // Rewind every loader (and its shadow) to its read-state after the pops of
  // step commit-1; deterministic refill rebuilds the exact buffer.
  if (commit > 0) {
    for (size_t i = 0; i < loaders_.size(); ++i) {
      const int32_t loader_id = loaders_[i]->config().loader_id;
      auto it = ckpt.loader_snapshots.find(loader_id);
      if (it == ckpt.loader_snapshots.end()) {
        return Status::DataLoss("checkpoint has no snapshot for loader " +
                                std::to_string(loader_id));
      }
      Result<LoaderSnapshot> snap = LoaderSnapshot::Deserialize(it->second);
      if (!snap.ok()) {
        return snap.status();
      }
      Status restored = system_.Ask<Status>(
          *loaders_[i],
          [l = loaders_[i].get(), s = snap.value()] { return l->Restore(s); });
      if (!restored.ok()) {
        return restored;
      }
      if (i < shadows_.size() && shadows_[i] != nullptr) {
        Status shadow_restored = system_.Ask<Status>(
            *shadows_[i],
            [l = shadows_[i].get(), s = std::move(snap.value())] { return l->Restore(s); });
        if (!shadow_restored.ok()) {
          return shadow_restored;
        }
      }
    }
  }

  // Rewind the planner. Same DP degree: restore the produce-frontier state
  // and install the journaled in-flight plans [commit, P) — they are served
  // as cache hits and rebuilt against whatever mesh is now bound, the same
  // machinery Reshard() uses. Different DP degree: the journaled bucketing
  // is unusable, so restore the commit-frontier state and deterministically
  // replan everything from `commit` against the new mesh.
  if (dp_same) {
    std::map<int64_t, LoadingPlan> replay;
    for (const auto& [step, bytes] : ckpt.plan_journal) {
      Result<LoadingPlan> plan = LoadingPlan::Deserialize(bytes);
      if (!plan.ok()) {
        return plan.status();
      }
      replay.emplace(step, std::move(plan.value()));
    }
    system_.Ask<bool>(*planner_, [p = planner_.get(), state = ckpt.planner_at_frontier,
                                  replay = std::move(replay)]() mutable {
      p->RestoreCheckpoint(state, std::move(replay));
      return true;
    });
  } else {
    system_.Ask<bool>(*planner_, [p = planner_.get(), state = ckpt.planner_at_commit] {
      p->RestoreCheckpoint(state);
      return true;
    });
  }

  // Seed the FT machinery: the loader snapshots double as the differential-
  // checkpoint frontier (post-resume recovery replays plans after commit-1).
  if (ft_ != nullptr) {
    if (commit > 0) {
      ft_->SeedSnapshots(commit - 1, ckpt.loader_snapshots);
    }
    ft_->RestoreCounters(ckpt.ft_snapshots_taken, ckpt.ft_promotions);
  }

  // Seed the rewind ring so an immediate re-checkpoint at the same frontier
  // still finds its commit-state entry.
  if (commit > 0) {
    StepStateEntry entry;
    entry.step = commit - 1;
    entry.planner = ckpt.planner_at_commit;
    entry.loader_snapshots = ckpt.loader_snapshots;
    state_journal_->Record(std::move(entry));
  }
  return Status::Ok();
}

Result<std::string> Session::Checkpoint(const std::string& dir,
                                        CheckpointWriter::Options writer_options) {
  if (!options_.enable_checkpoint_journal) {
    return Status::FailedPrecondition(
        "checkpointing disabled for this session (enable_checkpoint_journal)");
  }
  // Serialize with the other control operations: a user-called Checkpoint and
  // the periodic auto-checkpoint (producer thread) must not interleave their
  // pause/resume brackets with each other or with Reshard/loader recovery.
  std::lock_guard<std::mutex> control(control_mu_);
  // Drain production so no pop/build is mid-air, then commit the pipeline's
  // retirement frontier C: steps below it are fully consumed by every rank;
  // steps in [C, P) were popped but not consumed — the resumed job re-pops
  // them from the rewound loaders using the journaled plans.
  pipeline_->Pause();
  PrefetchPipeline::Frontier frontier = pipeline_->frontier();
  CheckpointState state;
  state.commit_step = frontier.commit_step;
  state.produce_frontier = frontier.produce_frontier;
  state.mesh = options_.spec;
  state.prefetch_depth = options_.prefetch_depth;
  state.cursors = frontier.cursors;
  state.planner_at_frontier = system_.Ask<PlannerCheckpoint>(
      *planner_, [p = planner_.get()] { return p->CheckpointState(); });
  if (frontier.commit_step > 0) {
    std::optional<StepStateEntry> entry = state_journal_->EntryFor(frontier.commit_step - 1);
    if (!entry.has_value()) {
      pipeline_->Resume();
      return Status::Internal("no rewind point recorded for step " +
                              std::to_string(frontier.commit_step - 1) +
                              " (state-journal window exceeded)");
    }
    state.planner_at_commit = entry->planner;
    state.loader_snapshots = std::move(entry->loader_snapshots);
  } else {
    // Nothing consumed yet: the commit state is the seed state.
    state.planner_at_commit.rng_state = Rng(options_.seed).state();
  }
  // The in-flight plan window, straight from the high-frequency GCS journal.
  // A hole here would make a same-DP resume fail at restore time, when the
  // original process may already be gone — fail the save loudly instead.
  for (int64_t s = frontier.commit_step; s < state.planner_at_frontier.next_unplanned; ++s) {
    std::optional<std::string> blob = system_.gcs().GetState(Planner::PlanJournalKey(s));
    if (!blob.has_value()) {
      pipeline_->Resume();
      return Status::DataLoss("plan journal has no entry for in-flight step " +
                              std::to_string(s) + "; refusing to publish a checkpoint "
                              "that could not be resumed");
    }
    state.plan_journal.emplace(s, std::move(blob.value()));
  }
  state.fault_tolerance = ft_ != nullptr;
  if (ft_ != nullptr) {
    state.ft_snapshots_taken = ft_->snapshots_taken();
    state.ft_promotions = ft_->promotions();
  }
  state.fingerprint = ComputeFingerprint();

  ObjectStore ckpt_store(dir);
  CheckpointWriter writer(&ckpt_store, writer_options);
  Result<std::string> id = writer.Write(state);
  pipeline_->Resume();
  return id;
}

// One production round: plan the step, pop every constructor's slices from
// the loaders (fanned out with AskAsync; per-loader order matches the old
// lockstep loop so results are byte-identical), build all constructors
// concurrently, and retain the slices for rebuild-after-reshard.
Result<ProducedStep> Session::ProduceStep(int64_t step) {
  const auto produce_t0 = std::chrono::steady_clock::now();
  Result<LoadingPlan> plan_result = [&] {
    ScopedSpan span(tracer_view_, "step.plan", "step", options_.io_tenant, step);
    Result<LoadingPlan> r = system_.Ask<Result<LoadingPlan>>(
        *planner_, [p = planner_.get(), step] { return p->GetPlan(step); });
    span.set_ok(r.ok());
    return r;
  }();
  if (!plan_result.ok()) {
    return plan_result.status();
  }
  ProducedStep produced;
  produced.plan = std::move(plan_result.value());
  const LoadingPlan& plan = produced.plan;

  if (options_.mixture_schedule != nullptr && tracer_view_ != nullptr) {
    // Schedule-phase marker span: zero-duration, `source` carries the phase
    // index so a trace shows exactly where each curriculum phase begins.
    TraceSpan mix_span;
    mix_span.name = "step.mix";
    mix_span.cat = "step";
    mix_span.ts_us = tracer_view_->NowUs();
    mix_span.tenant = options_.io_tenant;
    mix_span.step = step;
    mix_span.source = plan.mix_phase;
    tracer_view_->Record(mix_span);
  }

  std::unordered_map<int32_t, SourceLoader*> loader_by_id;
  loader_by_id.reserve(loaders_.size());
  for (auto& l : loaders_) {
    loader_by_id.emplace(l->config().loader_id, l.get());
  }

  // Route each planned sample to the constructor owning its bucket.
  std::unordered_map<int32_t, size_t> ci_of_bucket;
  for (size_t ci = 0; ci < constructors_.size(); ++ci) {
    for (int32_t bucket : constructors_[ci]->OwnedBuckets(plan)) {
      ci_of_bucket.emplace(bucket, ci);
    }
  }

  // One pop per loader per step, ids in plan order — exactly the pop the
  // fault-tolerance manager mirrors into shadows (OnPlanExecuted), so a
  // promoted shadow's buffer refills are byte-for-byte the primary's. The
  // pops fan out concurrently across loaders via AskAsync.
  std::map<int32_t, std::vector<uint64_t>> ids_by_loader;
  std::unordered_map<uint64_t, size_t> ci_of_sample;
  ci_of_sample.reserve(plan.assignments.size());
  for (const SliceAssignment& a : plan.assignments) {
    auto owner = ci_of_bucket.find(a.bucket);
    if (owner == ci_of_bucket.end()) {
      continue;  // bucket outside this session's constructors (malformed plan)
    }
    ids_by_loader[a.loader_id].push_back(a.sample_id);
    ci_of_sample.emplace(a.sample_id, owner->second);
  }
  std::vector<std::pair<int32_t, std::future<Result<SampleSlice>>>> pops;
  for (auto& [loader_id, ids] : ids_by_loader) {
    auto it = loader_by_id.find(loader_id);
    if (it == loader_by_id.end()) {
      return Status::NotFound("plan references unknown loader " + std::to_string(loader_id));
    }
    // ids stays in the map (copied into the closure, not moved): if this pop
    // hangs, RecoverHungPop re-issues the identical request to the shadow.
    pops.emplace_back(loader_id, system_.AskAsync<Result<SampleSlice>>(
                                     *it->second, [l = it->second, step, ids] {
                                       return l->PopSamples(step, ids);
                                     }));
  }
  // With a watchdog engaged, a pop is only allowed to block for the RPC
  // deadline: a silently wedged loader (accepted the message, never answers)
  // would otherwise stall the producer forever — the gather-side timeout
  // never fires again because production never reaches the next gather.
  const int64_t pop_deadline_ms =
      watchdog_ != nullptr ? (options_.loader_rpc_timeout_ms > 0
                                  ? options_.loader_rpc_timeout_ms
                                  : options_.watchdog_heartbeat_timeout_ms)
                           : 0;

  // Split each loader slice per constructor (shared_ptr bumps, no copies).
  // The step.pop span covers the gather: the fan-out above is non-blocking,
  // so the wall time the producer spends on pops is all here.
  produced.slices_per_constructor.resize(constructors_.size());
  Status popped = [&]() -> Status {
    ScopedSpan span(tracer_view_, "step.pop", "step", options_.io_tenant, step);
    for (auto& [loader_id, future] : pops) {
      // Per-loader detail span: how long the gather waited on THIS source.
      // Attribution uses it to name the dominant source when the verdict is
      // decode-bound; step.pop above stays the exclusive-bucket total.
      const int64_t wait_ts_us = tracer_view_ != nullptr ? tracer_view_->NowUs() : 0;
      const auto wait_t0 = std::chrono::steady_clock::now();
      Result<SampleSlice> slice = Status::Internal("pop never resolved");
      if (pop_deadline_ms > 0 && future.wait_for(std::chrono::milliseconds(pop_deadline_ms)) !=
                                     std::future_status::ready) {
        slice = RecoverHungPop(loader_id, step, ids_by_loader[loader_id]);
      } else {
        slice = future.get();
      }
      if (tracer_view_ != nullptr) {
        TraceSpan wait_span;
        wait_span.name = "pop.wait";
        wait_span.cat = "step";
        wait_span.ts_us = wait_ts_us;
        wait_span.dur_us = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - wait_t0)
                               .count();
        wait_span.tenant = options_.io_tenant;
        wait_span.step = step;
        auto owner_loader = loader_by_id.find(loader_id);
        wait_span.source = owner_loader != loader_by_id.end()
                               ? owner_loader->second->config().spec.source_id
                               : -1;
        wait_span.ok = slice.ok();
        tracer_view_->Record(wait_span);
      }
      if (!slice.ok()) {
        span.set_ok(false);
        return slice.status();
      }
      std::vector<SampleSlice> split(constructors_.size());
      for (SampleSlice& s : split) {
        s.step = slice->step;
        s.loader_id = slice->loader_id;
        s.end_of_stream = slice->end_of_stream;
      }
      for (std::shared_ptr<Sample>& sample : slice->samples) {
        auto owner = ci_of_sample.find(sample->meta.sample_id);
        if (owner != ci_of_sample.end()) {
          split[owner->second].samples.push_back(std::move(sample));
        }
      }
      for (size_t ci = 0; ci < split.size(); ++ci) {
        if (!split[ci].samples.empty()) {
          produced.slices_per_constructor[ci].push_back(std::move(split[ci]));
        }
      }
    }
    return Status::Ok();
  }();
  if (!popped.ok()) {
    return popped;
  }

  {
    ScopedSpan span(tracer_view_, "step.build", "step", options_.io_tenant, step);
    Status built = BuildConstructors(plan, produced.slices_per_constructor);
    span.set_ok(built.ok());
    if (!built.ok()) {
      return built;
    }
  }

  if (ft_ != nullptr) {
    MSD_RETURN_IF_ERROR(ft_->OnPlanExecuted(plan));
  }

  // Record this step's rewind point for Checkpoint(): the planner cursor and
  // every loader's differential snapshot as of "step produced". Small state
  // (cursor + consumed ids); the asks fan out like the pops above so the
  // producer pays one round-trip, not one per loader.
  if (options_.enable_checkpoint_journal) {
    StepStateEntry rewind;
    rewind.step = step;
    std::future<PlannerCheckpoint> planner_state = system_.AskAsync<PlannerCheckpoint>(
        *planner_, [p = planner_.get()] { return p->CheckpointState(); });
    std::vector<std::pair<int32_t, std::future<LoaderSnapshot>>> snapshots;
    snapshots.reserve(loaders_.size());
    for (auto& loader : loaders_) {
      snapshots.emplace_back(loader->config().loader_id,
                             system_.AskAsync<LoaderSnapshot>(
                                 *loader, [l = loader.get()] { return l->Snapshot(); }));
    }
    rewind.planner = planner_state.get();
    for (auto& [loader_id, future] : snapshots) {
      // Same silent-hang guard as the pops above: a wedged loader whose pop
      // happened to land ahead of the wedge would otherwise stall production
      // here, where no gather timeout can ever fire again. The shadow was
      // mirrored through this step (OnPlanExecuted ran before this block), so
      // its snapshot is the one the primary owed.
      if (pop_deadline_ms > 0 && future.wait_for(std::chrono::milliseconds(pop_deadline_ms)) !=
                                     std::future_status::ready) {
        Result<SourceLoader*> promoted = PromoteHungLoader(loader_id, step, "snapshot");
        if (!promoted.ok()) {
          return promoted.status();
        }
        SourceLoader* replacement = promoted.value();
        LoaderSnapshot snap = system_.Ask<LoaderSnapshot>(
            *replacement, [replacement] { return replacement->Snapshot(); });
        rewind.loader_snapshots.emplace(loader_id, snap.Serialize());
      } else {
        rewind.loader_snapshots.emplace(loader_id, future.get().Serialize());
      }
    }
    state_journal_->Record(std::move(rewind));
  }

  produced.samples = plan.assignments.size();
  for (const SliceAssignment& a : plan.assignments) {
    produced.tokens += a.total_tokens;
  }
  produced.dp_imbalance = Imbalance(plan.BucketLoads());
  produced.plan_compute_ms = system_.Ask<double>(
      *planner_, [p = planner_.get()] { return p->last_timings().compute_ms; });
  if (plan_ms_hist_ != nullptr) {
    plan_ms_hist_->Observe(produced.plan_compute_ms);
  }
  if (produce_ms_hist_ != nullptr) {
    produce_ms_hist_->Observe(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - produce_t0)
                                  .count());
  }
  return produced;
}

Status Session::BuildConstructors(
    const LoadingPlan& plan, const std::vector<std::vector<SampleSlice>>& slices_per_dp) {
  // Each constructor gets an alias copy of its slices (shared_ptr bumps, no
  // Sample copies) so the pipeline can keep the originals for rebuilds.
  std::vector<std::future<Status>> builds;
  builds.reserve(constructors_.size());
  for (size_t ci = 0; ci < constructors_.size(); ++ci) {
    DataConstructor* dc = constructors_[ci].get();
    builds.push_back(system_.AskAsync<Status>(
        *dc, [dc, &plan, slices = slices_per_dp[ci]]() mutable {
          return dc->BuildStep(plan, std::move(slices));
        }));
  }
  Status result = Status::Ok();
  for (std::future<Status>& f : builds) {
    Status built = f.get();  // gather every future before &plan goes away
    if (result.ok() && !built.ok()) {
      result = built;
    }
  }
  return result;
}

Result<RankBatch> Session::FetchFromConstructor(int32_t rank, int64_t step) {
  if (rank < 0 || rank >= options_.spec.WorldSize()) {
    return Status::InvalidArgument("rank " + std::to_string(rank) + " outside world of " +
                                   std::to_string(options_.spec.WorldSize()));
  }
  RankCoord coord = CoordOfRank(options_.spec, rank);
  DataConstructor* constructor = constructors_[static_cast<size_t>(coord.dp)].get();
  return system_.Ask<Result<RankBatch>>(
      *constructor, [constructor, rank, step] { return constructor->GetBatch(rank, step); });
}

void Session::ReleaseStepOnConstructors(int64_t step) {
  for (auto& constructor : constructors_) {
    system_.Post(*constructor, [c = constructor.get(), step] { c->ReleaseStep(step); });
  }
}

Result<DataClient*> Session::client(int32_t rank) {
  if (rank < 0 || rank >= options_.spec.WorldSize()) {
    return Status::InvalidArgument("rank " + std::to_string(rank) + " outside world of " +
                                   std::to_string(options_.spec.WorldSize()));
  }
  std::lock_guard<std::mutex> lock(clients_mu_);
  auto it = clients_.find(rank);
  if (it == clients_.end()) {
    it = clients_.emplace(rank,
                          std::unique_ptr<DataClient>(new DataClient(this, pipeline_.get(), rank)))
             .first;
  }
  return it->second.get();
}

void Session::FillPayloadCounters(StepStats* stats) {
  // Process-wide payload-plane accounting (payload_buffer.h). Materialized
  // bytes include explicit copy-outs; report the freeze-only share and the
  // copy share separately so "zero copies on the hot path" is checkable.
  int64_t token_copies =
      PayloadPlaneStats::CopiedOutBytes(PayloadKind::kTokens).load(std::memory_order_relaxed);
  int64_t pixel_copies =
      PayloadPlaneStats::CopiedOutBytes(PayloadKind::kPixels).load(std::memory_order_relaxed);
  stats->token_bytes_frozen =
      PayloadPlaneStats::MaterializedBytes(PayloadKind::kTokens).load(std::memory_order_relaxed) -
      token_copies;
  stats->pixel_bytes_frozen =
      PayloadPlaneStats::MaterializedBytes(PayloadKind::kPixels).load(std::memory_order_relaxed) -
      pixel_copies;
  stats->payload_copy_bytes = token_copies + pixel_copies;
  stats->arena_slabs_frozen = PayloadPlaneStats::ArenaSlabsFrozen().load(std::memory_order_relaxed);
}

void Session::FillIoCounters(StepStats* stats) {
  // Shared-plane sessions report their tenant-attributed slice (the aggregate
  // would mix in the neighbours); owned sessions report their whole plane.
  const bool shared = options_.shared_plane != nullptr;
  if (cache_view_ != nullptr) {
    BlockCache::Stats cache = shared ? cache_view_->tenant_stats(options_.io_tenant)
                                     : cache_view_->stats();
    stats->cache_hits = cache.hits;
    stats->cache_misses = cache.misses;
    stats->cache_evictions = cache.evictions;
  }
  if (io_view_ != nullptr) {
    IoScheduler::Stats scheduler = shared ? io_view_->tenant_stats(options_.io_tenant)
                                          : io_view_->stats();
    stats->io_coalesced = scheduler.coalesced;
    stats->readahead_issued = scheduler.prefetch_issues;
    stats->io_retries = scheduler.retries;
    stats->io_hedges = scheduler.hedges_launched;
  }
  if (remote_store_ != nullptr) {
    stats->storage_gets = remote_store_->gets();
  } else if (shared) {
    stats->storage_gets = options_.shared_plane->backing_gets();
  }
  if (options_.quarantine_after_failures > 0) {
    stats->sources_quarantined = system_.Ask<int64_t>(*planner_, [p = planner_.get()] {
      return static_cast<int64_t>(p->quarantined_loaders().size());
    });
  }
}

void Session::HealthTick(const PrefetchPipeline::StepMeta& meta) {
  const bool shared = options_.shared_plane != nullptr;
  StepObservation obs;
  obs.step = meta.step;
  obs.step_ms = meta.build_ahead_ms;
  obs.tokens = meta.tokens;
  if (cache_view_ != nullptr) {
    BlockCache::Stats cache = shared ? cache_view_->tenant_stats(options_.io_tenant)
                                     : cache_view_->stats();
    obs.cache_lookups = cache.hits + cache.misses;
    obs.cache_hits = cache.hits;
  }
  if (io_view_ != nullptr) {
    IoScheduler::Stats scheduler = shared ? io_view_->tenant_stats(options_.io_tenant)
                                          : io_view_->stats();
    obs.io_retries = scheduler.retries;
    obs.io_issued_gets = scheduler.issued_gets;
  }
  if (options_.quarantine_after_failures > 0) {
    obs.quarantined_sources = system_.Ask<int64_t>(*planner_, [p = planner_.get()] {
      return static_cast<int64_t>(p->quarantined_loaders().size());
    });
  }
  if (watchdog_ != nullptr) {
    obs.watchdog_detections = watchdog_->detections();
  }
  health_->OnStepProduced(obs);
}

Session::IoStats Session::io_stats() {
  IoStats stats;
  stats.enabled = io_view_ != nullptr;
  stats.shared = options_.shared_plane != nullptr;
  // Aggregate + tenant slice from ONE locked pass each (SnapshotAll), so the
  // slice is exactly this session's share of the aggregate even mid-stream —
  // separate stats()/tenant_stats() calls could tear between the two. The
  // same pass backs the plane's registry collector (src/telemetry/bridge.h).
  if (cache_view_ != nullptr) {
    if (stats.shared) {
      std::map<IoTenantId, BlockCache::Stats> per_tenant;
      cache_view_->SnapshotAll(&stats.cache, &per_tenant);
      auto it = per_tenant.find(options_.io_tenant);
      if (it != per_tenant.end()) {
        stats.cache_tenant = it->second;
      }
    } else {
      stats.cache = cache_view_->stats();
      stats.cache_tenant = stats.cache;
    }
  }
  if (io_view_ != nullptr) {
    if (stats.shared) {
      std::map<IoTenantId, IoScheduler::Stats> per_tenant;
      io_view_->SnapshotAll(&stats.scheduler, &per_tenant);
      auto it = per_tenant.find(options_.io_tenant);
      if (it != per_tenant.end()) {
        stats.scheduler_tenant = it->second;
      }
    } else {
      stats.scheduler = io_view_->stats();
      stats.scheduler_tenant = stats.scheduler;
    }
  }
  if (remote_store_ != nullptr) {
    stats.storage_gets = remote_store_->gets();
    stats.storage_bytes_served = remote_store_->bytes_served();
  } else if (stats.shared) {
    LatencyInjectingStore* remote = options_.shared_plane->remote_store();
    stats.storage_gets = remote->gets();
    stats.storage_bytes_served = remote->bytes_served();
  }
  if (FaultInjectingStore* faults = fault_store(); faults != nullptr) {
    stats.faults_injected = faults->faults_injected();
    stats.corruptions_injected = faults->corruptions_injected();
    stats.brownout_failures = faults->brownout_failures();
  }
  if (options_.quarantine_after_failures > 0) {
    stats.sources_quarantined = system_.Ask<int64_t>(*planner_, [p = planner_.get()] {
      return static_cast<int64_t>(p->quarantined_loaders().size());
    });
  }
  if (watchdog_ != nullptr) {
    stats.watchdog_detections = watchdog_->detections();
  }
  return stats;
}

Status Session::DumpTrace(const std::string& path) {
  if (tracer_view_ == nullptr) {
    return Status::FailedPrecondition(
        "tracing is off for this session (telemetry disabled or trace_ring_spans = 0)");
  }
  return tracer_view_->DumpChromeTrace(path);
}

FaultInjectingStore* Session::fault_store() {
  if (fault_store_ != nullptr) {
    return fault_store_.get();
  }
  if (options_.shared_plane != nullptr) {
    return options_.shared_plane->fault_store(options_.io_tenant);
  }
  return nullptr;
}

std::map<int32_t, int64_t> Session::QuarantinedLoaders() {
  return system_.Ask<std::map<int32_t, int64_t>>(
      *planner_, [p = planner_.get()] { return p->quarantined_loaders(); });
}

Status Session::UpdateMixture(int64_t effective_step, std::vector<double> weights) {
  if (options_.mixture_schedule == nullptr) {
    return Status::FailedPrecondition(
        "UpdateMixture requires a dynamic mixture schedule (mixture_schedule)");
  }
  // Routed through the planner actor so the effective step is validated
  // against the plan cursor under the same serialization as planning itself —
  // an override can never land under a step whose plan was already issued.
  return system_.Ask<Status>(
      *planner_, [p = planner_.get(), effective_step, w = std::move(weights)]() mutable {
        return p->CommitMixtureOverride(effective_step, std::move(w));
      });
}

Planner::MixtureStatus Session::LastMixtureStatus() {
  if (options_.mixture_schedule == nullptr) {
    return Planner::MixtureStatus{};
  }
  return system_.Ask<Planner::MixtureStatus>(
      *planner_, [p = planner_.get()] { return p->mixture_status(); });
}

std::vector<std::vector<int64_t>> Session::ConstructorResidentSteps() {
  std::vector<std::vector<int64_t>> resident;
  resident.reserve(constructors_.size());
  for (auto& constructor : constructors_) {
    // Ask (not a direct call) so posted releases queued ahead of us land
    // first — the mailbox is FIFO.
    resident.push_back(system_.Ask<std::vector<int64_t>>(
        *constructor, [c = constructor.get()] { return c->ResidentSteps(); }));
  }
  return resident;
}

PrefetchPipeline::Stats Session::pipeline_stats() const { return pipeline_->stats(); }

Result<Session::StepStats> Session::StepStatsFor(int64_t step) {
  Result<PrefetchPipeline::StepMeta> meta = pipeline_->WaitStepInfo(step);
  if (!meta.ok()) {
    return meta.status();
  }
  PrefetchPipeline::Stats pipeline = pipeline_->stats();
  StepStats stats;
  stats.step = step;
  stats.samples = meta->samples;
  stats.dp_imbalance = meta->dp_imbalance;
  stats.plan_compute_ms = meta->plan_compute_ms;
  stats.build_ahead_ms = meta->build_ahead_ms;
  stats.prefetch_depth = options_.prefetch_depth;
  stats.prefetch_queue_depth = pipeline.queue_depth;
  stats.prefetch_hits = pipeline.prefetch_hits;
  stats.prefetch_stalls = pipeline.prefetch_stalls;
  stats.rank_stalls = std::move(pipeline.rank_stalls);
  FillIoCounters(&stats);
  FillPayloadCounters(&stats);
  return stats;
}

Result<PrefetchPipeline::Capture> Session::CaptureStep(int64_t step) {
  return pipeline_->CaptureStep(step);
}

Status Session::Reshard(const ParallelismSpec& new_spec) {
  if (new_spec.dp != options_.spec.dp) {
    return Status::InvalidArgument(
        "elastic resharding keeps the DP degree (constructors map 1:1 to DP groups); got dp=" +
        std::to_string(new_spec.dp) + " vs " + std::to_string(options_.spec.dp));
  }
  std::lock_guard<std::mutex> control(control_mu_);
  // Drain: wait out any in-flight production so no pop/build races the mesh
  // swap, then rebuild every prefetched step against the new topology.
  pipeline_->Pause();
  options_.spec = new_spec;
  tree_.Rebuild(new_spec);
  for (auto& constructor : constructors_) {
    bool ok = system_.Ask<bool>(*constructor, [c = constructor.get(), this] {
      c->Reshard(&tree_);
      return true;
    });
    if (!ok) {
      pipeline_->Resume();
      return Status::Internal("constructor failed to reshard");
    }
  }
  Status rebuilt = pipeline_->RebuildLive(new_spec.WorldSize());
  pipeline_->Resume();
  return rebuilt;
}

Result<std::string> Session::KillAndRecoverLoader(size_t loader_index) {
  if (ft_ == nullptr) {
    return Status::FailedPrecondition("fault tolerance not enabled");
  }
  if (loader_index >= loaders_.size()) {
    return Status::OutOfRange("loader index out of range");
  }
  std::lock_guard<std::mutex> control(control_mu_);
  // Drain first: an in-flight production round may be mid-Ask to the very
  // loader we are about to kill.
  pipeline_->Pause();
  SourceLoader* primary = loaders_[loader_index].get();
  std::string primary_name = primary->name();
  system_.Kill(*primary);
  Result<SourceLoader*> promoted = ft_->PromoteShadow(primary_name);
  if (!promoted.ok()) {
    pipeline_->Resume();
    return promoted.status();
  }
  loaders_[loader_index] = shadows_[loader_index];
  std::vector<SourceLoader*> raw_loaders;
  for (auto& l : loaders_) {
    raw_loaders.push_back(l.get());
  }
  system_.Ask<bool>(*planner_, [p = planner_.get(), raw_loaders] {
    p->SetLoaders(raw_loaders);
    return true;
  });
  pipeline_->Resume();
  return promoted.value()->name();
}

Result<SourceLoader*> Session::PromoteHungLoader(int32_t loader_id, int64_t step,
                                                 const char* what) {
  // Runs on the producer thread, inside ProduceStep — the only path that
  // talks to loaders. Control operations (Checkpoint, Reshard, KillAndRecover,
  // the periodic watchdog scan) all Pause() the pipeline first, which cannot
  // complete while this production round is in flight, so the loaders_ swap
  // below cannot race them.
  size_t idx = loaders_.size();
  for (size_t i = 0; i < loaders_.size(); ++i) {
    if (loaders_[i]->config().loader_id == loader_id) {
      idx = i;
      break;
    }
  }
  if (idx == loaders_.size()) {
    return Status::NotFound("hung " + std::string(what) + " for unknown loader " +
                            std::to_string(loader_id));
  }
  const std::string hung = loaders_[idx]->name();
  if (watchdog_ != nullptr) {
    watchdog_->RecordDetection();
  }
  if (ft_ == nullptr || idx >= shadows_.size() || shadows_[idx] == nullptr) {
    return Status::DeadlineExceeded("loader " + hung + " did not answer a " + what +
                                    " for step " + std::to_string(step) + " and has no standby");
  }
  Result<SourceLoader*> promoted = ft_->PromoteShadow(hung);
  if (!promoted.ok()) {
    return Status::DeadlineExceeded("loader " + hung + " did not answer a " + what +
                                    " for step " + std::to_string(step) +
                                    "; promotion failed: " + promoted.status().message());
  }
  system_.gcs().MarkDead(hung);
  loaders_[idx] = shadows_[idx];
  const int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  system_.gcs().Heartbeat(loaders_[idx]->name(), now_ms);
  std::vector<SourceLoader*> raw_loaders;
  raw_loaders.reserve(loaders_.size());
  for (auto& l : loaders_) {
    raw_loaders.push_back(l.get());
  }
  system_.Ask<bool>(*planner_, [p = planner_.get(), raw_loaders] {
    p->SetLoaders(raw_loaders);
    return true;
  });
  MSD_LOG_WARN("%s to %s hung past the RPC deadline at step %lld; promoted %s mid-production",
               what, hung.c_str(), static_cast<long long>(step),
               loaders_[idx]->name().c_str());
  return loaders_[idx].get();
}

Result<SampleSlice> Session::RecoverHungPop(int32_t loader_id, int64_t step,
                                            const std::vector<uint64_t>& ids) {
  Result<SourceLoader*> promoted = PromoteHungLoader(loader_id, step, "pop");
  if (!promoted.ok()) {
    return promoted.status();
  }
  // The shadow mirrored every completed step's pops (OnPlanExecuted) but not
  // this one — the round it replaces never finished. Re-issue the identical
  // request: the slice comes back byte-for-byte what the primary owed.
  SourceLoader* replacement = promoted.value();
  return system_.Ask<Result<SampleSlice>>(
      *replacement, [replacement, step, ids] { return replacement->PopSamples(step, ids); });
}

void Session::MaybeRunWatchdog() {
  if (watchdog_ == nullptr) {
    return;
  }
  const int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  if (now_ms - last_watchdog_scan_ms_ < options_.watchdog_interval_ms) {
    return;
  }
  // Runs on the producer thread. try_lock: if a user-called Checkpoint or
  // Reshard holds the control lock, skip this tick rather than stall the
  // producer behind it — the next tick scans.
  if (!control_mu_.try_lock()) {
    return;
  }
  std::lock_guard<std::mutex> control(control_mu_, std::adopt_lock);
  last_watchdog_scan_ms_ = now_ms;
  // Drain in-flight fetches so no rank's Ask targets a loader mid-promotion.
  // The producer itself is between steps (or between retry attempts), so
  // Pause() cannot deadlock on in_produce_.
  pipeline_->Pause();
  std::vector<std::string> promoted = watchdog_->ScanAndRecover(now_ms);
  if (!promoted.empty()) {
    bool rebound = false;
    for (size_t i = 0; i < loaders_.size() && i < shadows_.size(); ++i) {
      for (const std::string& name : promoted) {
        if (shadows_[i] != nullptr && shadows_[i]->name() == name) {
          loaders_[i] = shadows_[i];
          rebound = true;
        }
      }
    }
    for (const std::string& name : promoted) {
      // The promotion round-trip proved the replacement alive; stamp it so
      // the next scan does not declare the not-yet-gathered promotee stale.
      system_.gcs().Heartbeat(name, now_ms);
    }
    if (rebound) {
      std::vector<SourceLoader*> raw_loaders;
      raw_loaders.reserve(loaders_.size());
      for (auto& l : loaders_) {
        raw_loaders.push_back(l.get());
      }
      system_.Ask<bool>(*planner_, [p = planner_.get(), raw_loaders] {
        p->SetLoaders(raw_loaders);
        return true;
      });
    }
  }
  pipeline_->Resume();
}

}  // namespace msd
