#include "src/planner/planner.h"

#include <chrono>

#include "src/common/logging.h"

namespace msd {

namespace {
double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

Planner::Planner(PlannerConfig config, ActorSystem* system, const ClientPlaceTree* tree,
                 Strategy strategy, MemoryAccountant* accountant)
    : Actor(config.name),
      config_(config),
      system_(system),
      tree_(tree),
      strategy_(std::move(strategy)),
      accountant_(accountant),
      rng_(config.seed) {
  MSD_CHECK(system_ != nullptr);
  MSD_CHECK(tree_ != nullptr);
  MSD_CHECK(strategy_ != nullptr);
}

Planner::~Planner() = default;

void Planner::SetLoaders(std::vector<SourceLoader*> loaders) { loaders_ = std::move(loaders); }

std::string Planner::PlanJournalKey(int64_t step) {
  return "planner/plan/" + std::to_string(step);
}

std::string Planner::QuarantineJournalKey() { return "planner/quarantine"; }

BufferInfo Planner::EmptyInfoFor(const SourceLoader* loader) {
  BufferInfo info;
  info.loader_id = loader->config().loader_id;
  info.source_id = loader->config().spec.source_id;
  return info;
}

void Planner::JournalQuarantine() {
  std::string blob;
  for (const auto& [loader_id, since_step] : quarantined_) {
    if (!blob.empty()) {
      blob += ",";
    }
    blob += std::to_string(loader_id) + ":" + std::to_string(since_step);
  }
  system_->gcs().PutState(QuarantineJournalKey(), std::move(blob));
}

Result<LoadingPlan> Planner::GetPlan(int64_t step) {
  auto it = cache_.find(step);
  if (it != cache_.end()) {
    return it->second;
  }
  if (config_.replay_mode) {
    // Replay Mode: consult the journal rather than re-planning.
    std::optional<std::string> blob = system_->gcs().GetState(PlanJournalKey(step));
    if (!blob.has_value()) {
      return Status::NotFound("replay mode: no precomputed plan for step " +
                              std::to_string(step));
    }
    Result<LoadingPlan> plan = LoadingPlan::Deserialize(*blob);
    if (plan.ok()) {
      cache_[step] = plan.value();
      TrimCache();
    }
    return plan;
  }
  if (step < next_unplanned_) {
    // The plan existed once but fell out of the cache. Regenerating it here
    // would fork the RNG-dependent plan history; fail loudly instead (the
    // journal still has it — see Replay Mode).
    return Status::NotFound("plan for step " + std::to_string(step) +
                            " was generated and evicted; monotonic plan history cannot "
                            "be replayed outside replay mode");
  }
  // Plan-ahead: generate every step up to the requested one in order, so the
  // resulting plans are identical no matter which future step was asked for.
  while (next_unplanned_ < step) {
    Result<LoadingPlan> intermediate = GeneratePlan(next_unplanned_);
    if (!intermediate.ok()) {
      return intermediate.status();
    }
    next_unplanned_ += 1;
  }
  Result<LoadingPlan> plan = GeneratePlan(step);
  if (plan.ok()) {
    next_unplanned_ = step + 1;
  }
  return plan;
}

Result<LoadingPlan> Planner::GeneratePlan(int64_t step) {
  // Phase 1: gather buffer metadata from loaders, detecting failures via
  // RPC timeout / dead-actor status.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<BufferInfo> buffer_infos;
  last_failed_loaders_.clear();
  bool quarantine_changed = false;
  int32_t transient_failures = 0;
  for (SourceLoader* loader : loaders_) {
    const int32_t loader_id = loader->config().loader_id;
    auto quarantined = quarantined_.find(loader_id);
    const bool in_quarantine = quarantined != quarantined_.end();
    // Re-admission probe: every probe_interval steps a quarantined loader
    // gets one gather attempt; a healthy answer re-admits it. Step-arithmetic
    // (not wall clock) keeps the probe schedule — and hence the plan
    // history — deterministic.
    const bool probing = in_quarantine && config_.quarantine_probe_interval > 0 &&
                         step > quarantined->second &&
                         (step - quarantined->second) % config_.quarantine_probe_interval == 0;
    if (in_quarantine && !probing) {
      buffer_infos.push_back(EmptyInfoFor(loader));
      continue;
    }
    // The gather closure captures only the loader pointer, which the
    // ActorSystem keeps alive until Shutdown — so when the timeout fires
    // first, the late-running closure touches no freed caller state and the
    // abandoned completion is a no-op here (we already counted the failure).
    Result<BufferInfo> info = system_->AskWithTimeout<BufferInfo>(
        *loader, [loader] { return loader->GatherBuffer(); }, config_.loader_rpc_timeout_ms);
    const bool healthy = info.ok() && info->io_healthy;
    if (healthy) {
      gather_failures_.erase(loader_id);
      if (in_quarantine) {
        quarantined_.erase(quarantined);
        quarantine_changed = true;
        ++readmission_events_;
        MSD_LOG_INFO("planner re-admitted loader %s (source %d) at step %lld",
                     loader->name().c_str(), loader->config().spec.source_id,
                     static_cast<long long>(step));
      }
      // A successful gather doubles as a liveness heartbeat (watchdog input).
      system_->gcs().Heartbeat(
          loader->name(),
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
      buffer_infos.push_back(std::move(info.value()));
      continue;
    }
    last_failed_loaders_.push_back(loader->name());
    if (in_quarantine) {
      // Failed probe: stay quarantined, keep serving the renormalized mixture.
      buffer_infos.push_back(EmptyInfoFor(loader));
      continue;
    }
    const int32_t failures = ++gather_failures_[loader_id];
    if (config_.quarantine_after_failures > 0 &&
        failures >= config_.quarantine_after_failures) {
      quarantined_[loader_id] = step;
      gather_failures_.erase(loader_id);
      quarantine_changed = true;
      ++quarantine_events_;
      MSD_LOG_WARN(
          "planner quarantined loader %s (source %d) at step %lld after %d failed gathers",
          loader->name().c_str(), loader->config().spec.source_id,
          static_cast<long long>(step), failures);
      buffer_infos.push_back(EmptyInfoFor(loader));
      continue;
    }
    // Below the quarantine threshold (or quarantine disabled): the failure is
    // transient, so the whole round fails and the caller retries. The RNG has
    // not advanced and nothing was journaled — a retried GeneratePlan(step)
    // starts from identical state, which is what keeps the plan history
    // byte-identical to an undisturbed run once the loader heals.
    ++transient_failures;
  }
  last_timings_.gather_ms = MsSince(t0);
  if (quarantine_changed) {
    JournalQuarantine();
  }
  if (transient_failures > 0) {
    return Status::Unavailable(std::to_string(transient_failures) +
                               " loaders unavailable during metadata gather");
  }

  // Phase 2: run the declarative strategy. The RNG state is snapshotted
  // first and rolled back on failure: a strategy that errors mid-draw (e.g.
  // a schedule phase putting all its weight on a quarantined source →
  // ResourceExhausted after partial Categorical draws) must not advance the
  // committed RNG stream, or the retried/re-admitted plan history would fork
  // from an undisturbed run's.
  auto t1 = std::chrono::steady_clock::now();
  const uint64_t rng_before = rng_.state();
  PlanContext ctx;
  ctx.buffer_infos = &buffer_infos;
  ctx.tree = tree_;
  ctx.step = step;
  ctx.rng = &rng_;
  Result<LoadingPlan> plan = strategy_(ctx);
  last_timings_.compute_ms = MsSince(t1);
  if (!plan.ok()) {
    rng_.set_state(rng_before);
    return plan;
  }
  StampMixture(step, buffer_infos, &plan.value());

  // Phase 3: journal to the GCS (differential checkpointing input).
  auto t2 = std::chrono::steady_clock::now();
  system_->gcs().PutState(PlanJournalKey(step), plan->Serialize());
  last_timings_.journal_ms = MsSince(t2);

  ++plans_generated_;
  cache_[step] = plan.value();
  TrimCache();
  return plan;
}

void Planner::StampMixture(int64_t step, const std::vector<BufferInfo>& buffer_infos,
                           LoadingPlan* plan) {
  if (config_.mixture == nullptr) {
    return;
  }
  const int32_t scale = config_.mixture->ScaleAt(step);
  const int32_t phase = config_.mixture->PhaseIndexAt(step);
  plan->pack_max_seq_len = scale;
  plan->mix_phase = phase;
  for (auto& [name, sub] : plan->subplans) {
    sub.pack_max_seq_len = scale;
    sub.mix_phase = phase;
  }
  // Telemetry mirror: the schedule's weights in buffer order (sorted by
  // source_id — the strategy's schedule index order), masked where the
  // gather offered no samples (quarantined or exhausted sources).
  MixtureStatus status;
  status.step = step;
  status.phase = phase;
  status.scale = scale;
  status.effective_weights = config_.mixture->WeightsAt(step);
  std::map<int32_t, bool> source_empty;
  for (const BufferInfo& info : buffer_infos) {
    source_empty[info.source_id] = info.samples.empty();
  }
  size_t index = 0;
  for (const auto& [source_id, empty] : source_empty) {
    (void)source_id;
    if (index >= status.effective_weights.size()) {
      break;
    }
    if (empty) {
      status.effective_weights[index] = 0.0;
    }
    ++index;
  }
  std::lock_guard<std::mutex> lock(mixture_status_mu_);
  mixture_status_ = std::move(status);
}

Status Planner::CommitMixtureOverride(int64_t effective_step, std::vector<double> weights) {
  if (config_.mixture == nullptr) {
    return Status::FailedPrecondition(
        "mixture overrides need a MixtureSchedule (Session::Options::mixture_schedule)");
  }
  const int64_t effective = effective_step < 0 ? next_unplanned_ : effective_step;
  if (effective < next_unplanned_) {
    return Status::InvalidArgument(
        "mixture override at step " + std::to_string(effective) +
        " is already planned (next unplanned step is " + std::to_string(next_unplanned_) +
        "); re-weighting under an issued plan would fork the stream");
  }
  return config_.mixture->CommitOverride(effective, std::move(weights));
}

Planner::MixtureStatus Planner::mixture_status() const {
  std::lock_guard<std::mutex> lock(mixture_status_mu_);
  return mixture_status_;
}

PlannerCheckpoint Planner::CheckpointState() const {
  PlannerCheckpoint ckpt;
  ckpt.rng_state = rng_.state();
  ckpt.next_unplanned = next_unplanned_;
  ckpt.plans_generated = plans_generated_;
  ckpt.quarantined = quarantined_;
  ckpt.gather_failures = gather_failures_;
  if (config_.mixture != nullptr) {
    ckpt.mixture_overrides = config_.mixture->OverridesSnapshot();
  }
  return ckpt;
}

void Planner::RestoreCheckpoint(const PlannerCheckpoint& ckpt,
                                std::map<int64_t, LoadingPlan> replay_plans) {
  rng_.set_state(ckpt.rng_state);
  next_unplanned_ = ckpt.next_unplanned;
  plans_generated_ = ckpt.plans_generated;
  quarantined_ = ckpt.quarantined;
  gather_failures_ = ckpt.gather_failures;
  if (config_.mixture != nullptr) {
    // Overrides are planner state: the schedule object was rebuilt from job
    // options, so the runtime re-weighting history rides in the checkpoint.
    config_.mixture->ReplaceOverrides(ckpt.mixture_overrides);
  }
  JournalQuarantine();
  cache_ = std::move(replay_plans);
  // The replay window must survive until consumed: TrimCache evicts from the
  // front, which is exactly the steps a resumed pipeline asks for first.
  config_.plan_cache_capacity = std::max<int64_t>(config_.plan_cache_capacity,
                                                  static_cast<int64_t>(cache_.size()) + 2);
  for (const auto& [step, plan] : cache_) {
    MSD_CHECK(step < next_unplanned_);
    system_->gcs().PutState(PlanJournalKey(step), plan.Serialize());
  }
  TrimCache();
}

Status Planner::PrecomputePlans(int64_t first, int64_t count) {
  for (int64_t s = first; s < first + count; ++s) {
    // GetPlan (not GeneratePlan): already-generated steps must be cache hits,
    // or precompute would advance the RNG twice and fork the plan history.
    Result<LoadingPlan> plan = GetPlan(s);
    if (!plan.ok()) {
      return plan.status();
    }
  }
  return Status::Ok();
}

void Planner::TrimCache() {
  while (static_cast<int64_t>(cache_.size()) > config_.plan_cache_capacity) {
    cache_.erase(cache_.begin());
  }
  if (accountant_ != nullptr) {
    int64_t bytes = 0;
    for (const auto& [step, plan] : cache_) {
      bytes += static_cast<int64_t>(plan.assignments.size() * sizeof(SliceAssignment));
    }
    cache_charge_ = MemCharge(accountant_, config_.node, MemCategory::kPlannerState, bytes);
  }
}

}  // namespace msd
