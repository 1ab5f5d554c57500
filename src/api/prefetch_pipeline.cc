#include "src/api/prefetch_pipeline.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "src/common/logging.h"
#include "src/telemetry/trace.h"

namespace msd {

namespace {
double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

PrefetchPipeline::PrefetchPipeline(Config config, int32_t world_size, ProduceFn produce,
                                   FetchFn fetch, RebuildFn rebuild, ReleaseFn release)
    : config_(config),
      produce_(std::move(produce)),
      fetch_(std::move(fetch)),
      rebuild_(std::move(rebuild)),
      release_(std::move(release)),
      world_size_(world_size),
      cursors_(static_cast<size_t>(world_size), config.start_step),
      inflight_claims_(static_cast<size_t>(world_size), -1),
      claim_fetch_failed_(static_cast<size_t>(world_size), 0),
      next_produce_(config.start_step),
      retire_floor_(config.start_step),
      rank_stalls_(static_cast<size_t>(world_size)),
      window_(static_cast<size_t>(std::max(config.depth, 1))) {
  MSD_CHECK(config_.depth >= 0);
  MSD_CHECK(config_.start_step >= 0);
  MSD_CHECK(world_size_ >= 1);
  MSD_CHECK(produce_ != nullptr && fetch_ != nullptr);
  if (!config_.initial_cursors.empty()) {
    MSD_CHECK(config_.initial_cursors.size() == cursors_.size());
    for (size_t i = 0; i < cursors_.size(); ++i) {
      MSD_CHECK(config_.initial_cursors[i] >= config_.start_step);
      cursors_[i] = config_.initial_cursors[i];
    }
  }
}

PrefetchPipeline::~PrefetchPipeline() { Stop(); }

void PrefetchPipeline::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return;
  }
  running_ = true;
  if (config_.depth > 0) {
    producer_ = std::thread([this] { ProducerLoop(); });
  }
}

void PrefetchPipeline::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    running_ = false;
  }
  window_.Close();
  cv_.notify_all();
  if (producer_.joinable()) {
    producer_.join();
  }
}

void PrefetchPipeline::ProducerLoop() {
  for (;;) {
    // Claim a live-step slot first: this is the backpressure point. The push
    // blocks until retirement frees a slot (or Stop closes the queue). The
    // blocked time is the consumer-stall bucket of stall attribution, so it
    // is spanned — but the step id is only known after production, so the
    // span is recorded late with a back-dated ts.
    const int64_t gate_ts_us = config_.tracer != nullptr ? config_.tracer->NowUs() : 0;
    auto gate_t0 = std::chrono::steady_clock::now();
    if (!window_.Push(0)) {
      return;
    }
    const int64_t gate_dur_us = static_cast<int64_t>(MsSince(gate_t0) * 1000.0);
    int64_t produced_step;
    std::optional<StepMeta> produced_meta;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !running_ || (!paused_ && !halted_.has_value()); });
      if (!running_) {
        return;
      }
      ProduceOne(lock);
      if (!running_) {
        return;  // stopped mid-retry-burst; the step was never produced
      }
      if (halted_.has_value()) {
        // Terminal: waiting consumers observe the stored status. Copy the
        // halt out so the hook runs outside the lock.
        const int64_t halt_step = halted_->first;
        const Status halt_status = halted_->second;
        lock.unlock();
        if (config_.on_halted) {
          config_.on_halted(halt_step, halt_status);
        }
        return;
      }
      produced_step = next_produce_ - 1;
      if (config_.on_produced_meta) {
        // Capture the meta while mu_ is still held: once the lock drops, a
        // fast consumer may pop AND retire this step before the hooks below
        // run, and a post-hoc lookup of produced_step would come back empty.
        Result<StepMeta> meta = StepInfoLocked(produced_step);
        if (meta.ok()) {
          produced_meta = meta.value();
        }
      }
    }
    if (config_.tracer != nullptr) {
      TraceSpan span;
      span.name = "step.gate";
      span.cat = "step";
      span.ts_us = gate_ts_us;
      span.dur_us = gate_dur_us;
      span.tenant = config_.tenant;
      span.step = produced_step;
      config_.tracer->Record(span);
    }
    if (config_.on_produced) {
      // Outside the lock and outside in_produce_: the hook may run control
      // operations (e.g. a periodic checkpoint pausing this pipeline).
      config_.on_produced(produced_step);
    }
    if (config_.on_produced_meta && produced_meta.has_value()) {
      // After on_produced so a health tick here observes the post-checkpoint,
      // post-watchdog state of the step.
      config_.on_produced_meta(*produced_meta);
      produced_meta.reset();
    }
  }
}

void PrefetchPipeline::ProduceOne(std::unique_lock<std::mutex>& lock) {
  const int64_t step = next_produce_;
  const int32_t max_attempts = std::max(1, config_.produce_max_attempts);
  produce_claimed_ = true;
  Result<ProducedStep> produced = Status::Internal("produce never ran");
  double elapsed_ms = 0.0;
  for (int32_t attempt = 0; attempt < max_attempts; ++attempt) {
    in_produce_ = true;
    lock.unlock();
    auto t0 = std::chrono::steady_clock::now();
    produced = produce_(step);
    elapsed_ms += MsSince(t0);
    lock.lock();
    in_produce_ = false;
    cv_.notify_all();  // Pause() may be draining in_produce_
    if (produced.ok()) {
      break;
    }
    const StatusCode code = produced.status().code();
    const bool transient =
        code == StatusCode::kUnavailable || code == StatusCode::kDeadlineExceeded;
    if (!transient || attempt + 1 >= max_attempts) {
      break;
    }
    ++stats_.produce_retries;
    // Between attempts: in_produce_ is false and the lock is dropped, so a
    // control operation (checkpoint, watchdog recovery, reshard) can run in
    // the middle of the retry burst — that is the window the on_produce_error
    // hook exists for. The production round stays claimed (produce_claimed_)
    // so a synchronous-mode consumer cannot double-produce the step.
    lock.unlock();
    if (config_.on_produce_error) {
      config_.on_produce_error(step, produced.status());
    }
    int64_t delay_us = config_.produce_retry_base_us;
    for (int32_t i = 0; i < attempt && delay_us < config_.produce_retry_max_us; ++i) {
      delay_us *= 2;
    }
    delay_us = std::min(delay_us, config_.produce_retry_max_us);
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    lock.lock();
    if (!running_) {
      produce_claimed_ = false;
      cv_.notify_all();
      return;  // stopped mid-burst; the step stays unproduced
    }
    cv_.wait(lock, [&] { return !paused_ || !running_; });
    if (!running_) {
      produce_claimed_ = false;
      cv_.notify_all();
      return;
    }
  }
  produce_claimed_ = false;
  if (!produced.ok()) {
    halted_ = std::make_pair(step, produced.status());
  } else {
    Ticket ticket;
    ticket.data = std::move(produced.value());
    ticket.data.build_ahead_ms = elapsed_ms;
    ticket.fetched.assign(static_cast<size_t>(world_size_), 0);
    tickets_.emplace(step, std::move(ticket));
    next_produce_ = step + 1;
    ++stats_.steps_produced;
    stats_.last_build_ahead_ms = elapsed_ms;
  }
  cv_.notify_all();
}

Status PrefetchPipeline::HaltStatusLocked(int64_t step) const {
  const auto& [halt_step, status] = *halted_;
  return Status(status.code(), "prefetch pipeline halted at step " +
                                   std::to_string(halt_step) + " (requested " +
                                   std::to_string(step) + "): " + status.message());
}

Status PrefetchPipeline::WaitProducedLocked(std::unique_lock<std::mutex>& lock, int64_t step,
                                            bool count_stats) {
  if (step < next_produce_) {
    if (count_stats) {
      ++stats_.prefetch_hits;
    }
    return Status::Ok();
  }
  if (halted_.has_value()) {
    return HaltStatusLocked(step);
  }
  if (count_stats) {
    ++stats_.prefetch_stalls;
  }
  if (config_.depth == 0) {
    // Synchronous mode: produce inline on this thread, in step order. Another
    // consumer may already be producing (or a drain may be in effect); wait
    // rather than double-run or race the control operation.
    while (next_produce_ <= step && !halted_.has_value() && running_) {
      if (produce_claimed_ || paused_) {
        // produce_claimed_ (not in_produce_): the owner may be between retry
        // attempts with the callback idle; stepping in would double-produce.
        cv_.wait(lock, [&] { return (!produce_claimed_ && !paused_) || !running_ ||
                                    halted_.has_value() || step < next_produce_; });
      } else {
        ProduceOne(lock);
      }
    }
  } else {
    cv_.wait(lock, [&] { return !running_ || halted_.has_value() || step < next_produce_; });
  }
  if (step < next_produce_) {
    return Status::Ok();
  }
  if (halted_.has_value()) {
    return HaltStatusLocked(step);
  }
  return Status::Unavailable("prefetch pipeline stopped before step " + std::to_string(step));
}

int64_t PrefetchPipeline::ConsumptionFloorLocked() const {
  int64_t floor = std::numeric_limits<int64_t>::max();
  for (int64_t c : cursors_) {
    floor = std::min(floor, c);
  }
  return floor;
}

void PrefetchPipeline::MaybeRetireLocked() {
  const int64_t floor = ConsumptionFloorLocked();
  for (;;) {
    auto it = tickets_.find(retire_floor_);
    if (it == tickets_.end()) {
      break;  // oldest live step not produced yet
    }
    Ticket& ticket = it->second;
    bool fully_fetched = ticket.fetch_count >= world_size_;
    if (!fully_fetched && floor <= retire_floor_) {
      break;
    }
    if (fully_fetched && !ticket.released && release_ != nullptr) {
      release_(retire_floor_);
      ticket.released = true;
      ++stats_.steps_released;
    }
    if (!fully_fetched && !ticket.released && release_ != nullptr) {
      // Floor-retired with fetches still in flight (a claim advances the
      // cursor before its fetch lands). If those in-flight fetches are the
      // only ones missing, remember them: the last one to land releases the
      // step eagerly instead of waiting for the eviction backstop.
      PendingRelease pending;
      pending.awaiting.assign(static_cast<size_t>(world_size_), 0);
      for (size_t rank = 0; rank < inflight_claims_.size() &&
                            rank < static_cast<size_t>(world_size_); ++rank) {
        if (inflight_claims_[rank] == retire_floor_ &&
            (rank >= claim_fetch_failed_.size() || !claim_fetch_failed_[rank]) &&
            (rank >= ticket.fetched.size() || !ticket.fetched[rank])) {
          pending.awaiting[rank] = 1;
          ++pending.remaining;
        }
      }
      if (pending.remaining > 0 &&
          ticket.fetch_count + pending.remaining >= world_size_) {
        pending_release_.emplace(retire_floor_, std::move(pending));
      }
    }
    tickets_.erase(it);
    ++retire_floor_;
    ++stats_.steps_retired;
    if (config_.depth > 0) {
      window_.TryPop();  // return the slot; wakes the blocked producer
    }
  }
}

void PrefetchPipeline::ResolvePendingReleaseLocked(int64_t step, int32_t rank,
                                                   bool fetch_ok) {
  auto it = pending_release_.find(step);
  if (it == pending_release_.end()) {
    return;
  }
  PendingRelease& pending = it->second;
  if (static_cast<size_t>(rank) >= pending.awaiting.size() ||
      !pending.awaiting[static_cast<size_t>(rank)]) {
    return;
  }
  if (!fetch_ok) {
    // This rank never received the step; the eviction backstop takes over.
    pending_release_.erase(it);
    return;
  }
  pending.awaiting[static_cast<size_t>(rank)] = 0;
  if (--pending.remaining == 0) {
    release_(step);
    ++stats_.steps_released;
    pending_release_.erase(it);
  }
}

// Runs fetch_ outside the lock, bracketed by active_fetches_ so Pause() can
// wait out in-flight fetches; new fetches block while a drain is in effect.
Result<RankBatch> PrefetchPipeline::GatedFetch(std::unique_lock<std::mutex>& lock,
                                               int32_t rank, int64_t step) {
  cv_.wait(lock, [&] { return !paused_ || !running_; });
  if (!running_) {
    return Status::Unavailable("prefetch pipeline stopped");
  }
  ++active_fetches_;
  lock.unlock();
  Result<RankBatch> batch = [&] {
    ScopedSpan span(config_.tracer, "step.fetch", "step", config_.tenant, step, rank);
    Result<RankBatch> r = fetch_(rank, step);
    span.set_ok(r.ok());
    return r;
  }();
  lock.lock();
  --active_fetches_;
  cv_.notify_all();
  return batch;
}

Result<RankBatch> PrefetchPipeline::NextBatch(int32_t rank) {
  std::unique_lock<std::mutex> lock(mu_);
  if (rank < 0 || rank >= world_size_) {
    return Status::InvalidArgument("rank " + std::to_string(rank) + " outside world of " +
                                   std::to_string(world_size_));
  }
  int64_t step = cursors_[static_cast<size_t>(rank)];
  cursors_[static_cast<size_t>(rank)] = step + 1;
  inflight_claims_[static_cast<size_t>(rank)] = step;  // claimed, not yet handed
  claim_fetch_failed_[static_cast<size_t>(rank)] = 0;
  MaybeRetireLocked();  // claiming may raise the consumption floor
  // Per-rank stall accounting: classify before waiting (the wait itself
  // changes next_produce_), measure the blocked time after.
  const bool ready = step < next_produce_;
  auto wait_t0 = std::chrono::steady_clock::now();
  Status produced = WaitProducedLocked(lock, step, /*count_stats=*/true);
  if (static_cast<size_t>(rank) < rank_stalls_.size()) {
    RankStall& stall = rank_stalls_[static_cast<size_t>(rank)];
    ++stall.pulls;
    if (!ready) {
      ++stall.stalls;
      const double waited_ms = MsSince(wait_t0);
      stall.wait_ms += waited_ms;
      if (config_.tracer != nullptr) {
        TraceSpan span;
        span.name = "step.stall";
        span.cat = "step";
        span.dur_us = static_cast<int64_t>(waited_ms * 1000.0);
        span.ts_us = config_.tracer->NowUs() - span.dur_us;
        span.tenant = config_.tenant;
        span.step = step;
        span.rank = rank;
        span.ok = produced.ok();
        config_.tracer->Record(span);
      }
    }
  }
  if (!produced.ok()) {
    return produced;
  }
  Result<RankBatch> batch = GatedFetch(lock, rank, step);
  if (static_cast<size_t>(rank) < inflight_claims_.size() &&
      inflight_claims_[static_cast<size_t>(rank)] == step) {
    if (batch.ok()) {
      inflight_claims_[static_cast<size_t>(rank)] = -1;  // delivered
    } else {
      // Undelivered (the claim stays for frontier()), but no fetch remains
      // in flight — retirement must not register an eager release on it.
      claim_fetch_failed_[static_cast<size_t>(rank)] = 1;
    }
  }
  auto it = tickets_.find(step);
  // Bounds re-check: a shrinking reshard may have resized the fetch bitmap
  // while this rank's fetch was in flight.
  if (it != tickets_.end() && static_cast<size_t>(rank) < it->second.fetched.size() &&
      !it->second.fetched[static_cast<size_t>(rank)]) {
    it->second.fetched[static_cast<size_t>(rank)] = 1;
    ++it->second.fetch_count;
    MaybeRetireLocked();
  } else if (it == tickets_.end()) {
    // The cursor floor retired this step while the fetch was in flight; if
    // that fetch was the last one missing, release the constructor data now.
    ResolvePendingReleaseLocked(step, rank, batch.ok());
  }
  return batch;
}

std::future<Result<RankBatch>> PrefetchPipeline::NextBatchAsync(int32_t rank) {
  // The cursor is claimed inside NextBatch on the async thread; keep one pull
  // outstanding per rank or step claim order becomes nondeterministic.
  return std::async(std::launch::async, [this, rank] { return NextBatch(rank); });
}

void PrefetchPipeline::Pause() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
  // Drain both the producer and every consumer fetch: after this, no
  // loader/constructor Ask originating from the pipeline is in flight, and
  // none can start until Resume().
  cv_.wait(lock, [&] { return !in_produce_ && active_fetches_ == 0; });
}

void PrefetchPipeline::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

Status PrefetchPipeline::RebuildLive(int32_t new_world_size) {
  MSD_CHECK(new_world_size >= 1);
  std::unique_lock<std::mutex> lock(mu_);
  MSD_CHECK(paused_ || config_.depth == 0);
  world_size_ = new_world_size;
  // Ranks added by the reshard start at the oldest live step; ranks removed
  // simply drop out of the consumption floor. Pending eager releases are
  // tied to the old mesh's in-flight fetches — abandon them (backstop).
  pending_release_.clear();
  cursors_.resize(static_cast<size_t>(new_world_size), retire_floor_);
  inflight_claims_.resize(static_cast<size_t>(new_world_size), -1);
  claim_fetch_failed_.resize(static_cast<size_t>(new_world_size), 0);
  rank_stalls_.resize(static_cast<size_t>(new_world_size));
  if (rebuild_ == nullptr) {
    return Status::Ok();
  }
  for (auto& [step, ticket] : tickets_) {
    Status rebuilt = rebuild_(ticket.data.plan, ticket.data.slices_per_constructor);
    if (!rebuilt.ok()) {
      return Status(rebuilt.code(), "rebuilding prefetched step " + std::to_string(step) +
                                        " after reshard: " + rebuilt.message());
    }
    // The step's content changed: every rank (old and new) refetches it.
    ticket.fetched.assign(static_cast<size_t>(new_world_size), 0);
    ticket.fetch_count = 0;
    ticket.released = false;
  }
  return Status::Ok();
}

PrefetchPipeline::Stats PrefetchPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.queue_depth = tickets_.size();
  s.rank_stalls = rank_stalls_;
  return s;
}

PrefetchPipeline::Frontier PrefetchPipeline::frontier() const {
  std::lock_guard<std::mutex> lock(mu_);
  Frontier f;
  f.commit_step = retire_floor_;
  f.produce_frontier = next_produce_;
  f.cursors = cursors_;
  // A rank parked inside NextBatch claimed its step but never received it
  // (Pause drains in-flight fetches, so the only parked ranks are waiting on
  // production or on the pause gate). Report it at the undelivered step so a
  // resume re-serves the batch instead of skipping it — and hold the commit
  // frontier at or below it: retirement advances on claims, so the retire
  // floor may already have passed a step an about-to-fetch rank never got.
  for (size_t rank = 0; rank < f.cursors.size(); ++rank) {
    if (inflight_claims_[rank] >= 0) {
      f.cursors[rank] = inflight_claims_[rank];
      f.commit_step = std::min(f.commit_step, inflight_claims_[rank]);
    }
  }
  return f;
}

Result<PrefetchPipeline::StepMeta> PrefetchPipeline::StepInfoLocked(int64_t step) const {
  auto it = tickets_.find(step);
  if (it == tickets_.end()) {
    return Status::NotFound("step " + std::to_string(step) + " is not live in the pipeline");
  }
  StepMeta meta;
  meta.step = step;
  meta.samples = it->second.data.samples;
  meta.tokens = it->second.data.tokens;
  meta.dp_imbalance = it->second.data.dp_imbalance;
  meta.plan_compute_ms = it->second.data.plan_compute_ms;
  meta.build_ahead_ms = it->second.data.build_ahead_ms;
  return meta;
}

Result<PrefetchPipeline::StepMeta> PrefetchPipeline::WaitStepInfo(int64_t step) {
  std::unique_lock<std::mutex> lock(mu_);
  // Pure observability: never classified as a prefetch hit or stall.
  Status produced = WaitProducedLocked(lock, step, /*count_stats=*/false);
  if (!produced.ok()) {
    return produced;
  }
  return StepInfoLocked(step);
}

Result<PrefetchPipeline::Capture> PrefetchPipeline::CaptureStep(int64_t step) {
  std::unique_lock<std::mutex> lock(mu_);
  if (step < retire_floor_) {
    return Status::FailedPrecondition("step " + std::to_string(step) +
                                      " already retired; capture before consuming it");
  }
  Status produced = WaitProducedLocked(lock, step, /*count_stats=*/false);
  if (!produced.ok()) {
    return produced;
  }
  auto it = tickets_.find(step);
  if (it == tickets_.end()) {
    return Status::NotFound("step " + std::to_string(step) + " retired while capturing");
  }
  Capture capture;
  capture.plan = it->second.data.plan;
  capture.slices_per_constructor = it->second.data.slices_per_constructor;
  return capture;
}

int64_t PrefetchPipeline::cursor(int32_t rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (rank < 0 || rank >= world_size_) {
    return -1;  // rank dropped by a shrinking reshard; handles must not abort
  }
  return cursors_[static_cast<size_t>(rank)];
}

}  // namespace msd
