// PrefetchPipeline: the bounded build-ahead engine behind the streaming
// Session API (the paper's pull model, Sec. 3, made continuous).
//
// A single in-order producer drives plan -> pop -> build for steps
// N .. N+depth-1 while training ranks consume step N. The moving parts:
//
//   - Backpressure: the producer claims a slot from a bounded MpmcQueue
//     before producing a step and retirement returns the slot, so at most
//     `depth` steps are ever live (produced or in flight) ahead of the
//     slowest consumer. `depth == 0` degenerates to fully synchronous
//     production on the consumer's thread (the lockstep baseline).
//   - Per-rank cursors: every rank of the world has a cursor; NextBatch(rank)
//     claims the cursor's step, blocks until it is produced, fetches the
//     rank's view, and advances.
//   - Refcounted retirement: a step's resources are released once all
//     world-size ranks have fetched their view (constructor StepData is
//     dropped eagerly via the release hook) or once every cursor has moved
//     past it; retirement is strictly in step order so the slot queue and the
//     retained slices stay consistent.
//   - Drain/invalidate: Pause() quiesces the producer (waits out the
//     in-flight step, so no actor Ask can race a loader kill), and
//     RebuildLive() re-runs constructor assembly for every live step from the
//     slices retained at pop time — this is how Reshard() re-targets already
//     prefetched steps to a new mesh instead of racing or discarding them.
//
// Determinism: the producer is strictly sequential in step order and issues
// per-loader pops in the same relative order at every depth, so a pipelined
// session serves byte-identical batches to a depth-0 one (asserted by
// tests/pipeline_test.cc against ReferenceDataPlane).
//
// Thread-safety: NextBatch/stats are safe to call from any thread (one
// consumer per rank; a DataClient itself is not shared).
// Control operations (Pause/Resume/RebuildLive/Stop) must not run
// concurrently with each other — Session serializes them.
#ifndef SRC_API_PREFETCH_PIPELINE_H_
#define SRC_API_PREFETCH_PIPELINE_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/mpmc_queue.h"
#include "src/common/status.h"
#include "src/constructor/data_constructor.h"
#include "src/io/block_cache.h"
#include "src/loader/source_loader.h"
#include "src/plan/dgraph.h"

namespace msd {

class StepTracer;

// One fully produced step. The popped slices are retained (shared_ptr
// aliases, never Sample copies) until retirement so a reshard can rebuild the
// step's constructor data without re-popping loaders.
struct ProducedStep {
  LoadingPlan plan;
  std::vector<std::vector<SampleSlice>> slices_per_constructor;
  size_t samples = 0;
  int64_t tokens = 0;  // total planned tokens across all DP groups
  double dp_imbalance = 1.0;
  double plan_compute_ms = 0.0;
  double build_ahead_ms = 0.0;  // wall time of plan+pop+build for this step
};

class PrefetchPipeline {
 public:
  struct StepMeta;  // defined below; referenced by Config::on_produced_meta

  struct Config {
    // Max steps live (produced or in production) ahead of retirement.
    // 0 = synchronous: steps are produced inline on the consuming thread.
    // Nothing then bounds how far one rank's pulls run ahead of another's,
    // so depth-0 consumers must move in lockstep (all ranks per step, or a
    // barrier between steps) to stay inside the constructors' resident window.
    int32_t depth = 2;
    // First step this pipeline produces/retires (job resume starts mid-
    // stream; a fresh session starts at 0).
    int64_t start_step = 0;
    // Per-rank starting cursors (>= start_step each); empty = all ranks at
    // start_step. A resumed job restores the exact per-rank positions so no
    // rank re-receives or skips a step.
    std::vector<int64_t> initial_cursors;
    // Invoked from the producer thread after each step is produced, outside
    // the pipeline lock and outside in_produce_ — so the callback may run
    // control operations (Session's periodic auto-checkpoint pauses the
    // pipeline from here). Asynchronous-producer mode only (depth >= 1).
    std::function<void(int64_t step)> on_produced;
    // Like on_produced, but handed the step's StepMeta captured UNDER the
    // pipeline lock before any hook runs. A fast consumer can pop and retire
    // the step before the producer thread reaches the hooks, so a post-hoc
    // lookup from inside on_produced can fail spuriously; this
    // variant never loses the observation. Fires after on_produced, same
    // thread and constraints. Session's health tick hangs here.
    std::function<void(const StepMeta& meta)> on_produced_meta;
    // Transient-failure resilience: a produce round that fails with a
    // transient status (Unavailable, DeadlineExceeded) is re-run, up to this
    // many total attempts, before the pipeline halts. Production is strictly
    // per-step idempotent-on-failure (the planner's RNG does not advance on a
    // failed gather and loaders defer refill errors), so a retried round
    // produces exactly the step the undisturbed run would have. 1 = legacy
    // halt-on-first-error.
    int32_t produce_max_attempts = 1;
    // Backoff between produce attempts: base * 2^attempt, capped.
    int64_t produce_retry_base_us = 2000;
    int64_t produce_retry_max_us = 200'000;
    // Invoked between produce attempts (outside the lock, outside
    // in_produce_, before the backoff sleep) with the failing step and
    // status. The callback may run control operations — Session uses it to
    // drive the watchdog while production is stuck on a dead loader.
    std::function<void(int64_t step, const Status& error)> on_produce_error;
    // Invoked once, from the producer thread outside the lock, when
    // production halts terminally (retries exhausted or a non-transient
    // error) with the failing step and final status. on_produce_error fires
    // *between* attempts; this fires *after* the last one — the hook for
    // raising a produce-exhausted health event. Asynchronous mode only.
    std::function<void(int64_t step, const Status& error)> on_halted;
    // Telemetry (src/telemetry/trace.h): records step.fetch spans around
    // rank pulls, step.stall spans when a pull blocks on production, and
    // step.gate spans for the producer's blocking wait on a free window
    // slot (consumer backpressure), attributed to `tenant`. Not owned;
    // nullptr = no tracing.
    StepTracer* tracer = nullptr;
    IoTenantId tenant = kDefaultIoTenant;
  };

  // Per-rank stall histogram over NextBatch pulls: how often this rank's
  // pull blocked on production, and for how long in total. A skewed
  // histogram localizes the straggler (slow consumer ranks show zero stalls;
  // the rank that always arrives before the build-ahead shows many).
  struct RankStall {
    int64_t pulls = 0;     // NextBatch calls by this rank
    int64_t stalls = 0;    // pulls that blocked on production
    double wait_ms = 0.0;  // total time blocked
  };

  // Cumulative pipeline counters over every rank's pulls.
  struct Stats {
    int64_t steps_produced = 0;
    int64_t steps_retired = 0;
    // Steps whose constructor data was dropped eagerly via the release hook —
    // at retirement when every rank had already fetched, or (the sequential-
    // streaming case) right after the last claimed fetch landed on a step the
    // cursor floor had retired first. Steps not counted here fall back to the
    // constructors' resident_steps eviction backstop.
    int64_t steps_released = 0;
    int64_t prefetch_hits = 0;    // waits satisfied without blocking
    int64_t prefetch_stalls = 0;  // waits that blocked on production
    int64_t produce_retries = 0;  // produce rounds re-run after transient errors
    size_t queue_depth = 0;       // produced-but-unretired steps right now
    double last_build_ahead_ms = 0.0;
    // Cumulative per-rank stall histogram, indexed by rank.
    std::vector<RankStall> rank_stalls;
  };

  // The pipeline's checkpointable position: the commit step (first step not
  // yet fully consumed — everything below it is retired, so a resume may
  // start there), the produce frontier (first step never planned/popped),
  // and every rank's *delivered* cursor — a rank blocked inside NextBatch
  // has claimed its step but not received it, and is reported at the claimed
  // step (not past it) so a resume re-serves the batch it never got.
  struct Frontier {
    int64_t commit_step = 0;
    int64_t produce_frontier = 0;
    std::vector<int64_t> cursors;
  };

  // Lightweight per-step stats for a live (unretired) step.
  struct StepMeta {
    int64_t step = 0;
    size_t samples = 0;
    int64_t tokens = 0;
    double dp_imbalance = 1.0;
    double plan_compute_ms = 0.0;
    double build_ahead_ms = 0.0;
  };

  // Test/tooling view of a live step: the plan plus slice aliases.
  struct Capture {
    LoadingPlan plan;
    std::vector<std::vector<SampleSlice>> slices_per_constructor;
  };

  // Runs plan+pop+build for `step`; called only from the producer (strictly
  // sequential, one call per step ever).
  using ProduceFn = std::function<Result<ProducedStep>(int64_t step)>;
  // Fetches one rank's view of a produced step (actor Ask; thread-safe).
  using FetchFn = std::function<Result<RankBatch>(int32_t rank, int64_t step)>;
  // Re-runs constructor assembly for a live step from its retained slices
  // (after the mesh changed). Must not re-pop loaders.
  using RebuildFn = std::function<Status(const LoadingPlan& plan,
                                         const std::vector<std::vector<SampleSlice>>& slices)>;
  // Drops a fully fetched step's constructor data.
  using ReleaseFn = std::function<void(int64_t step)>;

  PrefetchPipeline(Config config, int32_t world_size, ProduceFn produce, FetchFn fetch,
                   RebuildFn rebuild, ReleaseFn release);
  ~PrefetchPipeline();

  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  // Starts the producer (no-op in synchronous mode). Idempotent.
  void Start();
  // Stops the producer and unblocks every waiter. Idempotent.
  void Stop();

  // Streaming consumption: claims rank's cursor step, blocks until produced,
  // fetches the view, advances the cursor. One consumer per rank.
  Result<RankBatch> NextBatch(int32_t rank);
  // Future-returning variant; consecutive calls claim consecutive steps.
  std::future<Result<RankBatch>> NextBatchAsync(int32_t rank);

  // Drain: stop claiming new steps, block new fetches, and wait out both the
  // in-flight production round and every in-flight fetch, so no
  // loader/constructor Ask is mid-air (safe to kill/promote/reshard).
  void Pause();
  void Resume();

  // Rebuilds every live step's constructor data from retained slices against
  // the current mesh and resets fetch accounting to `new_world_size` ranks.
  // Call only while paused.
  Status RebuildLive(int32_t new_world_size);

  Stats stats() const;
  Frontier frontier() const;
  // Stats of a live step, blocking until it is produced (for streaming
  // consumers that want a step's stats before pulling it).
  Result<StepMeta> WaitStepInfo(int64_t step);
  Result<Capture> CaptureStep(int64_t step);

  int64_t cursor(int32_t rank) const;

 private:
  // A live step's meta, with mu_ already held (the producer loop captures the
  // just-produced step's meta for on_produced_meta without dropping the lock).
  Result<StepMeta> StepInfoLocked(int64_t step) const;

  struct Ticket {
    ProducedStep data;
    std::vector<uint8_t> fetched;  // one flag per rank
    int32_t fetch_count = 0;
    bool released = false;  // constructor data already dropped via release_
  };

  // Bookkeeping for a ticket the cursor floor retired while its last fetches
  // were still in flight (in sequential per-rank streaming the final rank's
  // claim advances the floor before its fetch lands). Once every awaited
  // fetch completes, the step's constructor data is released eagerly instead
  // of lingering until the resident_steps eviction backstop.
  struct PendingRelease {
    std::vector<uint8_t> awaiting;  // ranks whose fetch was in flight
    int32_t remaining = 0;
  };

  void ProducerLoop();
  // Produces the next step; `lock` is held on entry/exit, dropped during the
  // produce callback.
  void ProduceOne(std::unique_lock<std::mutex>& lock);
  // Blocks until `step` is produced (inline-producing in synchronous mode).
  // `count_stats` classifies the wait as a prefetch hit or stall; pure
  // observability callers pass false so they don't skew the counters.
  Status WaitProducedLocked(std::unique_lock<std::mutex>& lock, int64_t step,
                            bool count_stats);
  // Runs fetch_ outside the lock, bracketed by the in-flight-fetch counter
  // that Pause() drains; blocks while paused.
  Result<RankBatch> GatedFetch(std::unique_lock<std::mutex>& lock, int32_t rank, int64_t step);
  // Retires in-order every leading step that is fully fetched or passed by
  // all cursors; returns freed slots to the producer.
  void MaybeRetireLocked();
  // Post-fetch bookkeeping for a floor-retired step: marks `rank`'s fetch
  // done and fires the eager release once no fetch is awaited.
  void ResolvePendingReleaseLocked(int64_t step, int32_t rank, bool fetch_ok);
  int64_t ConsumptionFloorLocked() const;
  Status HaltStatusLocked(int64_t step) const;

  Config config_;
  ProduceFn produce_;
  FetchFn fetch_;
  RebuildFn rebuild_;
  ReleaseFn release_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  int32_t world_size_;
  std::vector<int64_t> cursors_;  // next unconsumed step per rank
  // Step a rank has claimed inside NextBatch but not yet been handed (-1 =
  // none). frontier() reports such ranks at the claimed step, not past it.
  std::vector<int64_t> inflight_claims_;
  // Set when the rank's fetch for its claimed step already returned an
  // error: the claim is kept (a resume must re-serve the undelivered batch)
  // but no fetch is outstanding, so retirement must not await it.
  std::vector<uint8_t> claim_fetch_failed_;
  int64_t next_produce_ = 0;      // first unproduced step
  int64_t retire_floor_ = 0;      // first unretired step
  std::map<int64_t, Ticket> tickets_;
  std::map<int64_t, PendingRelease> pending_release_;
  // Set when production failed: every wait for >= halted_->first errors.
  std::optional<std::pair<int64_t, Status>> halted_;
  bool running_ = false;
  bool paused_ = false;
  // in_produce_: a produce_ callback is actually in flight (an actor Ask may
  // be mid-air) — what Pause() drains. produce_claimed_: some thread owns the
  // current production round, across its whole retry sequence including
  // backoff sleeps — what keeps a second synchronous consumer from
  // double-producing the step while the owner is between attempts.
  bool in_produce_ = false;
  bool produce_claimed_ = false;
  int32_t active_fetches_ = 0;  // fetch_ calls in flight (drained by Pause)
  Stats stats_;
  std::vector<RankStall> rank_stalls_;  // one per rank

  // Slot tokens bounding live steps; Push blocks the producer (backpressure),
  // retirement TryPops to free a slot. Unused in synchronous mode.
  MpmcQueue<int64_t> window_;
  std::thread producer_;
};

}  // namespace msd

#endif  // SRC_API_PREFETCH_PIPELINE_H_
