// Storage chaos plane, end to end: a seeded fault schedule (transient
// Unavailable / DeadlineExceeded, bit-flip corruption, scripted brownouts)
// drives the full Session stack — fault(latency(base)) store, IoScheduler
// retries, loader sticky-refill errors, planner quarantine, produce retries,
// watchdog promotion — and the stream must come out byte-identical to an
// undisturbed run. Determinism is the whole point: every scenario here either
// compares against a fault-free twin or replays itself and compares run one
// against run two.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "tests/batch_identity.h"
#include "tests/scratch_dir.h"

// Sanitizer instrumentation slows every operation by an order of magnitude;
// the silent-hang detection thresholds below must scale with it, or healthy
// (merely instrumented) loaders blow the RPC deadline and get promoted
// spuriously until the standby set runs dry. The wedged loader never answers
// at all, so detection works at any threshold — only false positives scale.
#if defined(__SANITIZE_THREAD__)
#define MSD_CHAOS_SLOWDOWN 40
#elif defined(__SANITIZE_ADDRESS__)
#define MSD_CHAOS_SLOWDOWN 8
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MSD_CHAOS_SLOWDOWN 40
#elif __has_feature(address_sanitizer)
#define MSD_CHAOS_SLOWDOWN 8
#endif
#endif
#ifndef MSD_CHAOS_SLOWDOWN
#define MSD_CHAOS_SLOWDOWN 1
#endif

namespace msd {
namespace {

using testing::ExpectBatchesIdentical;
using testing::StreamStep;

Session::Options BaseOptions(int32_t prefetch_depth = 2) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 16;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = prefetch_depth;
  options.row_group_bytes = 8 * kKiB;  // several groups per file
  return options;
}

// The canonical chaos mix: simulated remote latency plus a seeded schedule of
// transient failures and rare corruption, with a retry budget sized to absorb
// all of it. Fault-free twins use BaseOptions() — same plan RNG, no chaos.
Session::Options ChaosOptions(int32_t prefetch_depth = 2) {
  Session::Options options = BaseOptions(prefetch_depth);
  options.block_cache_bytes = 64 * kMiB;
  options.read_ahead_groups = 2;
  options.storage_get_latency = 200;  // 0.2 ms: remote, but test-fast
  options.storage_faults.seed = 0xC4405;
  options.storage_faults.unavailable_p = 0.05;
  options.storage_faults.deadline_p = 0.02;
  options.storage_faults.corrupt_p = 0.01;
  options.io_retry.max_attempts = 5;
  options.io_retry.backoff_base_us = 100;  // test-fast backoff
  options.io_retry.backoff_max_us = 2000;
  options.produce_retry_attempts = 4;  // rides out a rare double-corruption
  return options;
}

void ExpectStepIdentical(Session& chaos, Session& calm) {
  std::vector<RankBatch> got = StreamStep(chaos);
  std::vector<RankBatch> want = StreamStep(calm);
  ASSERT_EQ(got.size(), want.size());
  for (size_t rank = 0; rank < got.size(); ++rank) {
    ExpectBatchesIdentical(got[rank], want[rank]);
  }
}

// ---------------------------------------------------------------------------
// Scenario 1: faults the retry budget can absorb are invisible in the bytes.
// ---------------------------------------------------------------------------

TEST(ChaosTest, RecoverableChaosStaysByteIdentical) {
  auto calm = Session::Create(BaseOptions());
  auto chaos = Session::Create(ChaosOptions());
  ASSERT_TRUE(calm.ok());
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  // Pile a loader kill on top of the fault schedule: recovery paths compose.
  Session::Options ft_options = ChaosOptions();
  ft_options.enable_fault_tolerance = true;
  auto chaos_ft = Session::Create(ft_options);
  ASSERT_TRUE(chaos_ft.ok()) << chaos_ft.status().ToString();

  for (int64_t step = 0; step < 2; ++step) {
    std::vector<RankBatch> want = StreamStep(**calm);
    std::vector<RankBatch> got = StreamStep(**chaos);
    std::vector<RankBatch> got_ft = StreamStep(**chaos_ft);
    for (size_t rank = 0; rank < want.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
      ExpectBatchesIdentical(got_ft[rank], want[rank]);
    }
  }
  // Mid-stream escalation: a scoped brownout (next 3 Gets fail) plus an
  // explicit loader kill on the FT session. Both are within budget; the
  // stream must not fork.
  ASSERT_NE((*chaos)->fault_store(), nullptr);
  (*chaos)->fault_store()->BrownoutNextGets(3);
  ASSERT_TRUE((*chaos_ft)->KillAndRecoverLoader(0).ok());
  for (int64_t step = 2; step < 5; ++step) {
    std::vector<RankBatch> want = StreamStep(**calm);
    std::vector<RankBatch> got = StreamStep(**chaos);
    std::vector<RankBatch> got_ft = StreamStep(**chaos_ft);
    for (size_t rank = 0; rank < want.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
      ExpectBatchesIdentical(got_ft[rank], want[rank]);
    }
  }

  // The chaos actually happened, and the retry machinery actually absorbed
  // it — this test must never pass vacuously on a healthy store.
  Session::IoStats io = (*chaos)->io_stats();
  EXPECT_GT(io.faults_injected, 0);
  EXPECT_GT(io.scheduler.retries, 0);
  EXPECT_GT(io.scheduler.retry_successes, 0);
  EXPECT_GT(io.brownout_failures, 0);
  // Nothing escalated past the I/O layer: no quarantine, no failed steps.
  EXPECT_TRUE((*chaos)->QuarantinedLoaders().empty());
  EXPECT_EQ(io.sources_quarantined, 0);
}

// ---------------------------------------------------------------------------
// Scenario 2: faults the retry budget cannot absorb quarantine the source —
// deterministically, twice over — and heal back in after the brownout lifts.
// ---------------------------------------------------------------------------

// One full scripted run: healthy steps, a brownout of one source that outlives
// the retry budget (quarantine), then the brownout lifts (re-admission at the
// next probe boundary). Depth 0 keeps every script point step-aligned, so the
// whole scenario is a pure function of the options — run it twice and the
// batches must match byte for byte.
std::vector<RankBatch> RunScriptedBrownout(std::map<int32_t, int64_t>* quarantined_mid) {
  Session::Options options = BaseOptions(/*prefetch_depth=*/0);
  options.block_cache_bytes = 64 * kMiB;
  options.storage_faults.install = true;  // healthy until the script says not
  options.storage_faults.match_substr = "coyo700m/part-1/";
  options.io_retry.max_attempts = 2;
  options.io_retry.backoff_base_us = 100;
  options.quarantine_after_failures = 2;
  options.quarantine_probe_interval = 4;
  auto session = Session::Create(options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  std::vector<RankBatch> collected;
  auto stream = [&](int64_t steps) {
    for (int64_t s = 0; s < steps; ++s) {
      std::vector<RankBatch> batches = StreamStep(**session);
      collected.insert(collected.end(), batches.begin(), batches.end());
    }
  };
  stream(2);  // steps 0-1: healthy
  EXPECT_TRUE((*session)->QuarantinedLoaders().empty());

  // Brownout one source's files indefinitely: refills fail past the retry
  // budget, two failed gathers in a row quarantine the loader, and the
  // mixture renormalizes over the survivors. The stream stays alive.
  (*session)->fault_store()->set_brownout(true);
  stream(2);  // steps 2-3: quarantine kicks in at step 2, degraded but serving
  *quarantined_mid = (*session)->QuarantinedLoaders();
  EXPECT_FALSE(quarantined_mid->empty());
  EXPECT_GT((*session)->io_stats().brownout_failures, 0);

  // Lift the brownout: the probe at the next boundary (quarantined_step + 4)
  // gathers a healthy answer and re-admits the source.
  (*session)->fault_store()->set_brownout(false);
  stream(5);  // steps 4-8: probe fires by step 6, mixture restored
  EXPECT_TRUE((*session)->QuarantinedLoaders().empty());
  return collected;
}

TEST(ChaosTest, PersistentFaultsTriggerDeterministicQuarantine) {
  std::map<int32_t, int64_t> first_mid;
  std::map<int32_t, int64_t> second_mid;
  std::vector<RankBatch> first = RunScriptedBrownout(&first_mid);
  std::vector<RankBatch> second = RunScriptedBrownout(&second_mid);
  // Same script, same seeds: the quarantine decision (who, at which step) and
  // every served batch replay identically.
  EXPECT_EQ(first_mid, second_mid);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectBatchesIdentical(first[i], second[i]);
  }
}

// ---------------------------------------------------------------------------
// Scenario 3: a checkpoint taken mid-chaos resumes byte-identically — the
// retry burst leaves no trace in the durable position.
// ---------------------------------------------------------------------------

TEST(ChaosTest, CheckpointResumeStraddlesRetryBurstByteIdentically) {
  const std::string dir = testing::ScratchDir("chaos_resume");
  auto calm = Session::Create(BaseOptions());
  ASSERT_TRUE(calm.ok());
  {
    auto session = Session::Create(ChaosOptions());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int64_t s = 0; s < 2; ++s) {
      ExpectStepIdentical(**session, **calm);
    }
    // The checkpoint commits while the schedule is still rolling faults; the
    // retries it absorbed must not leak into the persisted cursors.
    EXPECT_GT((*session)->io_stats().faults_injected, 0);
    Result<std::string> id = (*session)->Checkpoint(dir);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }  // chaos session destroyed: only the on-disk checkpoint survives

  Session::Options resumed_options = ChaosOptions();
  resumed_options.resume_dir = dir;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (int64_t s = 0; s < 3; ++s) {
    ExpectStepIdentical(**resumed, **calm);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Scenario 4: a silently hung loader (no crash, no error — just no progress)
// is detected by the heartbeat watchdog mid-stream and its shadow promoted,
// without the consumer seeing a failed step.
// ---------------------------------------------------------------------------

TEST(ChaosTest, WatchdogPromotesSilentlyHungLoaderMidStream) {
  Session::Options options = BaseOptions();
  options.enable_fault_tolerance = true;
  options.watchdog_interval_ms = 20 * MSD_CHAOS_SLOWDOWN;
  options.watchdog_heartbeat_timeout_ms = 250 * MSD_CHAOS_SLOWDOWN;
  // Hung gathers/pops time out instead of blocking production forever.
  options.loader_rpc_timeout_ms = 50 * MSD_CHAOS_SLOWDOWN;
  options.produce_retry_attempts = 12;  // survive gathers until the promotion lands
  auto calm_options = BaseOptions();
  auto calm = Session::Create(calm_options);
  auto session = Session::Create(options);
  ASSERT_TRUE(calm.ok());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectStepIdentical(**session, **calm);

  // Wedge one primary loader's actor thread: it stays registered and alive,
  // it just stops answering. Only the heartbeat watchdog can tell.
  std::atomic<bool> release{false};
  std::shared_ptr<Actor> victim;
  for (const SourceSpec& spec : MakeCoyo700m().sources) {
    for (int32_t id = 0; id < 16 && victim == nullptr; ++id) {
      victim = (*session)->actor_system().Find("source_loader/" + spec.name + "#" +
                                               std::to_string(id));
    }
    if (victim != nullptr) {
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "no primary loader actor found by name";
  (*session)->actor_system().Post(*victim, [&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // The stream rides through: gathers against the wedged loader time out,
  // produce retries keep the step alive, the watchdog notices the stale
  // heartbeat and swaps in the shadow — all behind NextBatch.
  for (int64_t step = 1; step < 4; ++step) {
    ExpectStepIdentical(**session, **calm);
  }
  EXPECT_GE((*session)->io_stats().watchdog_detections, 1);
  EXPECT_FALSE((*session)->actor_system().gcs().IsAlive(victim->name()));
  release.store(true);  // let the wedged thread drain before teardown
}

}  // namespace
}  // namespace msd
