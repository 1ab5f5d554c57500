// Storage chaos plane (src/io/): is a faulty remote store invisible in the
// delivered bytes?
//
// Two gates, mirroring the two degradation regimes:
//   - retry absorption: a 5%-per-Get transient fault rate on top of 5 ms/Get
//     remote latency must stream byte-identically to the fault-free twin,
//     with zero failed steps and the scheduler's retry counter exactly equal
//     to the store's injected-fault counter (every fault absorbed, none
//     leaked, no retry budget exhausted);
//   - graceful quarantine: a brownout of one source that outlives the retry
//     budget must degrade the mixture deterministically (planner quarantines
//     the source, steps keep flowing) instead of aborting, and lifting the
//     brownout must re-admit the source via the probe path.
//
// `--smoke` runs both gates on a small scenario and exits nonzero on any
// violation. Wired into ctest (labels: smoke, chaos).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/session.h"

namespace msd {
namespace {

struct Scenario {
  const char* label;
  int num_sources;
  int64_t samples_per_step;
  int64_t rows_per_file;
  int64_t row_group_bytes;
  SimTime get_latency;
  double unavailable_p;
  double deadline_p;
  int32_t retry_attempts;
  int steps;
};

Session::Options RetryOptions(const Scenario& s, bool faulty) {
  Session::Options options;
  options.corpus = MakeTextCorpus(/*seed=*/13, s.num_sources);
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = s.samples_per_step;
  options.max_seq_len = 2048;
  options.rows_per_file_override = s.rows_per_file;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  options.row_group_bytes = s.row_group_bytes;
  options.storage_get_latency = s.get_latency;
  options.block_cache_bytes = 256 * kMiB;
  options.read_ahead_groups = 8;
  if (faulty) {
    options.storage_faults.seed = 0xFA17;
    options.storage_faults.unavailable_p = s.unavailable_p;
    options.storage_faults.deadline_p = s.deadline_p;
    options.io_retry.max_attempts = s.retry_attempts;
    options.io_retry.backoff_base_us = 100;  // bench-fast backoff
    options.io_retry.backoff_max_us = 2000;
  }
  return options;
}

double Ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

int64_t TokensOf(const std::vector<RankBatch>& batches) {
  int64_t tokens = 0;
  for (const RankBatch& batch : batches) {
    if (batch.metadata_only) {
      continue;
    }
    for (const Microbatch& mb : batch.microbatches) {
      for (const PackedSequence& seq : mb.sequences) {
        tokens += static_cast<int64_t>(seq.tokens.size());
      }
    }
  }
  return tokens;
}

// Pulls one step for every rank; counts a failed step instead of crashing so
// the gate can report how many steps the fault schedule actually broke.
std::vector<RankBatch> StreamStep(Session& session, int* failed_steps) {
  const int32_t world = session.tree().spec().WorldSize();
  std::vector<RankBatch> batches(static_cast<size_t>(world));
  bool ok = true;
  for (int32_t rank = 0; rank < world; ++rank) {
    Result<RankBatch> batch = session.client(rank).value()->NextBatch();
    if (!batch.ok()) {
      std::printf("  step failed for rank %d: %s\n", rank, batch.status().ToString().c_str());
      ok = false;
      continue;
    }
    batches[static_cast<size_t>(rank)] = std::move(batch.value());
  }
  if (!ok) {
    ++*failed_steps;
  }
  return batches;
}

int RunRetryAbsorption(const Scenario& s) {
  bench::PrintHeader(
      std::string("storage chaos — retry absorption — ") + s.label,
      "bounded retries with deterministic backoff absorb transient remote "
      "faults; the delivered stream is byte-identical to a fault-free run");
  std::printf("  sources=%d samples/step=%lld get-latency=%lld ms "
              "unavailable_p=%.2f deadline_p=%.2f retry-budget=%d\n",
              s.num_sources, static_cast<long long>(s.samples_per_step),
              static_cast<long long>(s.get_latency / kMillisecond), s.unavailable_p,
              s.deadline_p, s.retry_attempts);

  int failures = 0;
  int failed_steps = 0;
  std::vector<std::vector<RankBatch>> clean_batches;
  std::vector<std::vector<RankBatch>> faulty_batches;
  {
    auto session = Session::Create(RetryOptions(s, /*faulty=*/false));
    MSD_CHECK(session.ok());
    for (int step = 0; step < s.steps; ++step) {
      clean_batches.push_back(StreamStep(**session, &failed_steps));
    }
    MSD_CHECK(failed_steps == 0);
  }
  int64_t faulty_tokens = 0;
  double faulty_elapsed_ms = 0.0;
  Session::IoStats io;
  {
    auto session = Session::Create(RetryOptions(s, /*faulty=*/true));
    MSD_CHECK(session.ok());
    auto t0 = std::chrono::steady_clock::now();
    for (int step = 0; step < s.steps; ++step) {
      faulty_batches.push_back(StreamStep(**session, &failed_steps));
      faulty_tokens += TokensOf(faulty_batches.back());
    }
    faulty_elapsed_ms = Ms(t0);
    io = (*session)->io_stats();
  }

  bench::PrintRow("faulty tokens/s", static_cast<double>(faulty_tokens) /
                                         (faulty_elapsed_ms / 1000.0));
  bench::PrintRow("faults injected", static_cast<double>(io.faults_injected));
  bench::PrintRow("scheduler retries", static_cast<double>(io.scheduler.retries));
  bench::PrintRow("retry successes", static_cast<double>(io.scheduler.retry_successes));
  bench::PrintRow("retries exhausted", static_cast<double>(io.scheduler.retries_exhausted));
  bench::PrintRow("failed steps", static_cast<double>(failed_steps));

  if (failed_steps != 0) {
    std::printf("  FAIL: %d step(s) failed under the fault schedule\n", failed_steps);
    ++failures;
  }
  if (io.faults_injected <= 0) {
    std::printf("  FAIL: schedule injected no faults — the gate tested nothing\n");
    ++failures;
  }
  // Every injected fault fails exactly one backing Get; with the budget never
  // exhausted, each of those is re-issued exactly once more. The counters
  // must agree exactly — a mismatch means a fault leaked past the retry
  // layer or a retry fired for something that was not a fault.
  if (io.scheduler.retries != io.faults_injected) {
    std::printf("  FAIL: retries (%lld) != injected faults (%lld)\n",
                static_cast<long long>(io.scheduler.retries),
                static_cast<long long>(io.faults_injected));
    ++failures;
  }
  if (io.scheduler.retries_exhausted != 0) {
    std::printf("  FAIL: %lld fetch(es) exhausted the retry budget\n",
                static_cast<long long>(io.scheduler.retries_exhausted));
    ++failures;
  }
  for (size_t step = 0; step < clean_batches.size(); ++step) {
    for (size_t rank = 0; rank < clean_batches[step].size(); ++rank) {
      if (!bench::BatchesIdentical(clean_batches[step][rank], faulty_batches[step][rank])) {
        std::printf("  FAIL: step %zu rank %zu diverged under faults\n", step, rank);
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("  batches byte-identical with 5%% faults vs fault-free; all "
                "faults absorbed by retries\n");
  }
  return failures;
}

int RunBrownoutQuarantine(const Scenario& s) {
  bench::PrintHeader(
      std::string("storage chaos — brownout quarantine — ") + s.label,
      "a brownout outliving the retry budget quarantines the source and "
      "degrades the mixture deterministically; lifting it re-admits");

  Session::Options options;
  options.corpus = MakeTextCorpus(/*seed=*/13, s.num_sources);
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = s.samples_per_step;
  options.max_seq_len = 2048;
  options.rows_per_file_override = s.rows_per_file;
  options.loader_workers = 1;
  options.prefetch_depth = 0;  // rank 0's pull produces each step inline, so
                               // brownout windows align with step boundaries
  options.row_group_bytes = s.row_group_bytes;
  options.block_cache_bytes = 256 * kMiB;
  options.storage_faults.install = true;  // healthy store, scriptable brownout
  options.storage_faults.match_substr = "text/src-1/";
  options.io_retry.max_attempts = s.retry_attempts;
  options.io_retry.backoff_base_us = 100;
  options.io_retry.backoff_max_us = 2000;
  options.quarantine_after_failures = 2;
  options.quarantine_probe_interval = 4;

  auto session = Session::Create(options);
  MSD_CHECK(session.ok());

  int failures = 0;
  int64_t steps_delivered = 0;
  for (int step = 0; step < 2; ++step) {
    StreamStep(**session, &failures);
    ++steps_delivered;
  }
  (*session)->fault_store()->set_brownout(true);
  for (int step = 0; step < 2; ++step) {
    // The gate: these steps must keep flowing on the degraded mixture.
    StreamStep(**session, &failures);
    ++steps_delivered;
  }
  std::map<int32_t, int64_t> quarantined = (*session)->QuarantinedLoaders();
  Session::IoStats browned = (*session)->io_stats();
  bench::PrintRow("brownout failures", static_cast<double>(browned.brownout_failures));
  bench::PrintRow("sources quarantined", static_cast<double>(quarantined.size()));
  if (quarantined.empty()) {
    std::printf("  FAIL: brownout beyond the retry budget did not quarantine\n");
    ++failures;
  }
  (*session)->fault_store()->set_brownout(false);
  for (int step = 0; step < 5; ++step) {
    StreamStep(**session, &failures);
    ++steps_delivered;
  }
  std::map<int32_t, int64_t> after = (*session)->QuarantinedLoaders();
  bench::PrintRow("quarantined after recovery", static_cast<double>(after.size()));
  bench::PrintRow("steps delivered", static_cast<double>(steps_delivered));
  if (!after.empty()) {
    std::printf("  FAIL: probe did not re-admit the recovered source\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("  brownout degraded the mixture (no abort) and the probe "
                "re-admitted the source\n");
  }
  return failures;
}

}  // namespace
}  // namespace msd

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
  }
  using msd::Scenario;
  using msd::kKiB;
  using msd::kMillisecond;
  std::vector<Scenario> scenarios;
  if (smoke) {
    scenarios.push_back({"smoke (4 sources, dp=2, 5 ms/Get, 5% faults)", 4, 48, 512,
                         4 * kKiB, 5 * kMillisecond, 0.04, 0.01, 6, 6});
  } else {
    scenarios.push_back({"steady state (6 sources, dp=2, 5 ms/Get, 5% faults)", 6, 64, 768,
                         4 * kKiB, 5 * kMillisecond, 0.04, 0.01, 6, 10});
    scenarios.push_back({"fault storm (4 sources, 12% faults)", 4, 48, 512, 4 * kKiB,
                         5 * kMillisecond, 0.10, 0.02, 8, 6});
  }
  int failures = 0;
  for (const Scenario& s : scenarios) {
    failures += msd::RunRetryAbsorption(s);
    failures += msd::RunBrownoutQuarantine(s);
  }
  if (failures > 0) {
    std::printf("\n%d chaos-plane invariant failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall chaos-plane invariants held\n");
  return 0;
}
