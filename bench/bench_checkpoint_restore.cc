// Durable checkpoint & elastic resume cost (src/checkpoint/): what does it
// cost to make the data-plane position survive the process?
//
// The scenario streams a depth-2 session, then measures
//   - steady-state step time (the baseline everything is relative to),
//   - Checkpoint(dir) latency (pipeline drain + state gather + two-phase
//     commit to disk) and the on-disk checkpoint size,
//   - resume latency (a session created with resume_dir: corpus
//     re-materialization + loader rewind + plan-journal replay) split
//     against a cold fresh-session build.
//
// `--smoke` runs a small scenario and exits nonzero if the resumed session's
// batches are not byte-identical to an uninterrupted run — the durability
// path can never silently fork the stream. Wired into ctest.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/session.h"

namespace msd {
namespace {

namespace fs = std::filesystem;

struct Scenario {
  const char* label;
  int num_sources;
  ParallelismSpec spec;
  int64_t samples_per_step;
  int64_t rows_per_file;
  int warm_steps;    // consumed before the checkpoint
  int resume_steps;  // consumed after the resume (and verified in smoke)
};

Session::Options MakeOptions(const Scenario& s) {
  Session::Options options;
  options.corpus = MakeNavitData(/*seed=*/13, s.num_sources);
  options.spec = s.spec;
  options.num_microbatches = 2;
  options.samples_per_step = s.samples_per_step;
  options.max_seq_len = 2048;
  options.rows_per_file_override = s.rows_per_file;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  return options;
}

double Ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

void StreamStep(Session& session) {
  for (int32_t rank = 0; rank < session.tree().spec().WorldSize(); ++rank) {
    Result<RankBatch> batch = session.client(rank).value()->NextBatch();
    MSD_CHECK(batch.ok());
  }
}

int RunScenario(const Scenario& s, bool smoke) {
  bench::PrintHeader(
      std::string("checkpoint/restore — ") + s.label,
      "job-level differential checkpointing: kill the process, resume the "
      "stream byte-identically from disk");
  std::printf("  sources=%d mesh={dp=%d pp=%d cp=%d tp=%d} samples/step=%lld\n",
              s.num_sources, s.spec.dp, s.spec.pp, s.spec.cp, s.spec.tp,
              static_cast<long long>(s.samples_per_step));

  const std::string dir =
      (fs::temp_directory_path() / ("msd_bench_ckpt_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  int failures = 0;
  {
    // The uninterrupted reference keeps running in parallel with the
    // checkpointed job so smoke can verify byte-identity after the resume.
    auto reference = Session::Create(MakeOptions(s));
    auto session = Session::Create(MakeOptions(s));
    MSD_CHECK(reference.ok() && session.ok());

    auto warm_t0 = std::chrono::steady_clock::now();
    for (int step = 0; step < s.warm_steps; ++step) {
      StreamStep(**session);
    }
    const double step_ms = Ms(warm_t0) / s.warm_steps;
    for (int step = 0; step < s.warm_steps; ++step) {
      StreamStep(**reference);
    }
    bench::PrintRow("steady-state step time", step_ms, "ms");

    auto save_t0 = std::chrono::steady_clock::now();
    Result<std::string> id = (*session)->Checkpoint(dir);
    MSD_CHECK(id.ok());
    const double save_ms = Ms(save_t0);
    const int64_t bytes = ObjectStore(dir).TotalBytes();
    bench::PrintRow("checkpoint save latency", save_ms, "ms");
    std::printf("      (%.2fx a training step)\n", save_ms / step_ms);
    bench::PrintRow("checkpoint size on disk", static_cast<double>(bytes) / 1024.0, "KiB");

    // Kill the session (the "process") before resuming.
    session.value().reset();

    auto cold_t0 = std::chrono::steady_clock::now();
    auto cold = Session::Create(MakeOptions(s));
    MSD_CHECK(cold.ok());
    const double cold_ms = Ms(cold_t0);

    Session::Options resume_options = MakeOptions(s);
    resume_options.resume_dir = dir;
    auto restore_t0 = std::chrono::steady_clock::now();
    auto resumed = Session::Create(std::move(resume_options));
    MSD_CHECK(resumed.ok());
    const double restore_ms = Ms(restore_t0);
    bench::PrintRow("fresh session build (baseline)", cold_ms, "ms");
    bench::PrintRow("resume-from-checkpoint build", restore_ms, "ms");
    std::printf("      (restore overhead %.1f ms, %.2fx a training step)\n",
                restore_ms - cold_ms, (restore_ms - cold_ms) / step_ms);

    // Post-resume stream: verify (smoke) or just time it.
    const int32_t world = s.spec.WorldSize();
    for (int step = 0; step < s.resume_steps; ++step) {
      for (int32_t rank = 0; rank < world; ++rank) {
        Result<RankBatch> got = (*resumed)->client(rank).value()->NextBatch();
        Result<RankBatch> want = (*reference)->client(rank).value()->NextBatch();
        MSD_CHECK(got.ok() && want.ok());
        if (smoke && !bench::BatchesIdentical(got.value(), want.value())) {
          std::printf("  FAIL: resumed step %lld rank %d diverged from the "
                      "uninterrupted run\n",
                      static_cast<long long>(got->step), rank);
          ++failures;
        }
      }
    }
    if (failures == 0) {
      std::printf("  resumed stream byte-identical over %d post-resume steps\n",
                  s.resume_steps);
    }

    // Per-rank stall histogram (pipeline follow-up): who outran build-ahead?
    std::vector<PrefetchPipeline::RankStall> stalls =
        (*resumed)->pipeline_stats().rank_stalls;
    for (size_t rank = 0; rank < stalls.size(); ++rank) {
      std::printf("      rank %2zu: %lld/%lld stalled pulls, %.2f ms waiting\n", rank,
                  static_cast<long long>(stalls[rank].stalls),
                  static_cast<long long>(stalls[rank].pulls), stalls[rank].wait_ms);
    }
  }
  fs::remove_all(dir);
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
  std::vector<Scenario> scenarios;
  if (smoke) {
    scenarios.push_back({"smoke (4 sources, dp=2)", 4,
                         {.dp = 2, .pp = 1, .cp = 1, .tp = 1}, 16, 128, 3, 3});
  } else {
    scenarios.push_back({"steady state (8 sources, dp=2 cp=2)", 8,
                         {.dp = 2, .pp = 1, .cp = 2, .tp = 1}, 24, 256, 8, 4});
  }
  int failures = 0;
  for (const Scenario& s : scenarios) {
    failures += msd::RunScenario(s, smoke);
  }
  if (failures > 0) {
    std::printf("\n%d checkpoint invariant failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall checkpoint invariants held\n");
  return 0;
}
