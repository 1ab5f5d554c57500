// Quickstart: build a small multisource VLM corpus, start a MegaScale-Data
// session (source loaders + data constructors + planner as in-process
// actors), and stream real, packed, parallelism-transformed batches through
// per-rank DataClient handles while the prefetch pipeline builds ahead.
//
//   cmake -B build -S . && cmake --build build
//   ./build/example_quickstart
#include <cstdio>
#include <thread>
#include <vector>

#include "src/api/session.h"

namespace {

// One trainer rank: pull `steps` batches off this rank's stream. On the hot
// path the pull is a prefetch hit — the pipeline built the step while the
// previous one was being consumed.
void RunRank(msd::DataClient* client, int steps, int64_t* tokens_out) {
  int64_t tokens = 0;
  for (int step = 0; step < steps; ++step) {
    msd::Result<msd::RankBatch> batch = client->NextBatch();
    MSD_CHECK(batch.ok());
    for (const msd::Microbatch& mb : batch->microbatches) {
      tokens += mb.TotalTokens();
    }
  }
  *tokens_out = tokens;
}

}  // namespace

int main() {
  msd::Session::Options options;
  options.corpus = msd::MakeCoyo700m();  // 5 image-text sources
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 16;
  options.max_seq_len = 2048;
  options.strategy = msd::Session::StrategyKind::kBackboneBalance;
  options.rows_per_file_override = 64;
  options.prefetch_depth = 2;
  auto session = msd::Session::Create(std::move(options));
  if (!session.ok()) {
    std::fprintf(stderr, "session creation failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::printf("session up: %zu source loaders, mesh %s, prefetch depth 2\n",
              (*session)->num_loaders(), (*session)->tree().spec().ToString().c_str());

  // Streaming consumption: one thread per rank, each pulling its own stream.
  constexpr int kSteps = 3;
  const int32_t world = (*session)->tree().spec().WorldSize();
  std::vector<int64_t> tokens(static_cast<size_t>(world), 0);
  std::vector<std::thread> ranks;
  for (int32_t rank = 0; rank < world; ++rank) {
    msd::DataClient* client = (*session)->client(rank).value();
    ranks.emplace_back(RunRank, client, kSteps, &tokens[static_cast<size_t>(rank)]);
  }
  for (std::thread& t : ranks) {
    t.join();
  }
  for (int32_t rank = 0; rank < world; ++rank) {
    std::printf("  rank %d streamed %d steps, %lld tokens\n", rank, kSteps,
                static_cast<long long>(tokens[static_cast<size_t>(rank)]));
  }
  msd::PrefetchPipeline::Stats stats = (*session)->pipeline_stats();
  std::printf("pipeline: %lld steps produced, %lld retired, %lld hits / %lld stalls\n",
              static_cast<long long>(stats.steps_produced),
              static_cast<long long>(stats.steps_retired),
              static_cast<long long>(stats.prefetch_hits),
              static_cast<long long>(stats.prefetch_stalls));

  // The async variant overlaps the fetch with caller compute.
  msd::DataClient* client0 = (*session)->client(0).value();
  std::future<msd::Result<msd::RankBatch>> pending = client0->NextBatchAsync();
  //   ... training compute for the previous step would run here ...
  msd::Result<msd::RankBatch> async_batch = pending.get();
  MSD_CHECK(async_batch.ok());
  std::printf("async pull served step %lld for rank 0\n",
              static_cast<long long>(async_batch->step));

  // Per-step observability: a step's stats stay readable until every rank
  // has consumed it.
  msd::Result<msd::Session::StepStats> step_stats =
      (*session)->StepStatsFor(client0->next_step());
  MSD_CHECK(step_stats.ok());
  std::printf("step %lld: %zu samples, DP imbalance %.3f, plan %.2f ms, build-ahead %.2f ms\n",
              static_cast<long long>(step_stats->step), step_stats->samples,
              step_stats->dp_imbalance, step_stats->plan_compute_ms,
              step_stats->build_ahead_ms);
  std::printf("\n%s", (*session)->memory().Report().c_str());
  return 0;
}
