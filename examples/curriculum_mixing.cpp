// Curriculum learning with dynamic data mixing (Sec. 2.1 / Sec. 5): a staged
// schedule shifts the mixture from "easy" to "hard" sources during training;
// the mixture-driven AutoScaler reallocates loader actors as demand moves.
// Batches are consumed through streaming DataClients — the prefetch pipeline
// plans ahead with the stage weights of each future step.
#include <cstdio>
#include <vector>

#include "src/api/session.h"

int main() {
  // Sources 0-2 are "easy" (short text), 3-5 "hard" (long multimodal).
  msd::CorpusSpec corpus = msd::MakeNavitData(/*seed=*/17, /*num_sources=*/6);
  auto schedule = std::make_shared<msd::StagedMix>(std::vector<msd::StagedMix::Stage>{
      {0, {4, 4, 4, 1, 1, 1}},   // warmup: mostly easy
      {3, {2, 2, 2, 2, 2, 2}},   // mid: uniform
      {6, {1, 1, 1, 6, 6, 6}},   // late: mostly hard
  });

  msd::Session::Options options;
  options.corpus = corpus;
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.samples_per_step = 12;
  options.schedule = schedule;
  options.rows_per_file_override = 64;
  options.prefetch_depth = 2;
  auto session = msd::Session::Create(std::move(options));
  MSD_CHECK(session.ok());

  // The online scaler watches the same schedule the Planner samples from.
  msd::ScalerOptions scaler_options;
  scaler_options.consecutive = 2;
  scaler_options.actor_budget = 12;
  msd::MixtureDrivenScaler scaler(std::vector<int32_t>(6, 2), scaler_options);

  const int32_t world = (*session)->tree().spec().WorldSize();
  for (int64_t step = 0; step < 14; ++step) {
    // Stats for the upcoming step (blocks until the pipeline produced it —
    // with depth 2 it usually already has).
    msd::Result<msd::Session::StepStats> stats = (*session)->StepStatsFor(step);
    MSD_CHECK(stats.ok());
    size_t samples = 0;
    for (int32_t rank = 0; rank < world; ++rank) {
      msd::Result<msd::RankBatch> batch = (*session)->client(rank).value()->NextBatch();
      MSD_CHECK(batch.ok());
      if (rank == 0) {
        samples = stats->samples;
      }
    }
    std::vector<double> weights = schedule->WeightsAt(step);
    std::vector<msd::ScalingDecision> decisions = scaler.Observe(weights);
    std::printf("step %lld: served %zu samples (build-ahead %.2f ms); weights [",
                static_cast<long long>(step), samples, stats->build_ahead_ms);
    for (size_t s = 0; s < weights.size(); ++s) {
      std::printf("%s%.0f", s ? " " : "", weights[s]);
    }
    std::printf("]");
    for (const msd::ScalingDecision& d : decisions) {
      std::printf("  [autoscaler: source %d %+d actors]", d.source_id, d.delta_actors);
    }
    std::printf("\n");
  }
  std::printf("\nfinal actor allocation per source: ");
  for (int32_t a : scaler.actor_counts()) {
    std::printf("%d ", a);
  }
  std::printf("\ntotal rescale events: %lld\n",
              static_cast<long long>(scaler.total_rescales()));
  msd::PrefetchPipeline::Stats pipeline = (*session)->pipeline_stats();
  std::printf("pipeline: %lld hits / %lld stalls over 14 streamed steps\n",
              static_cast<long long>(pipeline.prefetch_hits),
              static_cast<long long>(pipeline.prefetch_stalls));
  return 0;
}
