// VLM pre-training with hybrid parallelism: the Fig. 9 (right) strategy on a
// DP=2 CP=2 TP=2 mesh, consumed through streaming DataClients. Shows CP
// sequence slicing, TP broadcast exclusion, the encoder subplan, and the
// load-balance win over the vanilla baseline.
#include <cstdio>
#include <thread>
#include <vector>

#include "src/api/session.h"

namespace {

// Streams `steps` batches for every rank (one thread per rank) and returns
// the mean DP imbalance the pipeline observed over those steps.
double StreamSteps(msd::Session& session, int steps,
                   std::vector<msd::RankBatch>* last_batches) {
  const int32_t world = session.tree().spec().WorldSize();
  last_batches->assign(static_cast<size_t>(world), msd::RankBatch{});
  double imbalance_sum = 0.0;
  for (int s = 0; s < steps; ++s) {
    // Per-step stats must be read before the step is fully consumed (the
    // pipeline retires it once every rank has fetched its view).
    int64_t step = session.client(0).value()->next_step();
    msd::Result<msd::Session::StepStats> stats = session.StepStatsFor(step);
    MSD_CHECK(stats.ok());
    imbalance_sum += stats->dp_imbalance;
    std::vector<std::thread> ranks;
    for (int32_t rank = 0; rank < world; ++rank) {
      msd::DataClient* client = session.client(rank).value();
      ranks.emplace_back([client, rank, last_batches] {
        msd::Result<msd::RankBatch> batch = client->NextBatch();
        MSD_CHECK(batch.ok());
        (*last_batches)[static_cast<size_t>(rank)] = std::move(batch.value());
      });
    }
    for (std::thread& t : ranks) {
      t.join();
    }
  }
  return imbalance_sum / steps;
}

}  // namespace

int main() {
  msd::Session::Options options;
  options.corpus = msd::MakeNavitData(/*seed=*/11, /*num_sources=*/24);
  options.spec = {.dp = 2, .pp = 1, .cp = 2, .tp = 2};
  options.num_microbatches = 2;
  options.samples_per_step = 24;
  options.max_seq_len = 4096;
  options.backbone = msd::Llama12B();
  options.encoder = msd::ViT2B();
  options.strategy = msd::Session::StrategyKind::kHybridBalance;
  options.rows_per_file_override = 48;
  options.prefetch_depth = 2;
  auto session = msd::Session::Create(options);
  MSD_CHECK(session.ok());
  std::printf("VLM session: %s, %zu loaders (auto-partitioned), streaming clients\n",
              (*session)->tree().spec().ToString().c_str(), (*session)->num_loaders());

  std::vector<msd::RankBatch> batches;
  double hybrid_imbalance = StreamSteps(**session, 4, &batches);

  // The same sequence is sliced across CP ranks and excluded on tp>0 ranks.
  const msd::RankBatch& cp0 = batches[0];  // dp0 cp0 tp0
  const msd::RankBatch& cp1 = batches[2];  // dp0 cp1 tp0
  const msd::PackedSequence& s0 = cp0.microbatches[0].sequences[0];
  const msd::PackedSequence& s1 = cp1.microbatches[0].sequences[0];
  std::printf("\nCP slicing: sequence of %d padded tokens -> rank slices of %zu + %zu\n",
              s0.padded_to, s0.tokens.size(), s1.tokens.size());

  // Multimodal payload plane: pixels ride whole with the sequence at every
  // CP coordinate, as views aliasing ONE loader-frozen buffer — no copies.
  auto first_pixels = [](const msd::RankBatch& batch) -> const msd::PixelView* {
    for (const msd::Microbatch& mb : batch.microbatches) {
      for (const msd::PackedSequence& seq : mb.sequences) {
        for (const msd::PixelView& v : seq.pixel_segments) {
          if (!v.empty()) {
            return &v;
          }
        }
      }
    }
    return nullptr;
  };
  const msd::PixelView* px0 = first_pixels(cp0);
  const msd::PixelView* px1 = first_pixels(cp1);
  if (px0 != nullptr && px1 != nullptr) {
    int64_t pixels = 0;
    for (const msd::Microbatch& mb : cp0.microbatches) {
      for (const msd::PackedSequence& seq : mb.sequences) {
        pixels += seq.PixelCount();
      }
    }
    std::printf("pixel plane: %lld patch-embedding floats on cp0; cp0/cp1 alias one "
                "frozen buffer: %s\n",
                static_cast<long long>(pixels),
                px0->AliasesStorageOf(*px1) ? "yes" : "NO (bug!)");
  }
  std::printf("hybrid-balance mean DP imbalance over 4 steps: %.3f\n", hybrid_imbalance);
  msd::PrefetchPipeline::Stats pipeline = (*session)->pipeline_stats();
  std::printf("pipeline: %lld hits / %lld stalls, %lld steps retired by rank refcount\n",
              static_cast<long long>(pipeline.prefetch_hits),
              static_cast<long long>(pipeline.prefetch_stalls),
              static_cast<long long>(pipeline.steps_retired));

  // Vanilla comparison on an identical corpus.
  msd::Session::Options vanilla = options;
  vanilla.strategy = msd::Session::StrategyKind::kVanilla;
  auto vanilla_session = msd::Session::Create(std::move(vanilla));
  MSD_CHECK(vanilla_session.ok());
  std::vector<msd::RankBatch> vanilla_batches;
  StreamSteps(**vanilla_session, 4, &vanilla_batches);
  std::printf("(vanilla runs but reports no cost model — see bench_fig13 for the\n"
              " simulated end-to-end throughput comparison)\n");
  return 0;
}
