// Pipeline throughput: streaming per-rank DataClients at prefetch depths
// 0 (lockstep), 1, 2 and 4, end to end through the public Session API.
//
// Each arm runs the same synthetic training loop — every rank streams its
// batches through its DataClient, burns a fixed per-token "training compute"
// budget and waits for the other ranks — and reports steady-state tokens/s.
// At depth 0 the first rank to pull a step produces it inline, so production
// is serialized with consumption; the pipelined arms overlap plan+pop+build
// of steps N+1..N+depth with the consumption of step N, which is the paper's
// "the data path must never be the bottleneck" property surfaced at the API.
//
// `--smoke` runs a small scenario and exits nonzero if
//   - any session copies a Sample anywhere on the hot path, or
//   - batches served at depth 2 are not byte-identical to depth 0.
// Wired into ctest so the streaming path can never silently rot.
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/session.h"

namespace msd {
namespace {

struct Scenario {
  const char* label;
  int num_sources;
  ParallelismSpec spec;
  int64_t samples_per_step;
  int64_t rows_per_file;
  int steps;
  int compute_reps;  // per-token training-compute burn per batch
};

Session::Options MakeOptions(const Scenario& s, int32_t depth) {
  Session::Options options;
  options.corpus = MakeNavitData(/*seed=*/13, s.num_sources);
  options.spec = s.spec;
  options.num_microbatches = 2;
  options.samples_per_step = s.samples_per_step;
  options.max_seq_len = 2048;
  options.rows_per_file_override = s.rows_per_file;
  options.loader_workers = 1;
  options.prefetch_depth = depth;
  return options;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The stand-in for the trainer's forward/backward: a multiply-accumulate
// sweep over the batch's token views. Identical in every arm, so arms differ
// only in how production overlaps this consumption.
std::atomic<int64_t> g_compute_sink{0};

int64_t TrainCompute(const RankBatch& batch, int reps) {
  int64_t acc = 0;
  int64_t tokens = 0;
  for (int r = 0; r < reps; ++r) {
    for (const Microbatch& mb : batch.microbatches) {
      for (const PackedSequence& seq : mb.sequences) {
        int64_t local = 0;
        for (int32_t t : seq.tokens) {
          local += t * 31 + 7;
        }
        acc += local;
        if (r == 0) {
          tokens += static_cast<int64_t>(seq.tokens.size());
        }
      }
    }
  }
  g_compute_sink.fetch_add(acc, std::memory_order_relaxed);  // defeat DCE
  return tokens;
}

struct ArmResult {
  double tokens_per_sec = 0.0;
  int64_t tokens_total = 0;
  int64_t sample_copies = 0;
  int64_t hits = 0;
  int64_t stalls = 0;
  // Per-rank stall histogram (count + total wait): localizes which consumer
  // ranks outran the build-ahead window.
  std::vector<PrefetchPipeline::RankStall> rank_stalls;
};

// One arm: a persistent consumer thread per rank streaming through its
// DataClient while the pipeline builds `depth` steps ahead. Ranks meet at a
// barrier after each step, as data-parallel ranks do at the gradient
// all-reduce.
ArmResult RunArm(const Scenario& s, int32_t depth) {
  auto session = Session::Create(MakeOptions(s, depth));
  MSD_CHECK(session.ok());
  const int32_t world = s.spec.WorldSize();
  std::vector<int64_t> tokens(static_cast<size_t>(world), 0);
  std::barrier all_reduce(world);
  ResetSampleCopyCount();
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ranks;
  for (int32_t rank = 0; rank < world; ++rank) {
    DataClient* client = (*session)->client(rank).value();
    ranks.emplace_back([&, client, rank] {
      for (int step = 0; step < s.steps; ++step) {
        Result<RankBatch> batch = client->NextBatch();
        MSD_CHECK(batch.ok());
        tokens[static_cast<size_t>(rank)] += TrainCompute(batch.value(), s.compute_reps);
        all_reduce.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : ranks) {
    t.join();
  }
  double elapsed = Seconds(t0);
  ArmResult r;
  for (int64_t t : tokens) {
    r.tokens_total += t;
  }
  r.tokens_per_sec = static_cast<double>(r.tokens_total) / elapsed;
  r.sample_copies = SampleCopyCount();
  PrefetchPipeline::Stats stats = (*session)->pipeline_stats();
  r.hits = stats.prefetch_hits;
  r.stalls = stats.prefetch_stalls;
  r.rank_stalls = stats.rank_stalls;
  return r;
}

// Byte-identity gate: every batch of a depth-2 streaming session must equal
// the depth-0 session's, step for step, rank for rank.
int CheckEquivalence(const Scenario& s) {
  auto lockstep = Session::Create(MakeOptions(s, 0));
  auto pipelined = Session::Create(MakeOptions(s, 2));
  MSD_CHECK(lockstep.ok() && pipelined.ok());
  int failures = 0;
  for (int step = 0; step < 2; ++step) {
    for (int32_t rank = 0; rank < s.spec.WorldSize(); ++rank) {
      Result<RankBatch> want = (*lockstep)->client(rank).value()->NextBatch();
      Result<RankBatch> got = (*pipelined)->client(rank).value()->NextBatch();
      MSD_CHECK(want.ok() && got.ok());
      if (!bench::BatchesIdentical(got.value(), want.value())) {
        std::printf("  FAIL: step %d rank %d diverged from depth 0\n", step, rank);
        ++failures;
      }
    }
  }
  return failures;
}

int RunScenario(const Scenario& s, bool smoke) {
  bench::PrintHeader(
      std::string("pipeline throughput — ") + s.label,
      "streaming DataClients hide plan+pop+build behind training compute; at "
      "depth 0 it is paid serially every step");
  std::printf("  sources=%d mesh={dp=%d pp=%d cp=%d tp=%d} samples/step=%lld steps=%d\n",
              s.num_sources, s.spec.dp, s.spec.pp, s.spec.cp, s.spec.tp,
              static_cast<long long>(s.samples_per_step), s.steps);

  int failures = 0;
  double lockstep_tokens_per_sec = 0.0;
  double depth2_tokens_per_sec = 0.0;
  for (int32_t depth : {0, 1, 2, 4}) {
    ArmResult arm = RunArm(s, depth);
    if (depth == 0) {
      lockstep_tokens_per_sec = arm.tokens_per_sec;
    }
    std::string label = "DataClient (depth " + std::to_string(depth) + ")";
    bench::PrintRow(label.c_str(), arm.tokens_per_sec / 1e6, "Mtok/s");
    std::printf("      speedup %.2fx, %lld hits / %lld stalls\n",
                arm.tokens_per_sec / lockstep_tokens_per_sec,
                static_cast<long long>(arm.hits), static_cast<long long>(arm.stalls));
    // Per-rank stall histogram: stalled/total pulls and cumulative wait.
    for (size_t rank = 0; rank < arm.rank_stalls.size(); ++rank) {
      const PrefetchPipeline::RankStall& rs = arm.rank_stalls[rank];
      std::printf("        rank %2zu: %lld/%lld stalled, %.2f ms waiting\n", rank,
                  static_cast<long long>(rs.stalls), static_cast<long long>(rs.pulls),
                  rs.wait_ms);
    }
    if (depth == 2) {
      depth2_tokens_per_sec = arm.tokens_per_sec;
    }
    if (arm.sample_copies != 0) {
      std::printf("  FAIL: depth-%d arm performed %lld Sample deep copies\n", depth,
                  static_cast<long long>(arm.sample_copies));
      ++failures;
    }
  }
  failures += CheckEquivalence(s);
  if (!smoke && depth2_tokens_per_sec <= lockstep_tokens_per_sec) {
    std::printf("  WARN: depth-2 pipeline did not beat depth 0\n");
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
  std::vector<Scenario> scenarios;
  if (smoke) {
    scenarios.push_back({"smoke (4 sources, dp=2)", 4,
                         {.dp = 2, .pp = 1, .cp = 1, .tp = 1}, 16, 128, 4, 4});
  } else {
    scenarios.push_back({"steady state (6 sources, dp=2 cp=2)", 6,
                         {.dp = 2, .pp = 1, .cp = 2, .tp = 1}, 24, 512, 16, 16});
  }
  int failures = 0;
  for (const Scenario& s : scenarios) {
    failures += msd::RunScenario(s, smoke);
  }
  if (failures > 0) {
    std::printf("\n%d pipeline invariant failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall pipeline invariants held\n");
  return 0;
}
