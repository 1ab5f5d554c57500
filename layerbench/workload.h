// The three workloads, each a tenant of a DataService. Corpus presets use
// fixed spec seeds so a workload's source mix is the same for every run; the
// command-line seed drives the sample bytes and the planner's draws.
#ifndef LAYERBENCH_WORKLOAD_H_
#define LAYERBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/api/session.h"
#include "src/data/source_spec.h"
#include "src/service/shared_plane.h"

namespace layerbench {

struct Workload {
  msd::CorpusSpec corpus;
  msd::ParallelismSpec mesh;
  int64_t samples_per_step = 32;
  int32_t max_seq_len = 4096;
  // Rows per source file. Streams are single-epoch, so the corpus must hold
  // every step one tenant registration streams, plus the loaders' buffers.
  int64_t rows_per_file = 0;
  int64_t row_group_bytes = 0;
  int32_t read_ahead_groups = 0;
  msd::SimTime storage_get_latency_us = 0;
  int64_t plane_cache_bytes = 0;  // 0 = the plane's default
  // Checkpoint cadence inside timed streaming (0 = none), and in the
  // checkpoint episode every workload runs after the timed window.
  int64_t timed_checkpoint_every = 0;
  int64_t episode_checkpoint_every = 8;
  // Most steps one registration streams; sized to stay inside the corpus.
  int64_t episode_steps = 32;
  // Simulated accelerator rate (training FLOP/s of one DP group), frozen so
  // that compute is about a quarter of the loader-bound step time measured
  // when this benchmark was introduced (see README.md, "Compute model").
  double device_flops_per_s = 0;
};

inline std::optional<Workload> FindWorkload(const std::string& name) {
  Workload w;
  if (name == "vlm_decode") {
    // Image decode and loader refill dominate; the planner and io idle.
    w.corpus = msd::MakeNavitData(/*seed=*/11, /*num_sources=*/16);
    // One file per source: the image rows dominate memory, and a single-file
    // source bounds how many steps one registration can stream anyway.
    for (msd::SourceSpec& src : w.corpus.sources) {
      src.num_files = 1;
    }
    w.mesh = {.dp = 2, .pp = 1, .cp = 2, .tp = 1};
    w.samples_per_step = 32;
    w.max_seq_len = 2048;
    w.rows_per_file = 224;
    w.episode_steps = 56;
    w.episode_checkpoint_every = 2;
    w.device_flops_per_s = 4.2e17;
  } else if (name == "text_fanin") {
    // 128 sources: planner gather fan-out, per-loader actors and snapshots.
    w.corpus = msd::MakeTextCorpus(/*seed=*/13, /*num_sources=*/128);
    w.mesh = {.dp = 4, .pp = 1, .cp = 1, .tp = 1};
    w.samples_per_step = 64;
    w.episode_steps = 576;
    w.episode_checkpoint_every = 8;
    w.device_flops_per_s = 6.0e17;
  } else if (name == "remote_ckpt") {
    // Remote store: 2 ms per backing Get, small row groups, read-ahead, a
    // cache smaller than the corpus, and checkpoints beside the reads.
    w.corpus = msd::MakeTextCorpus(/*seed=*/13, /*num_sources=*/8);
    w.mesh = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
    w.samples_per_step = 32;
    w.rows_per_file = 4096;
    w.row_group_bytes = 64 * msd::kKiB;
    w.read_ahead_groups = 4;
    w.storage_get_latency_us = 2000;
    w.plane_cache_bytes = 4 * msd::kMiB;
    w.timed_checkpoint_every = 32;
    w.episode_checkpoint_every = 8;
    w.episode_steps = 896;
    w.device_flops_per_s = 1.0e18;
  } else {
    return std::nullopt;
  }
  return w;
}

inline msd::SharedIoPlaneConfig PlaneConfigFor(const Workload& w) {
  msd::SharedIoPlaneConfig plane;
  if (w.plane_cache_bytes > 0) {
    plane.cache_bytes = w.plane_cache_bytes;
  }
  plane.storage_get_latency = w.storage_get_latency_us;
  return plane;
}

inline msd::Session::Options SessionOptionsFor(const Workload& w, uint64_t seed) {
  msd::Session::Options o;
  o.corpus = w.corpus;
  o.spec = w.mesh;
  o.samples_per_step = w.samples_per_step;
  o.max_seq_len = w.max_seq_len;
  o.seed = seed;
  o.rows_per_file_override = w.rows_per_file;
  o.row_group_bytes = w.row_group_bytes;
  o.read_ahead_groups = w.read_ahead_groups;
  return o;
}

// The corpus exactly as a session with these options materializes it, so
// pre-materializing it makes the session's own write a dedup no-op.
inline msd::CorpusSpec MaterializedCorpus(const msd::Session::Options& o) {
  msd::CorpusSpec corpus = o.corpus;
  if (o.rows_per_file_override > 0) {
    for (msd::SourceSpec& src : corpus.sources) {
      src.rows_per_file = o.rows_per_file_override;
    }
  }
  return corpus;
}

inline msd::MsdfWriteOptions WriteOptionsFor(const msd::Session::Options& o) {
  msd::MsdfWriteOptions write;
  write.target_row_group_bytes = o.row_group_bytes > 0 ? o.row_group_bytes : 4 * msd::kMiB;
  return write;
}

}  // namespace layerbench

#endif  // LAYERBENCH_WORKLOAD_H_
