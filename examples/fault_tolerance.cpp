// Fault tolerance demo (Sec. 6.1), in two acts.
//
// Act 1 — in-process recovery: a Source Loader is abruptly killed
// mid-training; its hot-standby shadow is promoted instantly and the batch
// streams keep flowing. KillAndRecoverLoader drains the prefetch pipeline
// first, so the kill can never race an in-flight pop — prefetched steps
// survive the failover untouched.
//
// Act 2 — durable recovery (src/checkpoint/): the whole process dies. A
// checkpoint written earlier to disk carries the planner RNG + plan journal,
// every loader's read cursor + consumed-id set, and the per-rank stream
// positions; Session::Options::resume_dir rebuilds a brand-new Session that
// continues the exact byte stream — here even on a *different* mesh
// (cp 1 -> 2), the elastic-resume path.
#include <cstdio>
#include <filesystem>
#include <string>

#include "src/api/session.h"

namespace {

// Pulls one step's batches for every rank and returns rank 0's payload bytes.
int64_t StreamOneStep(msd::Session& session) {
  int64_t rank0_payload = 0;
  for (int32_t rank = 0; rank < session.tree().spec().WorldSize(); ++rank) {
    msd::Result<msd::RankBatch> batch = session.client(rank).value()->NextBatch();
    MSD_CHECK(batch.ok());
    if (rank == 0) {
      rank0_payload = batch->payload_bytes;
    }
  }
  return rank0_payload;
}

msd::Session::Options ConfiguredOptions(const msd::ParallelismSpec& mesh,
                                       const std::string& gcs_dir) {
  msd::Session::Options options;
  options.corpus = msd::MakeCoyo700m();
  options.spec = mesh;
  options.samples_per_step = 12;
  options.rows_per_file_override = 96;
  options.enable_fault_tolerance = true;
  options.loader_snapshot_interval = 2;
  options.gcs_spill_dir = gcs_dir;  // journal survives the process
  options.prefetch_depth = 2;
  return options;
}

}  // namespace

int main() {
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "msd_example_checkpoint").string();
  const std::string gcs_dir = ckpt_dir + "-gcs";
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove_all(gcs_dir);

  {
    auto session =
        msd::Session::Create(ConfiguredOptions({.dp = 2, .pp = 1, .cp = 1, .tp = 1}, gcs_dir));
    MSD_CHECK(session.ok());
    std::printf("running with %zu primaries + hot shadows (snapshot every 2 steps), "
                "prefetch depth 2\n",
                (*session)->num_loaders());

    for (int step = 0; step < 3; ++step) {
      StreamOneStep(**session);
      std::printf("step %d streamed ok\n", step);
    }

    std::printf("\n!! killing source loader #0 (abrupt: mailbox dropped, GCS marked dead)\n");
    msd::Result<std::string> promoted = (*session)->KillAndRecoverLoader(0);
    MSD_CHECK(promoted.ok());
    std::printf("=> drained pipeline, promoted %s\n", promoted->c_str());

    for (int step = 3; step < 6; ++step) {
      int64_t payload = StreamOneStep(**session);
      std::printf("step %d ok after failover (rank0 payload %lld bytes)\n", step,
                  static_cast<long long>(payload));
    }
    msd::PrefetchPipeline::Stats stats = (*session)->pipeline_stats();
    std::printf("\npipeline across the failure: %lld steps produced, %lld hits / %lld stalls\n",
                static_cast<long long>(stats.steps_produced),
                static_cast<long long>(stats.prefetch_hits),
                static_cast<long long>(stats.prefetch_stalls));

    // Act 2 setup: commit the stream position durably, then let the whole
    // process die (the Session — loaders, shadows, planner, GCS — is
    // destroyed with this scope; only the on-disk checkpoint survives).
    msd::Result<std::string> ckpt = (*session)->Checkpoint(ckpt_dir);
    MSD_CHECK(ckpt.ok());
    std::printf("\n== checkpointed as %s under %s\n", ckpt->c_str(), ckpt_dir.c_str());
    std::printf("!! killing the entire process (session destroyed, shadows included)\n");
  }

  // "Process restart": a brand-new Session resumes the stream from disk —
  // on a different mesh (cp 1 -> 2 doubles the world) and a deeper pipeline.
  msd::Session::Options resume =
      ConfiguredOptions({.dp = 2, .pp = 1, .cp = 2, .tp = 1}, gcs_dir);
  resume.prefetch_depth = 3;
  resume.resume_dir = ckpt_dir;
  auto resumed = msd::Session::Create(std::move(resume));
  MSD_CHECK(resumed.ok());
  std::printf("=> resumed on a resharded mesh (cp 2, world %d) at the committed step; "
              "journaled in-flight plans replay against the new topology\n",
              (*resumed)->tree().spec().WorldSize());
  for (int step = 6; step < 9; ++step) {
    int64_t payload = StreamOneStep(**resumed);
    std::printf("step %d ok after process restart (rank0 payload %lld bytes)\n", step,
                static_cast<long long>(payload));
  }
  std::printf("\nno delivery gap across either failure — loader kill and full process "
              "death both preserve the exact training byte stream\n");
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove_all(gcs_dir);
  return 0;
}
