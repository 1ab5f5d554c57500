// The end-to-end phase: a single client thread plays a data-parallel trainer
// against one DataService tenant (closed loop, one client thread). Each step
// it pulls every rank's batch with DataClient::NextBatch, then "trains" by
// sleeping for the step's simulated accelerator time.
#ifndef LAYERBENCH_STREAM_H_
#define LAYERBENCH_STREAM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/service/data_service.h"
#include "workload.h"

namespace layerbench {

// Operation ledger shared by every phase: pulls, checkpoints, resumes and
// correctness checks each count once; every failure is kept with its reason.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  // Counts one operation; returns `ok` so call sites can branch on it.
  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 16) {
        failures.push_back(what);
      }
    }
    return ok;
  }
};

struct StreamConfig {
  double seconds = 3;          // timed streaming budget
  bool trace = false;          // also collect the api-layer per-step stats
  std::string work_dir;        // checkpoints land under here
};

struct StreamResult {
  // Timed streaming, summed over episodes.
  double timed_s = 0;
  int64_t tokens = 0;
  double blocked_s = 0;
  std::vector<double> window_tokens_per_s;  // per window of timed steps
  std::vector<double> window_stall_frac;
  std::vector<double> step_ms;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  // Checkpoint episode.
  std::vector<double> ckpt_ms;
  int64_t ckpt_bytes = 0;
  std::vector<double> resume_s;
  // Sorted sample ids per step of the timed stream (drill fidelity).
  std::map<int64_t, std::vector<uint64_t>> step_ids;
  // api / io layer views (per-layer metrics).
  std::vector<double> wait_ms;     // per step: time blocked in NextBatch
  std::vector<double> produce_ms;  // per step: producer plan+pop+build (trace)
  int64_t prefetch_hits = 0;
  int64_t prefetch_stalls = 0;
  int64_t steps_streamed = 0;  // every step pulled in timed episodes
  int64_t io_issued_gets = 0;
  int64_t io_prefetch_issues = 0;
  int64_t io_coalesced = 0;
  int64_t cache_lookups = 0;
  int64_t cache_hits = 0;
  int64_t tenant_threads = 0;
};

// Runs the timed episodes, the checkpoint/resume episode and the depth-0
// reference replay against `service`, whose store already holds the corpus.
StreamResult RunStreamPhase(const Workload& workload, uint64_t seed, const StreamConfig& config,
                            msd::DataService& service, Ledger& ledger);

// Resident set size of this process, from /proc/self/statm.
double RssMb();
// OS threads of this process, from /proc/self/status.
int64_t ProcessThreads();

}  // namespace layerbench

#endif  // LAYERBENCH_STREAM_H_
