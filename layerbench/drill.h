// The layer drill: rebuilds a workload's stack from public classes and drives
// it in lockstep on one thread, in the order Session::ProduceStep uses, so
// each layer's public functions can be timed from outside.
//
//   plane store -> TimedStore -> LatencyInjectingStore -> BlockCache + IoScheduler
//   AutoPartitionSources -> SourceLoader actors -> Planner -> DataConstructor/DP group
//
// Per step: Planner::GetPlan (then last_timings()), PopSamples per loader,
// BuildStep per constructor, GetBatch per rank, and the checkpoint journal
// (Planner::CheckpointState + SourceLoader::Snapshot per loader). It also
// times Open, GatherBuffer, Restore and an empty actor Ask.
#ifndef LAYERBENCH_DRILL_H_
#define LAYERBENCH_DRILL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "span_ring.h"
#include "src/service/data_service.h"
#include "stream.h"
#include "workload.h"

namespace layerbench {

struct DrillResult {
  int64_t steps = 0;
  // Per step (sums over the layer's calls in that step), milliseconds.
  std::vector<double> plan_ms, planner_gather_ms, planner_compute_ms;
  std::vector<double> pop_ms, gather_ms, build_ms, fetch_ms, journal_ms;
  std::vector<double> dp_imbalance;
  std::vector<double> open_ms;      // per loader
  std::vector<double> ask_us;       // per empty Ask
  std::vector<double> storage_get_ms;  // per backing read
  std::vector<double> step_ms;     // per drill step, wall
  double trace_overhead = 0;  // spans-on pass over spans-off pass, minus 1
  int64_t samples_popped = 0;
  int64_t tokens = 0;
  int64_t padding = 0;
  int64_t storage_bytes_steps = 0;  // backing bytes read during steps
  int64_t snapshot_bytes = 0;       // serialized loader snapshots, last step
  double restore_ms = 0;
  SelfTimes self_times;       // every span, set-up and restore included
  SelfTimes step_self_times;  // spans inside drill steps only
  std::string trace_path;
};

// Runs the drill twice on fresh stacks, spans off then on, each for up to
// `max_steps` steps (the first pass stops early past half of `budget_s`),
// checks every step's sample ids against the session run's `session_ids`,
// writes the spans-on pass as Chrome trace JSON to `trace_path`, and returns
// the spans-on pass with the paired step-time overhead.
DrillResult RunDrill(const Workload& workload, uint64_t seed, msd::DataService& service,
                     const std::map<int64_t, std::vector<uint64_t>>& session_ids,
                     int64_t max_steps, double budget_s, const std::string& trace_path,
                     Ledger& ledger);

}  // namespace layerbench

#endif  // LAYERBENCH_DRILL_H_
