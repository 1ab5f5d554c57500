// DataClient: one training rank's streaming handle onto a Session.
//
// The paper's pull model gives every rank a continuous stream of batches
// while the Planner/Loaders/Constructors work ahead of consumption. A
// DataClient is that stream's consumer end: NextBatch() blocks until the
// rank's next step is produced by the session's prefetch pipeline (usually it
// already is — that's the point) and NextBatchAsync() returns a future so the
// caller can overlap the fetch with its own compute.
//
//   auto session = msd::Session::Create(options);  // Session::Options
//   msd::DataClient* client = (*session)->client(rank).value();
//   while (training) {
//     msd::RankBatch batch = client->NextBatch().value();  // hot: prefetch hit
//     ...
//   }
//
// At prefetch_depth = 0 nothing is built ahead: the first rank to pull a step
// produces it inline on its own thread (the lockstep baseline).
//
// A DataClient is bound to its rank and owned by the Session; handles stay
// valid for the session's lifetime. One consumer per rank: a single
// DataClient must not be shared across threads (different ranks' clients may
// be driven concurrently — that is the intended use).
#ifndef SRC_API_DATA_CLIENT_H_
#define SRC_API_DATA_CLIENT_H_

#include <future>

#include "src/api/prefetch_pipeline.h"
#include "src/constructor/data_constructor.h"

namespace msd {

class Session;

class DataClient {
 public:
  DataClient(const DataClient&) = delete;
  DataClient& operator=(const DataClient&) = delete;

  /// Blocking pull of this rank's next batch; advances the rank's cursor.
  /// Token and pixel payloads inside the batch are zero-copy views of the
  /// session's frozen step buffers.
  Result<RankBatch> NextBatch();

  /// Future-returning pull, for overlapping the fetch with caller compute.
  /// Keep at most one pull (sync or async) outstanding per rank: the step is
  /// claimed when the pull executes, so concurrent pulls on one rank would
  /// claim steps in a nondeterministic order. Backed by a short-lived thread
  /// per call — negligible at step granularity, but hot loops should prefer
  /// NextBatch() on a persistent consumer thread.
  std::future<Result<RankBatch>> NextBatchAsync();

  /// Client-fed mixture re-weighting (the training loop's feedback hook):
  /// commits new per-source base weights taking effect at `effective_step`
  /// (-1, the default, = the next step the planner has not yet planned).
  /// Requires the session to carry a dynamic mixture schedule
  /// (Session::Options::mixture_schedule); overrides are validated by the
  /// planner, checkpointed with its state, and replayed on resume.
  Status UpdateMixture(std::vector<double> weights, int64_t effective_step = -1);

  /// The training rank this handle is bound to.
  int32_t rank() const { return rank_; }
  /// The step the next NextBatch() call will serve, or -1 if this rank was
  /// dropped from the mesh by a shrinking Reshard().
  int64_t next_step() const;

 private:
  friend class Session;
  DataClient(Session* session, PrefetchPipeline* pipeline, int32_t rank)
      : session_(session), pipeline_(pipeline), rank_(rank) {}

  Session* session_;
  PrefetchPipeline* pipeline_;
  int32_t rank_;
};

}  // namespace msd

#endif  // SRC_API_DATA_CLIENT_H_
