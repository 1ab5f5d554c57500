// DataConstructor: the per-DP-group aggregation actor (Sec. 3).
//
// It ingests sample slices popped from Source Loaders, assembles microbatches
// (packing, padding, RoPE), and applies parallelism transformations so each
// trainer rank fetches exactly the view it needs:
//  - CP ranks receive zig-zag (or contiguous) sequence slices of shared batches,
//  - PP stages > 0 receive metadata-only views,
//  - TP ranks > 0 are excluded entirely when broadcast_at(TP) is declared.
// This sharing is what removes the per-rank loader redundancy of Fig. 6.
//
// Zero-copy data plane (ownership model):
//  - BuildStep takes the loaders' `shared_ptr<Sample>`s, indexes them by id,
//    and materializes each padded sequence payload exactly once into frozen
//    PayloadBuffers (see payload_buffer.h). No Sample is copied on this path.
//  - Plan assembly groups `plan.assignments` by (bucket, microbatch) in one
//    pass; per-bin assembly then walks only its own assignment slice instead
//    of rescanning the whole plan per bin.
//  - GetBatch serves TokenView-carrying RankBatches. The CP-sliced view of a
//    (bucket, cp-coordinate) pair is computed on first fetch and cached in
//    StepData, so all ranks sharing that coordinate (TP replicas, and every
//    later fetch) alias the same storage. Contiguous slices are O(1) windows
//    into the canonical buffer; only zig-zag CP slices (two disjoint chunks)
//    are materialized, once per coordinate rather than once per rank.
//  - PP stages > 0 get the cached metadata-only variant: sequence shapes and
//    ids, zero payload bytes.
//
// Step lifetime under the streaming API: the prefetch pipeline builds steps
// ahead of consumption and retires them by refcount — once every rank of the
// mesh has fetched a step, ReleaseStep drops its StepData eagerly. The
// resident_steps window remains as the backstop for steps some rank never
// completes (a failed fetch, a rank dropped by a shrinking reshard).
//
// Thread-safety: all public methods are safe to call concurrently. In the
// actor deployment calls are already serialized through the mailbox; the
// internal mutex additionally covers direct multi-threaded use (benches,
// tests) so pipelined GetBatch can never race BuildStep/Reshard.
#ifndef SRC_CONSTRUCTOR_DATA_CONSTRUCTOR_H_
#define SRC_CONSTRUCTOR_DATA_CONSTRUCTOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/actor/actor.h"
#include "src/data/microbatch.h"
#include "src/loader/source_loader.h"
#include "src/mesh/client_place_tree.h"
#include "src/plan/dgraph.h"
#include "src/storage/memory_model.h"

namespace msd {

enum class CpSplitMode {
  kContiguous = 0,  // rank i takes slice i of cp
  kZigZag,          // rank i takes slices i and 2cp-1-i of 2cp (causal balance)
};

struct DataConstructorConfig {
  int32_t constructor_id = 0;  // == DP group index it serves
  int32_t max_seq_len = 4096;
  CpSplitMode cp_split = CpSplitMode::kZigZag;
  MemoryAccountant::NodeId node = 0;
  // Steps kept resident for late fetchers before eviction.
  int64_t resident_steps = 2;
  // Transformation reordering (Sec. 6.2): decode images that loaders shipped
  // compressed (SourceLoaderConfig::defer_image_decode).
  bool decode_deferred_images = true;
  // Decode bound for deferred decode; must equal the loaders'
  // SourceLoaderConfig::max_decode_patches (0 = unbounded).
  int32_t max_decode_patches = 0;
};

// The batch view one rank fetches for one step. Token payloads inside the
// microbatches are views aliasing the constructor's frozen step buffers;
// fetching is metadata-cost only.
struct RankBatch {
  int32_t rank = -1;
  int64_t step = -1;
  bool metadata_only = false;  // PP stages > 0
  std::vector<Microbatch> microbatches;
  int64_t payload_bytes = 0;
};

class DataConstructor : public Actor {
 public:
  DataConstructor(DataConstructorConfig config, const ClientPlaceTree* tree,
                  MemoryAccountant* accountant);
  ~DataConstructor() override;

  // Assembles this constructor's share of `plan` from the given slices.
  // Slices must cover every sample the plan assigns to this constructor's
  // buckets; samples for other constructors' buckets are ignored.
  Status BuildStep(const LoadingPlan& plan, std::vector<SampleSlice> slices);

  // Serves the parallelism-transformed view for `rank` at `step`.
  Result<RankBatch> GetBatch(int32_t rank, int64_t step);

  // Buckets of `plan` this constructor is responsible for.
  std::vector<int32_t> OwnedBuckets(const LoadingPlan& plan) const;

  // Elastic resharding (Sec. 6.1): adopt a new topology; resident steps are
  // re-targeted to the new mesh on their next fetch.
  void Reshard(const ClientPlaceTree* tree);

  // Streaming retirement: drops `step`'s resident data. Called by the
  // prefetch pipeline once every rank has fetched its view of the step.
  void ReleaseStep(int64_t step);

  const DataConstructorConfig& config() const { return config_; }
  int64_t steps_built() const { return steps_built_.load(std::memory_order_relaxed); }
  int64_t batches_served() const { return batches_served_.load(std::memory_order_relaxed); }
  // Steps whose StepData is currently resident (tests assert eager release).
  std::vector<int64_t> ResidentSteps() const;

 private:
  using SampleMap = std::unordered_map<uint64_t, std::shared_ptr<const Sample>>;
  // Assignments of one owned bucket grouped per microbatch, in plan order.
  using BucketBins = std::vector<std::vector<const SliceAssignment*>>;

  // One cached parallelism-transformed view of a bucket: the microbatch list
  // as served to every rank at a given CP coordinate (or metadata-only).
  struct CachedView {
    std::vector<Microbatch> microbatches;
    int64_t payload_bytes = 0;
  };

  struct StepData {
    LoadingPlan plan;
    // microbatches[bucket_pos][mb] for OwnedBuckets order (canonical padded
    // sequences; every served view aliases these buffers).
    std::vector<int32_t> buckets;
    std::vector<std::vector<Microbatch>> microbatches;
    // Keyed by (bucket_pos, cp coordinate); cp == -1 is the metadata-only
    // variant for pp > 0 ranks. Shared so repeat fetches are refcount bumps.
    std::map<std::pair<size_t, int32_t>, std::shared_ptr<const CachedView>> views;
    MemCharge charge;
    // One extra charge per cached view that had to materialize disjoint CP
    // chunks (released with the step, like `charge`).
    std::vector<MemCharge> view_charges;
  };

  std::vector<int32_t> OwnedBucketsLocked(const LoadingPlan& plan) const;
  // `pack_len` is the step's effective pack length: the plan's multi-scale
  // pick (pack_max_seq_len) clamped to config max_seq_len, or the config
  // value when the plan carries none.
  Status AssembleBucket(const SampleMap& samples_by_id, const BucketBins& bins,
                        int32_t pack_len, std::vector<Microbatch>* out) const;
  RankBatch MakeRankView(StepData& data, int32_t rank) const;
  const CachedView& SliceViewFor(StepData& data, size_t bucket_pos, int32_t cp_coord) const;
  void EvictOldSteps(int64_t current_step);

  DataConstructorConfig config_;
  // Guards tree_ and steps_ for direct (non-actor) multi-threaded use.
  mutable std::mutex mu_;
  const ClientPlaceTree* tree_;
  MemoryAccountant* accountant_;
  std::map<int64_t, StepData> steps_;
  std::atomic<int64_t> steps_built_{0};
  std::atomic<int64_t> batches_served_{0};
};

// Splits a padded sequence's token range across cp ranks. Returns the token
// index ranges (pairs of [begin, end)) owned by `cp_rank`.
std::vector<std::pair<int32_t, int32_t>> CpSliceRanges(int32_t padded_len, int32_t cp,
                                                       int32_t cp_rank, CpSplitMode mode);

}  // namespace msd

#endif  // SRC_CONSTRUCTOR_DATA_CONSTRUCTOR_H_
