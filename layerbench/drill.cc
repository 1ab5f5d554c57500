#include "drill.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <unordered_map>

#include "bench_math.h"
#include "src/actor/actor_system.h"
#include "src/common/stats.h"
#include "src/constructor/data_constructor.h"
#include "src/costmodel/model_config.h"
#include "src/data/synthetic.h"
#include "src/data/transform.h"
#include "src/io/block_cache.h"
#include "src/io/io_scheduler.h"
#include "src/io/latency_store.h"
#include "src/loader/source_loader.h"
#include "src/planner/autoscaler.h"
#include "src/planner/planner.h"
#include "src/planner/strategies.h"
#include "timed_store.h"

namespace layerbench {
namespace {

// Runs `fn` on `actor` through the actor system. The outer span is the Ask
// round trip (actor layer); the inner span, recorded on the actor's thread,
// is the call itself, so the actor layer's self time is mailbox overhead.
template <typename R>
R TimedAsk(msd::ActorSystem& system, msd::Actor& actor, SpanRing* ring, uint64_t parent,
           int64_t step, const char* name, const char* layer, double* call_ms,
           std::function<R()> fn) {
  ScopedSpan ask(ring, "actor.ask", "actor", parent, step);
  const uint64_t ask_id = ask.id();
  return system.Ask<R>(actor, [ring, ask_id, step, name, layer, call_ms, fn = std::move(fn)] {
    ScopedSpan span(ring, name, layer, ask_id, step);
    const int64_t t0 = NowNs();
    R r = fn();
    *call_ms = (NowNs() - t0) / 1e6;
    return r;
  });
}

double MsSince(int64_t t0_ns) { return (NowNs() - t0_ns) / 1e6; }

// One drill pass over a freshly built stack, with spans recorded or not.
DrillResult RunPass(const Workload& workload, uint64_t seed, msd::DataService& service,
                    const std::map<int64_t, std::vector<uint64_t>>& session_ids,
                    int64_t max_steps, double budget_s, bool spans_on,
                    const std::string& trace_path, Ledger& ledger) {
  DrillResult out;
  SpanRing ring(1 << 18);
  ring.set_enabled(spans_on);
  const msd::Session::Options options = SessionOptionsFor(workload, seed);
  const msd::CorpusSpec corpus = MaterializedCorpus(options);
  const msd::ModelConfig backbone = msd::Llama12B();
  const msd::SharedIoPlaneConfig& plane = service.plane()->config();

  // io stack. The plane's base store is reachable only through its latency
  // decorator, so the timing decorator sits above it and the drill's own
  // LatencyInjectingStore adds no latency: it is the Get counter, as on the
  // plane. Storage timings therefore include the workload's Get latency.
  TimedStore timed(service.plane()->remote_store(), &ring);
  msd::RemoteStorageParams no_latency;
  no_latency.get_latency = 0;
  no_latency.bandwidth_bytes_per_sec = 0;
  msd::LatencyInjectingStore store(&timed, no_latency);
  msd::BlockCache::Config cache_config;
  cache_config.capacity_bytes = plane.cache_bytes;
  cache_config.shards = plane.cache_shards;
  msd::BlockCache cache(cache_config);
  msd::IoScheduler::Config io_config;
  io_config.threads = static_cast<size_t>(std::clamp(plane.max_inflight, 4, 32));
  io_config.max_inflight = plane.max_inflight;
  msd::IoScheduler io(&store, &cache, io_config);
  msd::MemoryAccountant memory;
  const msd::ClientPlaceTree tree =
      msd::ClientPlaceTree::FromDeviceMesh(options.spec, options.num_microbatches);
  // Declared after everything its actors point at, so it is destroyed first.
  msd::ActorSystem system;

  // Source partitioning exactly as Session::Initialize derives it.
  std::vector<msd::SourceCostProfile> profiles;
  msd::Rng profile_rng(options.seed ^ 0x51);
  for (const msd::SourceSpec& src : corpus.sources) {
    msd::SourceCostProfile profile;
    profile.source_id = src.source_id;
    msd::RunningStat stat;
    for (int i = 0; i < 16; ++i) {
      msd::SampleMeta meta = src.DrawMeta(profile_rng, 0);
      stat.Add(static_cast<double>(
          msd::SampleTransformLatency(meta, src.transform_cost_multiplier)));
    }
    profile.transform_cost = stat.mean();
    profile.memory_bytes = src.num_files * (msd::kSocketBufferBytes + 64 * msd::kKiB +
                                            src.rows_per_file * 8 * msd::kKiB);
    profiles.push_back(profile);
  }
  msd::ClusterResources resources;
  resources.total_workers = std::max<int64_t>(
      16, static_cast<int64_t>(corpus.sources.size()) * options.loader_workers);
  msd::PartitionBounds bounds;
  bounds.wactor = options.loader_workers;
  const std::vector<msd::LoaderPartition> partitions =
      msd::AutoPartitionSources(profiles, resources, bounds);

  std::vector<std::shared_ptr<msd::SourceLoader>> loaders;
  int32_t next_loader_id = 0;
  for (const msd::LoaderPartition& part : partitions) {
    const msd::SourceSpec& src = *std::find_if(
        corpus.sources.begin(), corpus.sources.end(),
        [&](const msd::SourceSpec& s) { return s.source_id == part.source_id; });
    const int32_t actors =
        std::max(std::min<int32_t>(part.num_actors, static_cast<int32_t>(src.num_files)), 1);
    for (int32_t a = 0; a < actors; ++a) {
      msd::SourceLoaderConfig config;
      config.loader_id = next_loader_id++;
      config.spec = src;
      for (int64_t f = a; f < src.num_files; f += actors) {
        config.files.push_back(msd::SourceFileName(src, f));
      }
      config.num_workers = std::max(1, part.workers_per_actor);
      config.read_ahead_groups = options.read_ahead_groups;
      config.ranged_reads = true;
      config.buffer_low_watermark =
          static_cast<size_t>(options.samples_per_step) * 2 / static_cast<size_t>(actors) + 8;
      auto loader = system.Spawn<msd::SourceLoader>(config, &store, &memory, &io);
      double open_ms = 0;
      msd::Status open = TimedAsk<msd::Status>(system, *loader, &ring, 0, -1, "loader.open",
                                               "loader", &open_ms,
                                               [l = loader.get()] { return l->Open(); });
      if (!ledger.Check(open.ok(), "drill loader open: " + open.ToString())) {
        system.Shutdown();
        return out;
      }
      out.open_ms.push_back(open_ms);
      loaders.push_back(std::move(loader));
    }
  }

  std::vector<std::shared_ptr<msd::DataConstructor>> constructors;
  for (int32_t dp = 0; dp < options.spec.dp; ++dp) {
    msd::DataConstructorConfig config;
    config.constructor_id = dp;
    config.max_seq_len = options.max_seq_len;
    config.resident_steps = std::max<int64_t>(config.resident_steps, options.prefetch_depth + 2);
    constructors.push_back(system.Spawn<msd::DataConstructor>(config, &tree, &memory));
  }

  msd::StrategyOptions strategy_options;
  strategy_options.samples_per_step = options.samples_per_step;
  strategy_options.schedule = std::make_shared<msd::StaticMix>(options.corpus.UniformWeights());
  strategy_options.method = options.balance_method;
  msd::PlannerConfig planner_config;
  planner_config.seed = options.seed;
  auto planner = system.Spawn<msd::Planner>(
      planner_config, &system, &tree,
      msd::MakeLlmBalanceStrategy(strategy_options, msd::BackboneCostFn(backbone)), &memory);
  std::vector<msd::SourceLoader*> raw_loaders;
  std::unordered_map<int32_t, msd::SourceLoader*> loader_by_id;
  for (auto& l : loaders) {
    raw_loaders.push_back(l.get());
    loader_by_id.emplace(l->config().loader_id, l.get());
  }
  system.Ask<bool>(*planner, [p = planner.get(), raw_loaders] {
    p->SetLoaders(raw_loaders);
    return true;
  });

  std::vector<msd::LoaderSnapshot> last_snapshots;
  const int64_t bytes_before_steps = timed.bytes();
  const int64_t drill_t0 = NowNs();
  for (int64_t step = 0; step < max_steps; ++step) {
    if (step > 0 && MsSince(drill_t0) / 1e3 >= budget_s) {
      break;
    }
    const int64_t step_t0 = NowNs();
    ScopedSpan step_span(&ring, "drill.step", "drill", 0, step);
    const uint64_t root = step_span.id();

    // 1. Plan, then read the planner's own phase timings.
    double ms = 0;
    msd::Result<msd::LoadingPlan> plan_result = TimedAsk<msd::Result<msd::LoadingPlan>>(
        system, *planner, &ring, root, step, "planner.plan", "planner", &ms,
        [p = planner.get(), step] { return p->GetPlan(step); });
    if (!ledger.Check(plan_result.ok(), "drill plan: " + plan_result.status().ToString())) {
      break;
    }
    const msd::LoadingPlan plan = std::move(plan_result.value());
    out.plan_ms.push_back(ms);
    const msd::Planner::PhaseTimings timings = system.Ask<msd::Planner::PhaseTimings>(
        *planner, [p = planner.get()] { return p->last_timings(); });
    out.planner_gather_ms.push_back(timings.gather_ms);
    out.planner_compute_ms.push_back(timings.compute_ms);
    out.dp_imbalance.push_back(msd::Imbalance(plan.BucketLoads()));

    // 2. One pop per loader, ids in plan order, split per constructor.
    std::unordered_map<int32_t, size_t> ci_of_bucket;
    for (size_t ci = 0; ci < constructors.size(); ++ci) {
      for (int32_t bucket : constructors[ci]->OwnedBuckets(plan)) {
        ci_of_bucket.emplace(bucket, ci);
      }
    }
    std::map<int32_t, std::vector<uint64_t>> ids_by_loader;
    std::unordered_map<uint64_t, size_t> ci_of_sample;
    for (const msd::SliceAssignment& a : plan.assignments) {
      auto owner = ci_of_bucket.find(a.bucket);
      if (owner != ci_of_bucket.end()) {
        ids_by_loader[a.loader_id].push_back(a.sample_id);
        ci_of_sample.emplace(a.sample_id, owner->second);
      }
    }
    std::vector<std::vector<msd::SampleSlice>> slices(constructors.size());
    double pop_ms = 0;
    bool ok = true;
    for (auto& [loader_id, ids] : ids_by_loader) {
      msd::SourceLoader* loader = loader_by_id.at(loader_id);
      msd::Result<msd::SampleSlice> slice = TimedAsk<msd::Result<msd::SampleSlice>>(
          system, *loader, &ring, root, step, "loader.pop", "loader", &ms,
          [loader, step, ids] { return loader->PopSamples(step, ids); });
      pop_ms += ms;
      if (!ledger.Check(slice.ok(), "drill pop: " + slice.status().ToString())) {
        ok = false;
        break;
      }
      out.samples_popped += static_cast<int64_t>(slice->samples.size());
      std::vector<msd::SampleSlice> split(constructors.size());
      for (msd::SampleSlice& s : split) {
        s.step = slice->step;
        s.loader_id = slice->loader_id;
        s.end_of_stream = slice->end_of_stream;
      }
      for (std::shared_ptr<msd::Sample>& sample : slice->samples) {
        auto owner = ci_of_sample.find(sample->meta.sample_id);
        if (owner != ci_of_sample.end()) {
          split[owner->second].samples.push_back(std::move(sample));
        }
      }
      for (size_t ci = 0; ci < split.size(); ++ci) {
        if (!split[ci].samples.empty()) {
          slices[ci].push_back(std::move(split[ci]));
        }
      }
    }
    if (!ok) {
      break;
    }
    out.pop_ms.push_back(pop_ms);

    // 3. Build every constructor's share.
    double build_ms = 0;
    for (size_t ci = 0; ci < constructors.size(); ++ci) {
      msd::DataConstructor* dc = constructors[ci].get();
      msd::Status built = TimedAsk<msd::Status>(
          system, *dc, &ring, root, step, "constructor.build", "constructor", &ms,
          [dc, &plan, s = slices[ci]]() mutable { return dc->BuildStep(plan, std::move(s)); });
      build_ms += ms;
      ok = ledger.Check(built.ok(), "drill build: " + built.ToString()) && ok;
    }
    out.build_ms.push_back(build_ms);

    // 4. Every rank's view.
    std::vector<msd::RankBatch> batches;
    double fetch_ms = 0;
    for (int32_t rank = 0; rank < options.spec.WorldSize(); ++rank) {
      msd::DataConstructor* dc =
          constructors[static_cast<size_t>(msd::CoordOfRank(options.spec, rank).dp)].get();
      msd::Result<msd::RankBatch> batch = TimedAsk<msd::Result<msd::RankBatch>>(
          system, *dc, &ring, root, step, "constructor.fetch", "constructor", &ms,
          [dc, rank, step] { return dc->GetBatch(rank, step); });
      fetch_ms += ms;
      if (ledger.Check(batch.ok(), "drill fetch: " + batch.status().ToString())) {
        batches.push_back(std::move(batch.value()));
      } else {
        ok = false;
      }
    }
    out.fetch_ms.push_back(fetch_ms);
    if (!ok) {
      break;
    }
    for (auto& dc : constructors) {
      system.Post(*dc, [c = dc.get(), step] { c->ReleaseStep(step); });
    }

    // 5. The per-step checkpoint journal.
    {
      const int64_t t0 = NowNs();
      ScopedSpan journal(&ring, "checkpoint.journal", "checkpoint", root, step);
      TimedAsk<msd::PlannerCheckpoint>(system, *planner, &ring, journal.id(), step,
                                       "planner.checkpoint_state", "checkpoint", &ms,
                                       [p = planner.get()] { return p->CheckpointState(); });
      last_snapshots.clear();
      int64_t snapshot_bytes = 0;
      for (auto& loader : loaders) {
        msd::LoaderSnapshot snap = TimedAsk<msd::LoaderSnapshot>(
            system, *loader, &ring, journal.id(), step, "loader.snapshot", "checkpoint", &ms,
            [l = loader.get()] { return l->Snapshot(); });
        snapshot_bytes += static_cast<int64_t>(snap.Serialize().size());
        last_snapshots.push_back(std::move(snap));
      }
      out.snapshot_bytes = snapshot_bytes;
      out.journal_ms.push_back(MsSince(t0));
    }

    // Off the step's critical path: the metadata gather the planner issues,
    // timed loader by loader, and one empty Ask.
    double gather_ms = 0;
    for (auto& loader : loaders) {
      TimedAsk<msd::BufferInfo>(system, *loader, &ring, root, step, "loader.gather", "loader",
                                &ms, [l = loader.get()] { return l->GatherBuffer(); });
      gather_ms += ms;
    }
    out.gather_ms.push_back(gather_ms);
    {
      ScopedSpan empty(&ring, "actor.empty_ask", "actor", root, step);
      const int64_t t0 = NowNs();
      system.Ask<bool>(*planner, [] { return true; });
      out.ask_us.push_back((NowNs() - t0) / 1e3);
    }

    // The drill must do the session's work: same samples at every step.
    const StepLoad load = MeasureStep(batches, backbone);
    out.tokens += load.tokens;
    out.padding += load.padding;
    auto want = session_ids.find(step);
    if (want != session_ids.end()) {
      ledger.Check(want->second == load.sample_ids,
                   "drill step " + std::to_string(step) + " sample ids differ from the session's");
    }
    out.step_ms.push_back(MsSince(step_t0));
    ++out.steps;
  }
  out.storage_get_ms = timed.read_ms();
  out.storage_bytes_steps = timed.bytes() - bytes_before_steps;

  // Restore every loader to its last journaled snapshot (the resume path);
  // the spans-off pass only supplies paired step times, so it skips this.
  for (size_t i = 0; spans_on && i < last_snapshots.size() && i < loaders.size(); ++i) {
    double ms = 0;
    msd::Status restored = TimedAsk<msd::Status>(
        system, *loaders[i], &ring, 0, -1, "loader.restore", "checkpoint", &ms,
        [l = loaders[i].get(), snap = last_snapshots[i]] { return l->Restore(snap); });
    ledger.Check(restored.ok(), "drill restore: " + restored.ToString());
    out.restore_ms += ms;
  }
  system.Shutdown();

  const std::vector<Span> spans = ring.Snapshot();
  out.self_times = ComputeSelfTimes(spans);
  std::vector<Span> step_spans;
  std::copy_if(spans.begin(), spans.end(), std::back_inserter(step_spans),
               [](const Span& s) { return s.step >= 0; });
  out.step_self_times = ComputeSelfTimes(step_spans);
  if (spans_on && WriteChromeTrace(spans, trace_path)) {
    out.trace_path = trace_path;
  }
  return out;
}

}  // namespace

DrillResult RunDrill(const Workload& workload, uint64_t seed, msd::DataService& service,
                     const std::map<int64_t, std::vector<uint64_t>>& session_ids,
                     int64_t max_steps, double budget_s, const std::string& trace_path,
                     Ledger& ledger) {
  // Both passes replay the same steps, so their step times pair one to one.
  const DrillResult off = RunPass(workload, seed, service, session_ids, max_steps, budget_s / 2,
                                  /*spans_on=*/false, trace_path, ledger);
  DrillResult on = RunPass(workload, seed, service, session_ids, off.steps, budget_s,
                           /*spans_on=*/true, trace_path, ledger);
  const size_t n = std::min(on.step_ms.size(), off.step_ms.size());
  double on_ms = 0;
  double off_ms = 0;
  for (size_t i = 0; i < n; ++i) {
    on_ms += on.step_ms[i];
    off_ms += off.step_ms[i];
  }
  on.trace_overhead = off_ms > 0 ? (on_ms - off_ms) / off_ms : 0;
  return on;
}

}  // namespace layerbench
