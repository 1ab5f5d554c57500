#include "stream.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "bench_math.h"
#include "src/constructor/reference_assembly.h"
#include "src/costmodel/model_config.h"

namespace layerbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename T>
bool SameView(const msd::PayloadView<T>& a, const msd::PayloadView<T>& b) {
  return a.size() == b.size() &&
         (a.size() == 0 || std::equal(a.data(), a.data() + a.size(), b.data()));
}

// Byte-for-byte equality of two served batches: metadata, packing, tokens,
// positions and every pixel segment.
bool BatchesEqual(const msd::RankBatch& a, const msd::RankBatch& b) {
  if (a.rank != b.rank || a.step != b.step || a.metadata_only != b.metadata_only ||
      a.payload_bytes != b.payload_bytes || a.microbatches.size() != b.microbatches.size()) {
    return false;
  }
  for (size_t m = 0; m < a.microbatches.size(); ++m) {
    const msd::Microbatch& am = a.microbatches[m];
    const msd::Microbatch& bm = b.microbatches[m];
    if (am.microbatch_index != bm.microbatch_index || am.sequences.size() != bm.sequences.size()) {
      return false;
    }
    for (size_t q = 0; q < am.sequences.size(); ++q) {
      const msd::PackedSequence& as = am.sequences[q];
      const msd::PackedSequence& bs = bm.sequences[q];
      if (as.sample_ids != bs.sample_ids || as.segment_lengths != bs.segment_lengths ||
          as.total_tokens != bs.total_tokens || as.padded_to != bs.padded_to ||
          !SameView(as.tokens, bs.tokens) || !SameView(as.position_ids, bs.position_ids) ||
          as.pixel_segments.size() != bs.pixel_segments.size()) {
        return false;
      }
      for (size_t p = 0; p < as.pixel_segments.size(); ++p) {
        if (!SameView(as.pixel_segments[p], bs.pixel_segments[p])) {
          return false;
        }
      }
    }
  }
  return true;
}

uint64_t StepDigest(const std::vector<msd::RankBatch>& batches) {
  Digest d;
  for (const msd::RankBatch& b : batches) {
    FoldBatch(d, b);
  }
  return d.value();
}

int64_t DirBytes(const std::filesystem::path& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

// Commit step encoded in a checkpoint id ("ckpt-<seq>-s<step>").
int64_t CommitStepOf(const std::string& id) {
  const size_t pos = id.rfind("-s");
  return pos == std::string::npos ? -1 : std::stoll(id.substr(pos + 2));
}

class PhaseRunner {
 public:
  PhaseRunner(const Workload& w, uint64_t seed, const StreamConfig& config,
              msd::DataService& service, Ledger& ledger)
      : w_(w),
        config_(config),
        service_(service),
        ledger_(ledger),
        options_(SessionOptionsFor(w, seed)),
        backbone_(msd::Llama12B()),
        world_(w.mesh.WorldSize()) {}

  StreamResult Run() {
    const double rss_base = RssMb();
    peak_rss_ = rss_base;
    // Timed episodes: at least two registrations, each capped at half the
    // budget, so every run also yields several set-up samples. Peak RSS is
    // taken over the first registration only: later ones start from heap
    // the allocator kept, which would make the peak depend on the count.
    for (int e = 0; !(result_.timed_s >= config_.seconds && e >= 2); ++e) {
      if (!TimedEpisode("job-" + std::to_string(e))) {
        break;
      }
      if (e == 0) {
        result_.peak_rss_mb = peak_rss_ - rss_base;
      }
    }
    if (ledger_.failed == 0) {
      CheckpointEpisode();
    }
    if (ledger_.failed == 0) {
      ReferenceReplay();
    }
    return std::move(result_);
  }

 private:
  // Registers a tenant and pulls the first batch on every rank. Returns the
  // session, or nullptr after recording the failure.
  msd::Session* Register(const std::string& name, const msd::Session::Options& options,
                         double* setup_s, std::vector<msd::RankBatch>* first) {
    const int64_t threads_before = ProcessThreads();
    const auto t0 = Clock::now();
    msd::DataService::TenantConfig tenant;
    tenant.session = options;
    msd::Status registered = service_.RegisterTenant(name, std::move(tenant));
    if (!ledger_.Check(registered.ok(), "register " + name + ": " + registered.ToString())) {
      return nullptr;
    }
    msd::Session* session = service_.session(name);
    if (!Pull(session, first, nullptr)) {
      return nullptr;
    }
    *setup_s = SecondsSince(t0);
    if (result_.tenant_threads == 0) {
      result_.tenant_threads = ProcessThreads() - threads_before;
    }
    return session;
  }

  // Pulls one step on every rank. `blocked_s` accumulates time inside NextBatch.
  // With `step_stats`, also records the step's producer time (trace runs).
  bool Pull(msd::Session* session, std::vector<msd::RankBatch>* batches, double* blocked_s,
            bool step_stats = false) {
    batches->assign(static_cast<size_t>(world_), msd::RankBatch());
    for (int32_t rank = 0; rank < world_; ++rank) {
      if (step_stats && rank == world_ - 1 && world_ > 1) {
        // Rank 0 holds the step, so it is produced: this does not block.
        msd::Result<msd::Session::StepStats> stats = session->StepStatsFor((*batches)[0].step);
        if (stats.ok()) {
          result_.produce_ms.push_back(stats->build_ahead_ms);
        }
      }
      const auto t0 = Clock::now();
      msd::Result<msd::RankBatch> batch = session->client(rank).value()->NextBatch();
      if (blocked_s != nullptr) {
        *blocked_s += SecondsSince(t0);
      }
      if (!ledger_.Check(batch.ok(), "NextBatch rank " + std::to_string(rank) + ": " +
                                         batch.status().ToString())) {
        return false;
      }
      (*batches)[static_cast<size_t>(rank)] = std::move(batch.value());
    }
    return true;
  }

  // Records the step's digest the first time any phase streams it, and
  // checks every later delivery of the same step against it.
  void CheckDigest(const std::vector<msd::RankBatch>& batches, const char* phase) {
    const int64_t step = batches.front().step;
    const uint64_t digest = StepDigest(batches);
    auto [it, inserted] = digests_.emplace(step, digest);
    if (!inserted) {
      ledger_.Check(it->second == digest,
                    std::string(phase) + " step " + std::to_string(step) + " digest differs");
    }
  }

  void CollectTenantStats(msd::Session* session) {
    const msd::PrefetchPipeline::Stats pipeline = session->pipeline_stats();
    result_.prefetch_hits += pipeline.prefetch_hits;
    result_.prefetch_stalls += pipeline.prefetch_stalls;
    const msd::Session::IoStats io = session->io_stats();
    result_.io_issued_gets += io.scheduler_tenant.issued_gets;
    result_.io_prefetch_issues += io.scheduler_tenant.prefetch_issues;
    result_.io_coalesced += io.scheduler_tenant.coalesced;
    result_.cache_lookups += io.cache_tenant.lookups;
    result_.cache_hits += io.cache_tenant.hits;
  }

  // The freed heap stays with the process, as in a long-lived service, so
  // later registrations do not pay for faulting it in again.
  void Remove(const std::string& name) {
    msd::Status removed = service_.RemoveTenant(name);
    ledger_.Check(removed.ok(), "remove " + name + ": " + removed.ToString());
  }

  bool TimedEpisode(const std::string& name) {
    double setup_s = 0;
    std::vector<msd::RankBatch> batches;
    msd::Session* session = Register(name, options_, &setup_s, &batches);
    if (session == nullptr) {
      return false;
    }
    result_.setup_s.push_back(setup_s);
    CheckDigest(batches, "timed");
    result_.step_ids.emplace(0, MeasureStep(batches, backbone_).sample_ids);
    ++result_.steps_streamed;

    const auto episode_t0 = Clock::now();
    const double cap_s = config_.seconds / 2;
    Window window;
    bool ok = true;
    for (int64_t step = 1; step < w_.episode_steps; ++step) {
      const double elapsed = SecondsSince(episode_t0);
      if (result_.timed_s + elapsed >= config_.seconds || elapsed >= cap_s) {
        break;
      }
      const auto step_t0 = Clock::now();
      double blocked_s = 0;
      if (!Pull(session, &batches, &blocked_s, config_.trace)) {
        ok = false;
        break;
      }
      const auto pulled = Clock::now();
      const StepLoad load = MeasureStep(batches, backbone_);
      const double compute_s = ComputeSeconds(load.max_group_flops, w_.device_flops_per_s);
      // Bookkeeping runs inside the simulated compute window, as host work
      // overlapping the accelerator would.
      CheckDigest(batches, "timed");
      result_.step_ids.emplace(step, load.sample_ids);
      if (result_.setup_s.size() == 1) {
        peak_rss_ = std::max(peak_rss_, RssMb());
      }
      std::this_thread::sleep_until(pulled + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(compute_s)));
      const double step_s = SecondsSince(step_t0);
      result_.step_ms.push_back(step_s * 1e3);      result_.wait_ms.push_back(blocked_s * 1e3);
      result_.blocked_s += blocked_s;
      result_.tokens += load.tokens;
      ++result_.steps_streamed;
      double ckpt_s = 0;
      if (w_.timed_checkpoint_every > 0 && (step + 1) % w_.timed_checkpoint_every == 0) {
        const auto t0 = Clock::now();
        msd::CheckpointWriter::Options keep;
        keep.keep_generations = 1;
        msd::Result<std::string> id = session->Checkpoint(config_.work_dir + "/timed", keep);
        ledger_.Check(id.ok(), "timed checkpoint: " + id.status().ToString());
        ckpt_s = SecondsSince(t0);
      }
      window.Add(load.tokens, step_s + ckpt_s, blocked_s);
      if (window.steps == kWindowSteps) {
        CloseWindow(&window);
      }
    }
    // A short tail joins the episode's last full window instead of
    // becoming a noisy window of its own.
    if (window.steps >= kWindowSteps / 2 || windows_this_episode_ == 0) {
      CloseWindow(&window);
    } else if (window.steps > 0) {
      result_.window_tokens_per_s.pop_back();
      result_.window_stall_frac.pop_back();
      last_window_.Merge(window);
      CloseWindow(&last_window_);
    }
    windows_this_episode_ = 0;
    result_.timed_s += SecondsSince(episode_t0);
    CollectTenantStats(session);
    Remove(name);
    return ok;
  }

  // Consecutive timed steps whose throughput and stall share are reported
  // as one sample; the run reports the median window, so a host hiccup
  // moves one window rather than the whole run's mean.
  static constexpr int64_t kWindowSteps = 16;
  struct Window {
    int64_t steps = 0;
    int64_t tokens = 0;
    double wall_s = 0;
    double blocked_s = 0;
    void Add(int64_t t, double wall, double blocked) {
      ++steps;
      tokens += t;
      wall_s += wall;
      blocked_s += blocked;
    }
    void Merge(const Window& o) {
      steps += o.steps;
      tokens += o.tokens;
      wall_s += o.wall_s;
      blocked_s += o.blocked_s;
    }
  };

  void CloseWindow(Window* window) {
    if (window->steps == 0 || window->wall_s <= 0) {
      return;
    }
    result_.window_tokens_per_s.push_back(static_cast<double>(window->tokens) / window->wall_s);
    result_.window_stall_frac.push_back(window->blocked_s / window->wall_s);
    last_window_ = *window;
    ++windows_this_episode_;
    *window = Window();
  }

  // Blocks until the producer has filled the prefetch window (it then waits
  // on backpressure), as it is when training compute hides the loader. A
  // checkpoint taken then pays for itself, not for an in-flight step.
  void WaitForFullPipeline(msd::Session* session) {
    const auto t0 = Clock::now();
    while (session->pipeline_stats().queue_depth < static_cast<size_t>(options_.prefetch_depth) &&
           SecondsSince(t0) < 5) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  // Checkpoints at fixed steps (so checkpoint size and resume cost compare
  // across runs), keeps streaming past the last one, then removes the tenant
  // and resumes it: the resumed steps must match the uninterrupted ones.
  void CheckpointEpisode() {
    double setup_s = 0;
    std::vector<msd::RankBatch> batches;
    msd::Session* session = Register("ckpt", options_, &setup_s, &batches);
    if (session == nullptr) {
      return;
    }
    result_.setup_s.push_back(setup_s);
    CheckDigest(batches, "checkpoint");
    const std::string dir = config_.work_dir + "/ckpt";
    const int64_t every = w_.episode_checkpoint_every;
    const int64_t checkpoints = 11;
    const int64_t last_step = checkpoints * every + 2;
    std::string last_id;
    for (int64_t step = 0; step <= last_step; ++step) {
      if (step > 0) {
        if (!Pull(session, &batches, nullptr)) {
          return;
        }
        CheckDigest(batches, "checkpoint");
      }
      if ((step + 1) % every == 0 && step < checkpoints * every) {
        WaitForFullPipeline(session);
        const auto t0 = Clock::now();
        msd::Result<std::string> id = session->Checkpoint(dir);
        result_.ckpt_ms.push_back(SecondsSince(t0) * 1e3);
        if (!ledger_.Check(id.ok(), "checkpoint: " + id.status().ToString())) {
          return;
        }
        last_id = id.value();
      }
    }
    Remove("ckpt");
    result_.ckpt_bytes = DirBytes(std::filesystem::path(dir) / last_id);
    const int64_t commit = CommitStepOf(last_id);

    msd::Session::Options resumed = options_;
    resumed.resume_dir = dir;
    // Each resume re-registers from the same checkpoint; resume_s is their median.
    constexpr int kResumes = 5;
    for (int r = 0; r < kResumes; ++r) {
      const std::string name = "resume-" + std::to_string(r);
      double resume_s = 0;
      session = Register(name, resumed, &resume_s, &batches);
      if (session == nullptr) {
        return;
      }
      result_.resume_s.push_back(resume_s);
      ledger_.Check(batches.front().step == commit,
                    "resumed at step " + std::to_string(batches.front().step) +
                        ", checkpoint committed " + std::to_string(commit));
      CheckDigest(batches, "resumed");
      for (int64_t step = commit + 1; step <= last_step; ++step) {
        if (!Pull(session, &batches, nullptr)) {
          return;
        }
        CheckDigest(batches, "resumed");
      }
      Remove(name);
    }
  }

  // Depth-0 lockstep replay of the first steps: each must match the timed
  // stream's digest, and sampled steps are rebuilt through the scalar
  // ReferenceDataPlane from Session::CaptureStep and compared byte for byte.
  void ReferenceReplay() {
    msd::Session::Options lockstep = options_;
    lockstep.prefetch_depth = 0;
    const int64_t replay_steps = std::min<int64_t>(6, w_.episode_steps);
    msd::DataService::TenantConfig tenant;
    tenant.session = lockstep;
    msd::Status registered = service_.RegisterTenant("replay", std::move(tenant));
    if (!ledger_.Check(registered.ok(), "register replay: " + registered.ToString())) {
      return;
    }
    msd::Session* session = service_.session("replay");
    const msd::ClientPlaceTree tree =
        msd::ClientPlaceTree::FromDeviceMesh(options_.spec, options_.num_microbatches);
    std::vector<msd::RankBatch> batches;
    for (int64_t step = 0; step < replay_steps; ++step) {
      const bool sampled = step == 0 || step == replay_steps - 1;
      std::optional<msd::PrefetchPipeline::Capture> capture;
      if (sampled) {
        msd::Result<msd::PrefetchPipeline::Capture> captured = session->CaptureStep(step);
        if (!ledger_.Check(captured.ok(), "capture: " + captured.status().ToString())) {
          break;
        }
        capture = std::move(captured.value());
      }
      if (!Pull(session, &batches, nullptr)) {
        break;
      }
      CheckDigest(batches, "depth-0 replay");
      if (capture.has_value()) {
        CompareWithReference(*capture, tree, batches);
      }
    }
    Remove("replay");
  }

  void CompareWithReference(const msd::PrefetchPipeline::Capture& capture,
                            const msd::ClientPlaceTree& tree,
                            const std::vector<msd::RankBatch>& batches) {
    for (int32_t dp = 0; dp < options_.spec.dp; ++dp) {
      msd::DataConstructorConfig config;
      config.constructor_id = dp;
      config.max_seq_len = options_.max_seq_len;
      msd::ReferenceDataPlane reference(config, &tree);
      msd::Status built =
          reference.BuildStep(capture.plan, capture.slices_per_constructor[static_cast<size_t>(dp)]);
      if (!ledger_.Check(built.ok(), "reference build: " + built.ToString())) {
        continue;
      }
      for (int32_t rank = 0; rank < world_; ++rank) {
        if (msd::CoordOfRank(options_.spec, rank).dp != dp) {
          continue;
        }
        msd::Result<msd::RankBatch> want = reference.GetBatch(rank, capture.plan.step);
        ledger_.Check(want.ok() && BatchesEqual(batches[static_cast<size_t>(rank)], want.value()),
                      "step " + std::to_string(capture.plan.step) + " rank " +
                          std::to_string(rank) + " differs from the reference plane");
      }
    }
  }

  const Workload& w_;
  const StreamConfig& config_;
  msd::DataService& service_;
  Ledger& ledger_;
  const msd::Session::Options options_;
  const msd::ModelConfig backbone_;
  const int32_t world_;
  StreamResult result_;
  // Digest of every step's first delivery, keyed by step.
  std::map<int64_t, uint64_t> digests_;
  double peak_rss_ = 0;
  Window last_window_;
  int64_t windows_this_episode_ = 0;
};

}  // namespace

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long long size = 0;
  long long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

int64_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoll(line.substr(8));
    }
  }
  return 0;
}

StreamResult RunStreamPhase(const Workload& workload, uint64_t seed, const StreamConfig& config,
                            msd::DataService& service, Ledger& ledger) {
  return PhaseRunner(workload, seed, config, service, ledger).Run();
}

}  // namespace layerbench
