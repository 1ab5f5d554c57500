// The ROADMAP's kill -9 integration test, now real: a fork/exec child process
// streams batches with periodic auto-checkpointing, the parent SIGKILLs it
// mid-stream (no destructors, no flush — the real crash), and a fresh session
// resumes from the last published generation byte-identically to an
// uninterrupted run at the same step numbers (tokens, positions, AND pixels).
//
// Two gtest cases cooperate:
//   - Kill9Child.StreamUntilKilled is the child payload. It only runs when
//     MSD_KILL9_DIR is set (the parent execs this binary with
//     --gtest_filter=Kill9Child.* and that env var); in a normal ctest run it
//     skips.
//   - Kill9IntegrationTest.ResumesByteIdenticallyAfterSigkill is the driver.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/plan/mixture_schedule.h"
#include "tests/batch_identity.h"
#include "tests/scratch_dir.h"

extern char** environ;

namespace msd {
namespace {

namespace fs = std::filesystem;

// Shared job shape: small image corpus so pixel payloads are in the stream,
// plus a 3-phase mixture curriculum with multi-scale batching — the SIGKILL
// can land mid-phase, and the resume must pick the curriculum (and the
// per-step scale picks) back up byte-identically from the planner checkpoint.
Session::Options JobOptions() {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 1, .pp = 1, .cp = 2, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 8;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 128;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  MixtureSchedule::Options curriculum;
  curriculum.phases = {
      {.first_step = 0, .weights = {4.0, 1.0, 1.0, 1.0, 1.0}, .temperature = 1.0},
      {.first_step = 2, .weights = {1.0, 1.0, 1.0, 1.0, 1.0}, .temperature = 2.0},
      {.first_step = 5, .weights = {0.5, 0.5, 2.0, 2.0, 4.0}, .temperature = 0.5},
  };
  curriculum.scale_set = {512, 1024};
  options.mixture_schedule = std::make_shared<MixtureSchedule>(curriculum);
  return options;
}

using testing::ExpectBatchesIdentical;
using testing::StreamStep;

// ---- Child payload ---------------------------------------------------------

TEST(Kill9Child, StreamUntilKilled) {
  const char* dir = std::getenv("MSD_KILL9_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "child payload; only runs under the kill -9 driver";
  }
  Session::Options options = JobOptions();
  options.auto_checkpoint_dir = std::string(dir) + "/ckpt";
  options.auto_checkpoint_every = 2;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::string progress_path = std::string(dir) + "/progress";
  // Stream "forever"; the parent SIGKILLs us mid-loop. Progress is appended
  // and flushed after each fully consumed step so the driver knows when the
  // stream is comfortably past a published checkpoint.
  for (int64_t step = 0; step < 100000; ++step) {
    StreamStep(**session);
    std::ofstream progress(progress_path, std::ios::app);
    progress << step << "\n";
    progress.flush();
  }
}

// ---- Driver ----------------------------------------------------------------

TEST(Kill9IntegrationTest, ResumesByteIdenticallyAfterSigkill) {
  std::string dir = testing::ScratchDir("kill9");
  fs::create_directories(dir);
  std::string ckpt_dir = dir + "/ckpt";

  // Locate this test binary (Linux) and fork/exec the child payload.
  std::string self = fs::read_symlink("/proc/self/exe").string();
  std::string filter = "--gtest_filter=Kill9Child.StreamUntilKilled";
  std::string env_var = "MSD_KILL9_DIR=" + dir;
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: exec a fresh copy of this binary immediately (no gtest state,
    // no inherited actor threads — a brand-new process).
    std::vector<char*> argv = {self.data(), filter.data(), nullptr};
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      envp.push_back(*e);
    }
    envp.push_back(env_var.data());
    envp.push_back(nullptr);
    execve(self.c_str(), argv.data(), envp.data());
    _exit(127);  // exec failed
  }

  // Wait until the child has streamed well past a published checkpoint:
  // LATEST exists and at least 6 steps were fully consumed. The deadline is
  // generous: under sanitizers on a loaded single-core box the child's
  // session startup alone can take tens of seconds.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(300);
  int64_t steps_done = 0;
  bool ready = false;
  while (std::chrono::steady_clock::now() < deadline) {
    steps_done = 0;
    std::ifstream progress(dir + "/progress");
    std::string line;
    while (std::getline(progress, line)) {
      ++steps_done;
    }
    if (steps_done >= 6 && fs::exists(ckpt_dir + "/LATEST")) {
      ready = true;
      break;
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, WNOHANG), 0)
        << "child exited prematurely (status " << status << ")";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!ready) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    FAIL() << "child never reached a published checkpoint (steps=" << steps_done << ")";
  }

  // The kill: no shutdown path runs in the child.
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Resume in a fresh session from whatever generation survived, and compare
  // against an uninterrupted run at the same step numbers.
  Session::Options resumed_options = JobOptions();
  resumed_options.resume_dir = ckpt_dir;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  int64_t first_step = (*resumed)->client(0).value()->next_step();
  ASSERT_GE(first_step, 1) << "resume must continue mid-stream, not restart";
  ASSERT_LE(first_step, steps_done + 1)
      << "resume must not skip past the last step the child consumed";

  auto reference = Session::Create(JobOptions());
  ASSERT_TRUE(reference.ok());
  for (int64_t s = 0; s < first_step; ++s) {
    StreamStep(**reference);  // advance to the resume frontier
  }
  int64_t pixels_seen = 0;
  for (int s = 0; s < 3; ++s) {
    std::vector<RankBatch> got = StreamStep(**resumed);
    std::vector<RankBatch> want = StreamStep(**reference);
    ASSERT_EQ(got.size(), want.size());
    for (size_t rank = 0; rank < got.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
      for (const Microbatch& mb : got[rank].microbatches) {
        for (const PackedSequence& seq : mb.sequences) {
          pixels_seen += seq.PixelCount();
        }
      }
    }
  }
  EXPECT_GT(pixels_seen, 0) << "the multimodal stream must carry pixels across the kill";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace msd
