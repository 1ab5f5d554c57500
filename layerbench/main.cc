// layerbench: end-to-end and per-layer benchmark of the streaming data plane.
//
//   layerbench --workload <vlm_decode|text_fanin|remote_ckpt> --seed <n>
//              --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 adds the layer drill and reports the
// per-layer metrics. See README.md for every definition.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "drill.h"
#include "src/service/data_service.h"
#include "stream.h"
#include "workload.h"

namespace layerbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 3;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void AddQuantile(std::vector<Metric>* out, const std::string& name, const Quantile& q,
                 const std::string& unit) {
  out->push_back({name, q.value, unit,
                  "p" + std::to_string(q.percentile) + " of " + std::to_string(q.samples)});
}

std::vector<Metric> EndToEndMetrics(const StreamResult& r) {
  std::vector<Metric> m;
  const Quantile tokens = Percentile(r.window_tokens_per_s, 50);
  m.push_back({"tokens_per_s", tokens.value, "tok/s",
               "median of " + std::to_string(tokens.samples) + " windows (q1 " +
                   Fmt(Percentile(r.window_tokens_per_s, 25).value) + ", q3 " +
                   Fmt(Percentile(r.window_tokens_per_s, 75).value) + "); run mean " +
                   Fmt(Ratio(static_cast<double>(r.tokens), r.timed_s)) + " over " +
                   std::to_string(r.step_ms.size()) + " steps"});
  AddQuantile(&m, "step_ms_p50", Percentile(r.step_ms, 50), "ms");
  const Quantile tail = WindowedP99(r.step_ms);
  const Quantile pooled = TailPercentile(r.step_ms);
  m.push_back({"step_ms_p99", tail.value, "ms",
               "median of " + std::to_string(tail.samples) + " maxima of " +
                   std::to_string(kP99WindowSamples) + "-step windows; pooled p" +
                   std::to_string(pooled.percentile) + " of " + std::to_string(pooled.samples) +
                   " " + Fmt(pooled.value)});
  const Quantile stall = Percentile(r.window_stall_frac, 50);
  m.push_back({"stall_frac", stall.value, "ratio",
               "median window; run mean " + Fmt(Ratio(r.blocked_s, r.timed_s))});
  AddQuantile(&m, "setup_s", Percentile(r.setup_s, 50), "s");
  m.push_back({"peak_rss_mb", r.peak_rss_mb, "MB", "over RSS after materialization"});
  m.push_back({"ckpt_bytes", static_cast<double>(r.ckpt_bytes), "B", "last generation"});
  AddQuantile(&m, "resume_s", Percentile(r.resume_s, 50), "s");
  return m;
}

std::vector<Metric> PerLayerMetrics(const StreamResult& r, const DrillResult& d) {
  std::vector<Metric> m;
  AddQuantile(&m, "api.wait_ms_p50", Percentile(r.wait_ms, 50), "ms");
  AddQuantile(&m, "api.wait_ms_p99", TailPercentile(r.wait_ms, 99), "ms");
  m.push_back({"api.hit_ratio",
               Ratio(static_cast<double>(r.prefetch_hits),
                     static_cast<double>(r.prefetch_hits + r.prefetch_stalls)),
               "ratio", "prefetch hits per pull"});
  AddQuantile(&m, "api.produce_ms_p50", Percentile(r.produce_ms, 50), "ms");
  AddQuantile(&m, "loader.pop_ms_p50", Percentile(d.pop_ms, 50), "ms");
  AddQuantile(&m, "loader.pop_ms_p99", TailPercentile(d.pop_ms, 99), "ms");
  AddQuantile(&m, "loader.gather_ms_p50", Percentile(d.gather_ms, 50), "ms");
  AddQuantile(&m, "loader.open_ms_p50", Percentile(d.open_ms, 50), "ms");
  const double pop_s = std::accumulate(d.pop_ms.begin(), d.pop_ms.end(), 0.0) / 1e3;
  m.push_back({"loader.samples_per_s", Ratio(static_cast<double>(d.samples_popped), pop_s), "1/s",
               "samples popped per second of PopSamples"});
  AddQuantile(&m, "planner.plan_ms_p50", Percentile(d.plan_ms, 50), "ms");
  AddQuantile(&m, "planner.plan_ms_p99", TailPercentile(d.plan_ms, 99), "ms");
  AddQuantile(&m, "planner.gather_ms_p50", Percentile(d.planner_gather_ms, 50), "ms");
  AddQuantile(&m, "planner.compute_ms_p50", Percentile(d.planner_compute_ms, 50), "ms");
  m.push_back({"planner.dp_imbalance", Mean(d.dp_imbalance), "ratio", "max/mean bucket load"});
  AddQuantile(&m, "constructor.build_ms_p50", Percentile(d.build_ms, 50), "ms");
  AddQuantile(&m, "constructor.fetch_ms_p50", Percentile(d.fetch_ms, 50), "ms");
  m.push_back({"constructor.pad_frac",
               Ratio(static_cast<double>(d.padding), static_cast<double>(d.tokens + d.padding)),
               "ratio", "padding share of packed tokens"});
  const double steps = static_cast<double>(r.steps_streamed);
  m.push_back({"io.gets_per_step", Ratio(static_cast<double>(r.io_issued_gets), steps), "count",
               "backing Gets issued per streamed step"});
  m.push_back({"io.cache_hit_ratio",
               Ratio(static_cast<double>(r.cache_hits), static_cast<double>(r.cache_lookups)),
               "ratio", "block-cache hits per lookup"});
  m.push_back({"io.readahead_issued", Ratio(static_cast<double>(r.io_prefetch_issues), steps),
               "count", "read-ahead fetches per step"});
  m.push_back({"io.coalesced", Ratio(static_cast<double>(r.io_coalesced), steps), "count",
               "reads joining an in-flight Get, per step"});
  AddQuantile(&m, "storage.get_ms_p50", Percentile(d.storage_get_ms, 50), "ms");
  AddQuantile(&m, "storage.get_ms_p99", TailPercentile(d.storage_get_ms, 99), "ms");
  m.push_back({"storage.bytes_per_step",
               Ratio(static_cast<double>(d.storage_bytes_steps), static_cast<double>(d.steps)),
               "B", "backing bytes read per drill step"});
  AddQuantile(&m, "checkpoint.ckpt_ms_p50", Percentile(r.ckpt_ms, 50), "ms");
  AddQuantile(&m, "checkpoint.journal_ms_p50", Percentile(d.journal_ms, 50), "ms");
  m.push_back({"checkpoint.snapshot_bytes", static_cast<double>(d.snapshot_bytes), "B",
               "serialized loader snapshots at the last drill step"});
  m.push_back({"checkpoint.restore_ms", d.restore_ms, "ms", "Restore of every loader"});
  m.push_back({"actor.threads", static_cast<double>(r.tenant_threads), "count",
               "OS threads one tenant registration adds"});
  AddQuantile(&m, "actor.ask_us_p50", Percentile(d.ask_us, 50), "us");
  m.push_back({"bench.trace_overhead", d.trace_overhead, "ratio",
               "drill step time, spans-on pass over spans-off pass"});
  return m;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.4f %-6s  %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

int64_t LayerNs(const SelfTimes& self, const std::string& layer) {
  auto it = self.by_layer.find(layer);
  return it != self.by_layer.end() ? it->second : 0;
}

// Self time per layer, keyed by the per-layer metrics that layer reports.
void PrintSelfTimes(const DrillResult& d) {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"planner", "planner.*"},
      {"loader", "loader.* (pop, gather, open; includes waits on storage)"},
      {"constructor", "constructor.*"},
      {"checkpoint", "checkpoint.*"},
      {"actor", "actor.ask_us_p50 (Ask round trip minus the call)"},
      {"drill", "bench.trace_overhead (drill bookkeeping)"},
  };
  int64_t total = 0;
  for (const auto& [layer, ns] : d.step_self_times.by_layer) {
    total += ns;
  }
  std::printf("layer self time over %lld drill steps\n",
              static_cast<long long>(d.steps));
  std::printf("  %-12s %12s %8s  %s\n", "layer", "self ms", "share", "metrics");
  for (const auto& [layer, keys] : kLayers) {
    const int64_t ns = LayerNs(d.step_self_times, layer);
    std::printf("  %-12s %12.3f %7.1f%%  %s\n", layer.c_str(), ns / 1e6,
                100.0 * Ratio(static_cast<double>(ns), static_cast<double>(total)), keys.c_str());
  }
  // Backing reads run on io threads, beside the step rather than inside one
  // call of it, so they have no share of step time: a pop that waits on one
  // counts the wait as loader time above.
  std::printf("  %-12s %12.3f %8s  %s\n", "storage", LayerNs(d.self_times, "storage") / 1e6, "-",
              "storage.* (every backing read, set-up included, on io threads)");
  std::printf("  (api and io layers are read from the session run: api.*, io.*)\n");
  std::printf("span self time by call (set-up Open and final Restore included)\n");
  for (const auto& [name, ns] : d.self_times.by_name) {
    std::printf("  %-28s %12.3f ms over %lld spans\n", name.c_str(), ns / 1e6,
                static_cast<long long>(d.self_times.count_by_name.at(name)));
  }
}

void PrintJson(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              ledger.failed == 0 && ledger.attempted > 0 ? "true" : "false",
              static_cast<long long>(ledger.attempted), static_cast<long long>(ledger.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  const auto run_t0 = std::chrono::steady_clock::now();
  std::optional<Workload> workload = FindWorkload(args.workload);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::filesystem::path work_dir =
      std::filesystem::path(".bench_build") / ("work-" + std::to_string(getpid()));
  std::filesystem::create_directories(work_dir);
  std::printf("layerbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  Ledger ledger;
  StreamResult stream;
  DrillResult drill;
  {
    msd::DataService service(PlaneConfigFor(*workload));
    // Input generation, before any clock: the sessions' own materialization
    // of the same spec/seed/row-group size then dedups to a no-op.
    const msd::Session::Options options = SessionOptionsFor(*workload, args.seed);
    const auto t0 = std::chrono::steady_clock::now();
    msd::Result<int64_t> rows = service.plane()->MaterializeCorpus(
        MaterializedCorpus(options), options.seed, WriteOptionsFor(options));
    if (!rows.ok()) {
      std::fprintf(stderr, "materialize: %s\n", rows.status().ToString().c_str());
      std::error_code ec;
      std::filesystem::remove_all(work_dir, ec);
      return 2;
    }
    std::printf("corpus: %lld rows in %zu sources, generated in %.2f s (untimed)\n",
                static_cast<long long>(rows.value()), options.corpus.sources.size(),
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());

    StreamConfig config;
    config.seconds = args.seconds;
    config.trace = args.trace;
    config.work_dir = work_dir.string();
    stream = RunStreamPhase(*workload, args.seed, config, service, ledger);

    if (args.trace && ledger.failed == 0) {
      const std::filesystem::path traces = std::filesystem::path(".bench_build") / "traces";
      std::filesystem::create_directories(traces);
      const std::string trace_path =
          (traces / (args.workload + "-seed" + std::to_string(args.seed) + ".json")).string();
      drill = RunDrill(*workload, args.seed, service, stream.step_ids,
                       std::min<int64_t>(workload->episode_steps, 64), args.seconds, trace_path,
                       ledger);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);

  const std::vector<Metric> e2e = EndToEndMetrics(stream);
  PrintMetrics("end-to-end", e2e);
  std::printf("  %-28s %16.4f %-6s  %lld of %lld operations failed\n", "error_rate",
              Ratio(static_cast<double>(ledger.failed), static_cast<double>(ledger.attempted)),
              "ratio", static_cast<long long>(ledger.failed),
              static_cast<long long>(ledger.attempted));
  for (const std::string& failure : ledger.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  std::printf("run wall time: %.2f s\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() - run_t0).count());
  if (!args.trace) {
    PrintJson(ledger, e2e);
    return 0;
  }
  const std::vector<Metric> layers = PerLayerMetrics(stream, drill);
  PrintMetrics("per-layer", layers);
  PrintSelfTimes(drill);
  if (!drill.trace_path.empty()) {
    std::printf("chrome trace: %s\n", drill.trace_path.c_str());
  }
  PrintJson(ledger, layers);
  return 0;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  layerbench::Args args;
  if (!layerbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: layerbench --workload <vlm_decode|text_fanin|remote_ckpt> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return layerbench::Run(args);
}
