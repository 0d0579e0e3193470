// FlashBench command line: repeats one workload for --seconds, checks every
// rep's outputs, and prints a readable report followed by one JSON line.
//
//   flashbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//              [--spans-out=<file>]
//
// --trace=0 reports the end-to-end metrics; --trace=1 alternates untraced and
// traced reps and reports the per-layer metrics, including the tracing
// overhead between the two. Exit status: 0 when every check passed, 1 when a
// check failed (the JSON line still prints, with "correct": false), 2 on bad
// arguments.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "flashbench.h"
#include "src/util/args.h"

namespace flashbench {
namespace {

using HostClock = std::chrono::steady_clock;

// Each run replays kSubTraces traces generated from sub-seeds of --seed, and
// reports every virtual metric as its mean over them: a single synthetic
// trace's miss rate or IOPS varies by up to ~12% from seed to seed.
constexpr uint32_t kSubTraces = 5;
// Set-up samples per run: reps supply most, cheap set-up-only passes the rest.
constexpr size_t kMinSetupSamples = 9;

uint64_t SubSeed(uint64_t seed, uint32_t sub) { return seed * kSubTraces + sub; }

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace=0), in BENCHMARK.json order.
constexpr Metric kEndToEnd[] = {
    {"virt_iops", "req/virt_s"},
    {"virt_p50_us", "virt_us"},
    {"virt_p99_us", "virt_us"},
    {"virt_p999_us", "virt_us"},
    {"read_miss_pct", "%"},
    {"flash_writes_per_req", "pages/req"},
    {"device_mem_bytes_per_block", "B/block"},
    {"recovery_virt_ms", "virt_ms"},
    {"replay_ops_per_s", "req/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics (--trace=1), in BENCHMARK.json order.
constexpr Metric kPerLayer[] = {
    {"trace.gen_ns_per_req", "ns"},
    {"cache.read_host_ns_p50", "ns"},
    {"cache.read_host_ns_p99", "ns"},
    {"cache.write_host_ns_p50", "ns"},
    {"cache.write_host_ns_p99", "ns"},
    {"cache.read_hit_virt_us_p50", "virt_us"},
    {"cache.read_miss_virt_us_p50", "virt_us"},
    {"cache.write_virt_us_p50", "virt_us"},
    {"cache.write_virt_us_p99", "virt_us"},
    {"cache.writebacks_per_kreq", "count/kreq"},
    {"cache.metadata_writes_per_kreq", "count/kreq"},
    {"cache.evicts_per_kreq", "count/kreq"},
    {"cache.host_mem_bytes_per_block", "B/block"},
    {"ssc.gc_invocations_per_kreq", "count/kreq"},
    {"ssc.silently_evicted_pages_per_kreq", "pages/kreq"},
    {"ssc.switch_merges_per_kreq", "count/kreq"},
    {"ssc.full_merges_per_kreq", "count/kreq"},
    {"ssc.map_entries", "count"},
    {"persist.sync_commits_per_kreq", "count/kreq"},
    {"persist.group_commits_per_kreq", "count/kreq"},
    {"persist.records_per_log_page", "records/page"},
    {"persist.checkpoints_per_kreq", "count/kreq"},
    {"persist.checkpoint_pages_per_kreq", "pages/kreq"},
    {"persist.checkpoint_host_share_pct", "%"},
    {"persist.flush_host_share_pct", "%"},
    {"persist.recovery_virt_ms_max", "virt_ms"},
    {"persist.recovery_log_records", "count"},
    {"persist.recovery_checkpoint_entries", "count"},
    {"flash.page_reads_per_kreq", "pages/kreq"},
    {"flash.page_writes_per_kreq", "pages/kreq"},
    {"flash.erases_per_kreq", "count/kreq"},
    {"flash.gc_copies_per_kreq", "pages/kreq"},
    {"flash.busy_pct", "%"},
    {"ssd.full_merges_per_kreq", "count/kreq"},
    {"ssd.partial_merges_per_kreq", "count/kreq"},
    {"ssd.switch_merges_per_kreq", "count/kreq"},
    {"ssd.gc_invocations_per_kreq", "count/kreq"},
    {"disk.reads_per_kreq", "count/kreq"},
    {"disk.writes_per_kreq", "count/kreq"},
    {"disk.busy_pct", "%"},
    {"kv.get_host_ns_p50", "ns"},
    {"kv.get_host_ns_p99", "ns"},
    {"kv.set_host_ns_p50", "ns"},
    {"kv.set_host_ns_p99", "ns"},
    {"kv.hit_pct", "%"},
    {"kv.open_slab_hit_pct", "%"},
    {"kv.slab_page_writes_per_kset", "pages/kset"},
    {"kv.compactions_per_kreq", "count/kreq"},
    {"kv.compaction_reclaim_ratio", "ratio"},
    {"bench.failed_op_pct", "%"},
    {"bench.tracing_overhead_pct", "%"},
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::vector<double> HostSeries(const std::vector<RepResult>& reps, bool traced,
                               const std::vector<bool>& is_traced, const std::string& name) {
  std::vector<double> out;
  for (size_t i = 0; i < reps.size(); ++i) {
    if (is_traced[i] == traced) {
      out.push_back(Get(reps[i].host, name));
    }
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Usage() {
  std::fprintf(stderr,
               "usage: flashbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>\n"
               "                  [--spans-out=<file>]\nworkloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  flashtier::ArgParser args(argc, argv);
  if (!args.ok() ||
      !args.UnknownFlags({"workload", "seed", "seconds", "trace", "spans-out"}).empty()) {
    return Usage();
  }
  const Workload* workload = FindWorkload(args.GetString("workload", ""));
  const int64_t seed = args.GetInt("seed", -1);
  const double seconds = args.GetPositiveDouble("seconds", 10.0);
  const int64_t trace = args.GetInt("trace", 0);
  if (workload == nullptr || seed < 0 || !args.ok() || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const bool traced_run = trace == 1;

  // Reps. An untraced run cycles through the sub-traces; a traced run first
  // traces each sub-trace once, then alternates untraced and traced reps.
  // Either way the first kSubTraces + 1 reps are mandatory, so every
  // sub-trace is covered and at least one rep repeats an earlier one.
  const auto schedule = [traced_run](size_t i) -> std::pair<uint32_t, bool> {
    if (!traced_run) {
      return {static_cast<uint32_t>(i % kSubTraces), false};
    }
    if (i < kSubTraces) {
      return {static_cast<uint32_t>(i), true};
    }
    const size_t j = i - kSubTraces;
    return {static_cast<uint32_t>((j / 2) % kSubTraces), j % 2 == 1};
  };
  std::vector<RepResult> reps;
  std::vector<uint32_t> sub_of;
  std::vector<bool> is_traced;
  std::vector<double> setups;
  std::vector<std::vector<Span>> spans;
  const auto start = HostClock::now();
  double elapsed = 0.0;
  while (reps.size() < kSubTraces + 1 ||
         elapsed + elapsed / static_cast<double>(reps.size()) <= seconds) {
    const auto [sub, traced] = schedule(reps.size());
    RepOptions options;
    options.seed = SubSeed(static_cast<uint64_t>(seed), sub);
    options.traced = traced;
    reps.push_back(RunRep(*workload, options));
    if (traced) {
      spans = std::move(reps.back().spans);  // keep only the newest traced rep's spans
    }
    sub_of.push_back(sub);
    is_traced.push_back(traced);
    setups.push_back(Get(reps.back().host, "setup_s"));
    elapsed = std::chrono::duration<double>(HostClock::now() - start).count();
  }
  for (uint32_t k = 0; setups.size() < kMinSetupSamples; ++k) {
    setups.push_back(MeasureSetup(*workload, SubSeed(static_cast<uint64_t>(seed), k % kSubTraces)));
  }

  // Every rep must pass its checks, and reps of one sub-trace must agree bit
  // for bit on the virtual metrics — traced reps with untraced ones.
  std::vector<const RepResult*> first(kSubTraces, nullptr);
  std::vector<const RepResult*> first_traced(kSubTraces, nullptr);
  bool deterministic = true;
  RepResult totals;  // correctness counters summed over reps
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    const uint32_t k = sub_of[i];
    if (first[k] == nullptr) {
      first[k] = &r;
    }
    deterministic = deterministic && r.virt == first[k]->virt &&
                    r.recovery_us == first[k]->recovery_us &&
                    r.trace_digest == first[k]->trace_digest;
    if (is_traced[i]) {
      if (first_traced[k] == nullptr) {
        first_traced[k] = &r;
      }
      deterministic = deterministic && r.layer_virt == first_traced[k]->layer_virt;
    }
    totals.attempted += r.attempted;
    totals.failed += r.failed;
    totals.stale_reads += r.stale_reads;
    totals.lost += r.lost;
    totals.recovery_mismatches += r.recovery_mismatches;
    totals.recovered = totals.recovered && r.recovered;
  }
  const bool correct = totals.Correct() && deterministic;

  std::printf("flashbench %s seed=%lld: %zu reps over %u sub-traces in %.2f s (%s)\n",
              workload->name.c_str(), static_cast<long long>(seed), reps.size(), kSubTraces,
              elapsed, traced_run ? "traced and untraced" : "untraced");
  std::printf("  %s\n", workload->why.c_str());
  std::printf("  checks: stale_reads=%llu lost=%llu recovery_mismatches=%llu recovered=%s "
              "deterministic=%s failed_ops=%llu/%llu\n",
              static_cast<unsigned long long>(totals.stale_reads),
              static_cast<unsigned long long>(totals.lost),
              static_cast<unsigned long long>(totals.recovery_mismatches),
              totals.recovered ? "yes" : "NO", deterministic ? "yes" : "NO",
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted));
  const double measured = Get(first[0]->virt, "measured_requests");
  std::printf("  virtual metrics: means over %u sub-traces; percentiles per sub-trace over "
              "%.0f measured requests (%.0f beyond p999)\n",
              kSubTraces, measured, std::floor(measured / 1000.0));

  // Mean of a virtual metric over the sub-traces; NaN if any lacks it.
  const auto virtual_mean = [](const std::vector<const RepResult*>& by_sub, bool layer,
                               const std::string& name) {
    double sum = 0.0;
    for (const RepResult* r : by_sub) {
      sum += r == nullptr ? std::nan("") : Get(layer ? r->layer_virt : r->virt, name);
    }
    return sum / kSubTraces;
  };
  const std::vector<double> untraced_rate =
      HostSeries(reps, false, is_traced, "replay_ops_per_s");
  const auto value_of = [&](const std::string& name) -> double {
    if (name == "peak_rss_mb") {
      return PeakRssMb();
    }
    if (name == "setup_s") {
      return Median(setups);
    }
    if (name == "bench.failed_op_pct") {
      return totals.attempted == 0 ? 0.0
                                   : 100.0 * static_cast<double>(totals.failed) /
                                         static_cast<double>(totals.attempted);
    }
    if (name == "bench.tracing_overhead_pct") {
      const double traced_rate =
          Median(HostSeries(reps, true, is_traced, "replay_ops_per_s"));
      return 100.0 * (1.0 - traced_rate / Median(untraced_rate));
    }
    if (name == "replay_ops_per_s") {
      return Median(untraced_rate);
    }
    if (name == "recovery_virt_ms") {
      std::vector<double> probes;
      for (const RepResult* r : first) {
        probes.insert(probes.end(), r->recovery_us.begin(), r->recovery_us.end());
      }
      return Median(probes) / 1000.0;
    }
    double v = virtual_mean(first, false, name);
    if (std::isnan(v) && traced_run) {
      v = virtual_mean(first_traced, true, name);
    }
    if (std::isnan(v)) {
      v = Median(HostSeries(reps, traced_run, is_traced, name));
    }
    return v;
  };

  // The readable report carries two end-to-end figures the JSON line leaves
  // out because they can legitimately be 0: host memory per block (0 for
  // write-through, which keeps no host state) and the failed-op share.
  std::printf("  %-38s %16.6g %s\n", "host_mem_bytes_per_block",
              value_of("cache.host_mem_bytes_per_block"), "B/block");
  std::printf("  %-38s %16.6g %s\n", "failed_op_pct", value_of("bench.failed_op_pct"), "%");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(totals.attempted);
  json += ", \"failed\": " + std::to_string(totals.failed);
  json += ", \"metrics\": {";
  bool first_metric = true;
  bool finite = true;
  const auto emit = [&](const Metric& m) {
    const double v = value_of(m.name);
    finite = finite && std::isfinite(v);
    std::printf("  %-38s %16.6g %s\n", m.name, v, m.unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first_metric ? "" : ", ", m.name, std::isfinite(v) ? v : 0.0, m.unit);
    json += buf;
    first_metric = false;
  };
  if (traced_run) {
    for (const Metric& m : kPerLayer) {
      emit(m);
    }
  } else {
    for (const Metric& m : kEndToEnd) {
      emit(m);
    }
  }
  json += "}}";

  if (traced_run && args.Has("spans-out")) {
    const std::string path = args.GetString("spans-out", "");
    if (!WriteSpans(path, workload->name, spans)) {
      std::fprintf(stderr, "flashbench: cannot write spans to %s\n", path.c_str());
      return 1;
    }
    std::printf("  spans written to %s\n", path.c_str());
  }
  if (!finite) {
    std::fprintf(stderr, "flashbench: a metric is not a finite number\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace flashbench

int main(int argc, char** argv) {
  // A fixed mmap threshold keeps glibc from raising it after the first large
  // free, so each rep's big buffers go back to the system when it ends and
  // peak_rss_mb measures the largest rep rather than heap fragmentation.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  return flashbench::Main(argc, argv);
}
