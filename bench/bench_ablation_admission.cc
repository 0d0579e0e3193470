// Ablation — admission control and the flash-write economy (DESIGN.md §5f).
//
// Replays each workload against the SSC write-through system once per
// admission policy and reports the trade the policy makes: flash page writes
// and erases per request (the wear currency of Table 5) against the read
// miss rate (the performance currency of Figure 3). The admit-all row is the
// baseline — bit-identical to running without any policy — so every other
// row reads as "writes saved vs. hits given up".
//
// The interesting rows are the read-mostly traces with large cold footprints
// (usr, proj): a selective policy keeps one-touch cold blocks out of flash
// and cuts device wear with almost no hit-rate cost. On the write-intensive
// recency-friendly traces (homes, mail) selective admission mostly defers a
// block's residency by one miss.
//
// Usage:
//   bench_ablation_admission [--workload=<name>] [--scale=<f>]
//       [--admission=<name>]     restrict the sweep to one policy
//       [--system=ssc-wt|ssc-wb] cache manager under test (default ssc-wt)
//       [--threads=<n>] [--shards=<n>] [--stats-json=FILE]
//       [--ghost-entries=<n>] [--ghost-misses=<k>]
//       [--sketch-width=<n>] [--sketch-threshold=<k>]
//       [--write-rate=<pages/s>] [--write-burst=<pages>]

#include <cinttypes>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const ParallelFlags parallel = GetParallelFlags(args);
  // Knob flags apply to every policy in the sweep; --admission (parsed by
  // the same helper, unknown names exit 2) narrows the sweep to one policy.
  const PolicyConfig base = GetAdmissionConfig(args);
  const bool only_one = args.Has("admission");

  const std::string system_name = args.GetString("system", "ssc-wt");
  SystemType system_type = SystemType::kSscWriteThrough;
  if (system_name == "ssc-wb") {
    system_type = SystemType::kSscWriteBack;
  } else if (system_name != "ssc-wt") {
    std::fprintf(stderr, "unknown --system '%s' (valid: ssc-wt, ssc-wb)\n", system_name.c_str());
    return 2;
  }

  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  PrintHeader("Ablation: admission policy vs. flash-write economy");
  std::printf("system under test: %s; flash writes/erases are per replayed request\n\n",
              SystemTypeName(system_type).c_str());
  std::printf("%-8s %-11s %7s %9s %10s %10s %10s %9s\n", "trace", "policy", "miss%",
              "fwrite/op", "erase/kop", "rejects", "regret", "IOPS");

  const AdmissionKind kinds[] = {AdmissionKind::kAdmitAll, AdmissionKind::kGhostLru,
                                 AdmissionKind::kFrequencySketch,
                                 AdmissionKind::kWriteRateLimiter};
  for (const WorkloadProfile& profile : profiles) {
    // Generated once, replayed under every policy.
    VectorTrace trace = MaterializeWorkload(profile);
    for (AdmissionKind kind : kinds) {
      if (only_one && kind != base.kind) {
        continue;
      }
      SystemConfig config;
      config.type = system_type;
      config.cache_pages = CachePagesFor(profile);
      config.consistency = ConsistencyMode::kFull;
      config.shards = parallel.shards;
      config.admission = base;
      config.admission.kind = kind;
      FlashTierSystem system(config);
      const RunResult r = ReplayWorkload(trace, config, &system, 0.15,
                                         args.GetBool("verify", false), parallel.threads,
                                         parallel.depth);
      AppendStatsJson(args.GetString("stats-json", ""), "ablation_admission", profile, config,
                      &system, r);

      const ManagerStats m = system.AggregateManagerStats();
      const FlashStats flash = system.AggregateFlashStats();
      const PolicyStats ps = system.AggregatePolicyStats();
      const uint64_t reads = m.read_hits + m.read_misses;
      const double miss_rate = reads != 0 ? 100.0 * (double)m.read_misses / (double)reads : 0.0;
      const uint64_t ops = r.metrics.requests != 0 ? r.metrics.requests : 1;
      std::printf("%-8s %-11s %6.2f%% %9.3f %10.3f %10" PRIu64 " %10" PRIu64 " %9.0f\n",
                  profile.name.c_str(), AdmissionKindName(kind), miss_rate,
                  (double)flash.page_writes / (double)ops,
                  1000.0 * (double)flash.erases / (double)ops, ps.rejects,
                  ps.rejected_then_remissed, r.iops);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("Read: admit-all is the no-policy baseline; a good selective policy cuts\n"
              "fwrite/op and erase/kop with only a small miss%% increase (regret counts\n"
              "read misses on recently rejected blocks — hits the policy traded away).\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
