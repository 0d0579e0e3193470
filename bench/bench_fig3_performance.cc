// Figure 3 — Application Performance.
//
// Replays each workload against the five systems of the figure — native
// write-back (the baseline), and FlashTier's SSC/SSC-R in write-through and
// write-back modes — and reports IOPS normalized to the native system.
//
// Expected shape (paper): on write-intensive homes/mail, SSC-WB +59-128%,
// SSC-R-WB +101-167%, write-through variants +38-102%; on read-intensive
// usr/proj roughly parity with native.

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
  const PolicyConfig admission = GetAdmissionConfig(args);
  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  PrintHeader("Figure 3: application performance, % of native write-back IOPS");
  if (parallel.shards > 1 || parallel.threads > 1) {
    std::printf("parallel replay: %u shards, %u threads\n", parallel.shards, parallel.threads);
  }
  if (admission.kind != AdmissionKind::kAdmitAll) {
    std::printf("admission policy: %s\n", AdmissionKindName(admission.kind));
  }
  const SystemType systems[] = {SystemType::kNativeWriteBack, SystemType::kSscWriteThrough,
                                SystemType::kSscRWriteThrough, SystemType::kSscWriteBack,
                                SystemType::kSscRWriteBack};
  std::printf("%-8s %12s", "trace", "Native-IOPS");
  for (SystemType type : systems) {
    std::printf(" %10s", SystemTypeName(type).c_str());
  }
  std::printf("\n");

  for (const WorkloadProfile& profile : profiles) {
    // Generated once, replayed against all five systems.
    VectorTrace trace = MaterializeWorkload(profile);
    double native_iops = 0.0;
    std::printf("%-8s", profile.name.c_str());
    std::fflush(stdout);
    std::string row;
    for (SystemType type : systems) {
      SystemConfig config;
      config.type = type;
      config.cache_pages = CachePagesFor(profile);
      config.consistency = ConsistencyMode::kFull;
      config.shards = parallel.shards;
      config.admission = admission;
      FlashTierSystem system(config);
      const RunResult r = ReplayWorkload(trace, config, &system, 0.15,
                                         args.GetBool("verify", false), parallel.threads,
                                         parallel.depth);
      AppendStatsJson(args.GetString("stats-json", ""), "fig3", profile, config, &system, r);
      if (type == SystemType::kNativeWriteBack) {
        native_iops = r.iops;
        std::printf(" %12.0f", native_iops);
      }
      char cell[32];
      std::snprintf(cell, sizeof(cell), " %9.0f%%",
                    native_iops > 0 ? 100.0 * r.iops / native_iops : 0.0);
      row += cell;
      std::fflush(stdout);
    }
    std::printf("%s\n", row.c_str());
  }
  std::printf("\nPaper: homes/mail SSC-WB 159-228%%, SSC-R-WB 201-267%%, "
              "SSC-WT 138-179%%, SSC-R-WT 165-202%%; usr/proj ~100%%.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
