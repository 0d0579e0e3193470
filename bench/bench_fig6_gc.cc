// Figure 6 — Garbage Collection Performance.
//
// Isolates the free-space management mechanisms: write-through caching only
// (the device fully owns replacement), logging and checkpointing disabled,
// cache warmed with the first 15% of the trace (Section 6.5). Compares IOPS
// of caching on the SSD (copy-based GC), the SSC (SE-Util silent eviction)
// and the SSC-R (SE-Merge) as a percentage of the SSD.
//
// Expected shape: homes/mail SSC +34-52%, SSC-R +71-83%; usr/proj ~parity.

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
  PrintHeader("Figure 6: free-space management (write-through, no logging), % of SSD IOPS");
  const SystemType systems[] = {SystemType::kNativeWriteThrough, SystemType::kSscWriteThrough,
                                SystemType::kSscRWriteThrough};
  std::printf("%-8s %12s %10s %10s %10s\n", "trace", "SSD-IOPS", "SSD", "SSC", "SSC-R");
  for (const WorkloadProfile& profile : BenchProfiles(args)) {
    // Generated once, replayed against all three systems.
    VectorTrace trace = MaterializeWorkload(profile);
    double ssd_iops = 0.0;
    std::string row;
    for (SystemType type : systems) {
      SystemConfig config;
      config.type = type;
      config.cache_pages = CachePagesFor(profile);
      config.consistency = ConsistencyMode::kNone;  // isolate GC effects
      FlashTierSystem system(config);
      const RunResult r = ReplayWorkload(trace, config, &system, /*warmup_fraction=*/0.15);
      if (type == SystemType::kNativeWriteThrough) {
        ssd_iops = r.iops;
      }
      char cell[32];
      std::snprintf(cell, sizeof(cell), " %9.0f%%",
                    ssd_iops > 0 ? 100.0 * r.iops / ssd_iops : 0.0);
      row += cell;
    }
    std::printf("%-8s %12.0f%s\n", profile.name.c_str(), ssd_iops, row.c_str());
  }
  std::printf("\nPaper: homes/mail SSC 134-152%%, SSC-R 171-183%%; usr/proj ~100%%.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
