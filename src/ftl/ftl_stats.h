// Counters shared by both FTLs; these back Table 5 and Figure 6.

#ifndef FLASHTIER_FTL_FTL_STATS_H_
#define FLASHTIER_FTL_FTL_STATS_H_

#include <cstdint>

#include "src/util/stat_fields.h"

namespace flashtier {

struct FtlStats {
  // Host-visible operations.
  uint64_t host_reads = 0;
  uint64_t host_writes = 0;
  uint64_t host_read_misses = 0;  // reads answered "not present" (SSC only)

  // Reclamation activity.
  uint64_t gc_invocations = 0;
  uint64_t full_merges = 0;
  uint64_t partial_merges = 0;
  uint64_t switch_merges = 0;
  uint64_t silent_evictions = 0;        // blocks reclaimed without copying
  uint64_t silently_evicted_pages = 0;  // valid pages dropped by silent eviction

  // Fault handling (FaultPlan injection; see DESIGN.md §5d).
  uint64_t program_retries = 0;     // host writes retried on a fresh block
  uint64_t retired_blocks = 0;      // blocks retired after erase failure/wear-out
  uint64_t dropped_clean_pages = 0;  // clean pages lost to media errors (just misses)
  uint64_t lost_dirty_pages = 0;     // dirty pages lost to media errors (data loss)

  // Endurance defenses (DESIGN.md §5l).
  uint64_t wl_migrations = 0;    // static wear-leveling block relocations
  uint64_t patrol_repairs = 0;   // disturb/retention-risky blocks refreshed by patrol

  // Merge, == and the --stats-json block derive from this list (stat_fields.h).
  static constexpr void Fields(auto&& f) {
    f("host_reads", &FtlStats::host_reads, MergeRule::kSum);
    f("host_writes", &FtlStats::host_writes, MergeRule::kSum);
    f("host_read_misses", &FtlStats::host_read_misses, MergeRule::kSum);
    f("gc_invocations", &FtlStats::gc_invocations, MergeRule::kSum);
    f("full_merges", &FtlStats::full_merges, MergeRule::kSum);
    f("partial_merges", &FtlStats::partial_merges, MergeRule::kSum);
    f("switch_merges", &FtlStats::switch_merges, MergeRule::kSum);
    f("silent_evictions", &FtlStats::silent_evictions, MergeRule::kSum);
    f("silently_evicted_pages", &FtlStats::silently_evicted_pages, MergeRule::kSum);
    f("program_retries", &FtlStats::program_retries, MergeRule::kSum);
    f("retired_blocks", &FtlStats::retired_blocks, MergeRule::kSum);
    f("dropped_clean_pages", &FtlStats::dropped_clean_pages, MergeRule::kSum);
    f("lost_dirty_pages", &FtlStats::lost_dirty_pages, MergeRule::kSum);
    f("wl_migrations", &FtlStats::wl_migrations, MergeRule::kSum);
    f("patrol_repairs", &FtlStats::patrol_repairs, MergeRule::kSum);
  }
  void Merge(const FtlStats& o) { MergeFields(*this, o); }
  friend bool operator==(const FtlStats& a, const FtlStats& b) { return FieldsEqual(a, b); }

  // Write amplification = (all flash page programs, including GC copies and
  // metadata) / host page writes - 1 would be "extra writes per block"; the
  // paper's Table 5 reports extra writes per block, e.g. 2.30 means each
  // block written once by the host was written 2.30 *additional* times.
  // The ratio is reported raw: it falls below 0 when host_writes counts
  // writes that never programmed a page (e.g. refused under log backpressure).
  double ExtraWritesPerBlock(uint64_t device_page_writes, uint64_t device_gc_copies) const {
    if (host_writes == 0) {
      return 0.0;
    }
    const uint64_t total = device_page_writes + device_gc_copies;
    return static_cast<double>(total) / static_cast<double>(host_writes) - 1.0;
  }
};
static_assert(FieldCount<FtlStats>() * sizeof(uint64_t) == sizeof(FtlStats));

}  // namespace flashtier

#endif  // FLASHTIER_FTL_FTL_STATS_H_
