// Tests for the baseline SSD's FAST-style hybrid FTL: translation, merges,
// garbage collection, wear, and memory accounting.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/check/invariant_checker.h"
#include "src/ftl/block_allocator.h"
#include "src/ssd/ssd_ftl.h"
#include "src/util/rng.h"
#include "tests/stats_printer.h"

namespace flashtier {
namespace {

// A small device: 64 logical erase blocks (4096 pages), few-plane layout so
// GC and merges trigger quickly.
SsdFtl::Options SmallOptions() {
  SsdFtl::Options o;
  o.geometry.planes = 4;
  return o;
}
constexpr uint64_t kSmallPages = 4096;

TEST(BlockAllocatorTest, AllocatesWearMinimumAndBalancesPlanes) {
  FlashGeometry g;
  g.planes = 2;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  SimClock clock;
  FlashDevice device(g, FlashTimings{}, &clock);
  // Pre-wear block 0 heavily.
  ASSERT_EQ(device.EraseBlock(0), Status::kOk);
  ASSERT_EQ(device.EraseBlock(0), Status::kOk);
  ASSERT_EQ(device.EraseBlock(0), Status::kOk);
  BlockAllocator alloc(device, /*reserved_blocks=*/0);
  EXPECT_EQ(alloc.FreeCount(), 8u);
  // First allocation must avoid the worn block.
  const PhysBlock b = alloc.Allocate();
  EXPECT_NE(b, 0u);
  // Exhaust everything.
  uint32_t n = 1;
  while (alloc.Allocate() != kInvalidBlock) {
    ++n;
  }
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(alloc.FreeCount(), 0u);
  alloc.Free(3);
  EXPECT_EQ(alloc.FreeCount(), 1u);
  EXPECT_EQ(alloc.Allocate(), 3u);
}

TEST(BlockAllocatorTest, ReservedBlocksExcluded) {
  FlashGeometry g;
  g.planes = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 8;
  SimClock clock;
  FlashDevice device(g, FlashTimings{}, &clock);
  BlockAllocator alloc(device, /*reserved_blocks=*/3);
  EXPECT_EQ(alloc.FreeCount(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_GE(alloc.Allocate(), 3u);
  }
}

TEST(SsdFtlTest, WriteReadRoundTrip) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  ASSERT_EQ(ssd.Write(100, 0xaaa), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(ssd.Read(100, &token), Status::kOk);
  EXPECT_EQ(token, 0xaaau);
}

TEST(SsdFtlTest, UnwrittenPageReadsNotPresent) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  uint64_t token = 0;
  EXPECT_EQ(ssd.Read(55, &token), Status::kNotPresent);
  EXPECT_EQ(ssd.Read(kSmallPages, &token), Status::kInvalidArgument);
}

TEST(SsdFtlTest, OverwriteReturnsNewestVersion) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  for (uint64_t v = 0; v < 50; ++v) {
    ASSERT_EQ(ssd.Write(7, v), Status::kOk);
  }
  uint64_t token = 0;
  ASSERT_EQ(ssd.Read(7, &token), Status::kOk);
  EXPECT_EQ(token, 49u);
}

TEST(SsdFtlTest, TrimRemovesBlock) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  ASSERT_EQ(ssd.Write(9, 1), Status::kOk);
  ASSERT_EQ(ssd.Trim(9), Status::kOk);
  uint64_t token = 0;
  EXPECT_EQ(ssd.Read(9, &token), Status::kNotPresent);
}

TEST(SsdFtlTest, SequentialFillUsesSwitchMerges) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  // Sequential write of the whole device: log blocks fill with exactly one
  // logical block each, in order — the cheapest possible merges.
  for (uint64_t lpn = 0; lpn < kSmallPages; ++lpn) {
    ASSERT_EQ(ssd.Write(lpn, lpn), Status::kOk);
  }
  EXPECT_GT(ssd.ftl_stats().switch_merges, 0u);
  EXPECT_EQ(ssd.ftl_stats().full_merges, 0u);
  // Everything still readable.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const uint64_t lpn = rng.Below(kSmallPages);
    uint64_t token = 0;
    ASSERT_EQ(ssd.Read(lpn, &token), Status::kOk);
    EXPECT_EQ(token, lpn);
  }
}

TEST(SsdFtlTest, RandomOverwritesForceFullMergesAndWriteAmplification) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  // Fill sequentially, then overwrite randomly: full merges must copy data.
  for (uint64_t lpn = 0; lpn < kSmallPages; ++lpn) {
    ASSERT_EQ(ssd.Write(lpn, lpn), Status::kOk);
  }
  Rng rng(11);
  std::unordered_map<uint64_t, uint64_t> oracle;
  for (uint64_t i = 0; i < 3 * kSmallPages; ++i) {
    const uint64_t lpn = rng.Below(kSmallPages);
    const uint64_t token = i | (1ull << 40);
    ASSERT_EQ(ssd.Write(lpn, token), Status::kOk);
    oracle[lpn] = token;
  }
  EXPECT_GT(ssd.ftl_stats().full_merges, 0u);
  EXPECT_GT(ssd.flash_stats().gc_copies, 0u);
  EXPECT_GT(ssd.ExtraWritesPerBlock(), 0.0);
  EXPECT_GT(ssd.flash_stats().erases, 0u);
  for (const auto& [lpn, token] : oracle) {
    uint64_t got = 0;
    ASSERT_EQ(ssd.Read(lpn, &got), Status::kOk);
    ASSERT_EQ(got, token) << "lpn " << lpn;
  }
}

TEST(SsdFtlTest, SteadyStateRandomWorkloadStaysCorrect) {
  // Property-style: hammer a small SSD with random ops and check against a
  // reference map continuously.
  SimClock clock;
  SsdFtl::Options opts = SmallOptions();
  SsdFtl ssd(1024, &clock, opts);
  Rng rng(23);
  std::unordered_map<uint64_t, uint64_t> oracle;
  for (uint64_t i = 0; i < 30'000; ++i) {
    const uint64_t lpn = rng.Below(1024);
    const uint64_t roll = rng.Below(10);
    if (roll < 6) {
      ASSERT_EQ(ssd.Write(lpn, i), Status::kOk);
      oracle[lpn] = i;
    } else if (roll < 7) {
      ASSERT_EQ(ssd.Trim(lpn), Status::kOk);
      oracle.erase(lpn);
    } else {
      uint64_t token = 0;
      const Status s = ssd.Read(lpn, &token);
      const auto it = oracle.find(lpn);
      if (it == oracle.end()) {
        ASSERT_EQ(s, Status::kNotPresent) << "i=" << i << " lpn=" << lpn;
      } else {
        ASSERT_EQ(s, Status::kOk) << "i=" << i << " lpn=" << lpn;
        ASSERT_EQ(token, it->second) << "i=" << i << " lpn=" << lpn;
      }
    }
  }
}

TEST(SsdFtlTest, WearStaysBalanced) {
  SimClock clock;
  SsdFtl ssd(1024, &clock, SmallOptions());
  Rng rng(31);
  for (uint64_t i = 0; i < 60'000; ++i) {
    ASSERT_EQ(ssd.Write(rng.Below(1024), i), Status::kOk);
  }
  const uint64_t erases = ssd.flash_stats().erases;
  ASSERT_GT(erases, 50u);
  // Wear-aware allocation keeps the spread well below the mean erase count.
  const double mean =
      static_cast<double>(erases) / ssd.device().geometry().TotalBlocks();
  EXPECT_LT(ssd.device().MaxWearDiff(), mean);
}

TEST(SsdFtlTest, DenseMappingMemoryIsProportionalToCapacity) {
  SimClock clock;
  SsdFtl small(4096, &clock, SmallOptions());
  SsdFtl big(8 * 4096, &clock, SmallOptions());
  // Even empty, the dense table costs memory proportional to the address
  // space — the paper's core criticism of SSD caches.
  EXPECT_GT(big.DeviceMemoryUsage(), small.DeviceMemoryUsage());
  EXPECT_GT(small.DeviceMemoryUsage(), 0u);
}

TEST(SsdFtlTest, RecoveryScanScalesWithMapSize) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  const uint64_t us = ssd.RecoveryOobScanUs();
  EXPECT_GT(us, 0u);
  SsdFtl big(8 * kSmallPages, &clock, SmallOptions());
  EXPECT_GT(big.RecoveryOobScanUs(), us);
}

TEST(BlockAllocatorTest, RetirementIsIdempotentAndOrderStable) {
  FlashGeometry g;
  g.planes = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 8;
  SimClock clock;
  FlashDevice device(g, FlashTimings{}, &clock);
  BlockAllocator alloc(device, /*reserved_blocks=*/0);
  // Pull every block out of the pool (retirement happens to blocks the FTL
  // holds — an erase just failed on them), retire two, free the rest.
  std::vector<PhysBlock> held;
  for (PhysBlock b = alloc.Allocate(); b != kInvalidBlock; b = alloc.Allocate()) {
    held.push_back(b);
  }
  alloc.Retire(5);
  alloc.Retire(2);
  alloc.Retire(5);  // double retirement is ignored
  for (PhysBlock b : held) {
    alloc.Free(b);  // retired blocks must bounce off, even from this path
  }
  EXPECT_EQ(alloc.FreeCount(), 6u);
  EXPECT_EQ(alloc.RetiredCount(), 2u);
  EXPECT_TRUE(alloc.IsRetired(5));
  EXPECT_TRUE(alloc.IsRetired(2));
  EXPECT_FALSE(alloc.IsRetired(3));
  // Iteration preserves retirement order — deterministic consumers (the
  // invariant checker's partition audit) rely on it.
  std::vector<PhysBlock> order;
  alloc.ForEachRetired([&order](PhysBlock b) { order.push_back(b); });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 5u);
  EXPECT_EQ(order[1], 2u);
  // Retired blocks never come back out of the free pool.
  for (PhysBlock b = alloc.Allocate(); b != kInvalidBlock; b = alloc.Allocate()) {
    EXPECT_NE(b, 5u);
    EXPECT_NE(b, 2u);
  }
}

TEST(SsdFtlTest, WearLevelOnceMigratesColdBlocksOntoWornOnes) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  // Park cold data, then churn a hot window to skew per-block wear.
  for (Lbn lbn = 0; lbn < 64; ++lbn) {
    ASSERT_EQ(ssd.Write(lbn, 5000 + lbn), Status::kOk);
  }
  for (int round = 0; round < 30; ++round) {
    for (Lbn lbn = 2000; lbn < 2100; ++lbn) {
      ASSERT_EQ(ssd.Write(lbn, round * 10000 + lbn), Status::kOk);
    }
  }
  ASSERT_GT(ssd.device().MaxWearDiff(), 0u);
  EXPECT_TRUE(ssd.WearLevelOnce(/*max_wear_diff=*/0));
  EXPECT_GE(ssd.ftl_stats().wl_migrations, 1u);
  // Migration relocated data without losing any of it.
  for (Lbn lbn = 0; lbn < 64; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(ssd.Read(lbn, &token), Status::kOk);
    EXPECT_EQ(token, 5000 + lbn);
  }
  for (Lbn lbn = 2000; lbn < 2100; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(ssd.Read(lbn, &token), Status::kOk);
    EXPECT_EQ(token, 29 * 10000 + lbn);
  }
}

TEST(SsdFtlTest, RetirementExhaustionFailsWritesCleanly) {
  SimClock clock;
  SsdFtl::Options o = SmallOptions();
  o.fault_plan.enabled = true;
  o.fault_plan.seed = 3;
  o.fault_plan.erase_fail_prob = 1.0;  // every erase retires its block
  SsdFtl ssd(kSmallPages, &clock, o);
  Status last = Status::kOk;
  Lbn written = 0;
  for (Lbn lbn = 0; lbn < 200000; ++lbn) {
    last = ssd.Write(lbn % kSmallPages, lbn + 1);
    if (last != Status::kOk) {
      break;
    }
    ++written;
  }
  // The allocator runs dry through retirement; the SSD reports it honestly.
  EXPECT_TRUE(last == Status::kNoSpace || last == Status::kIoError);
  EXPECT_GT(ssd.ftl_stats().retired_blocks, 0u);
  // Surviving translations still read back their last acknowledged token
  // (the SSD never silently evicts; a lost page must be an error, not a
  // stale success).
  uint64_t spot_checked = 0;
  for (Lbn page = 0; page < kSmallPages && page < written; ++page) {
    // The last acknowledged write to `page` was the largest lbn < written
    // congruent to it.
    const Lbn last_write = page + (written - page - 1) / kSmallPages * kSmallPages;
    uint64_t token = 0;
    const Status s = ssd.Read(page, &token);
    if (s == Status::kOk) {
      EXPECT_EQ(token, last_write + 1);
      ++spot_checked;
    }
  }
  EXPECT_GT(spot_checked, 0u);
}

// Counters and memory after one seeded mapping-equivalence run.
struct EquivalenceRun {
  FtlStats ftl;
  FlashStats flash;
  FaultStats faults;
  size_t device_mem = 0;
  uint64_t lost_pages = 0;  // shadow entries a fault made unreadable
  uint64_t failed_writes = 0;
};

// Drives a seeded mix of whole-block sequential writes, random overwrites,
// trims and reads on a 64-block device and checks every read against a
// shadow map. Writes come in 64-op chunks so log blocks line up with logical
// blocks (switch merges) until random chunks interleave them (full merges);
// a program fault leaves a sequential prefix behind (partial merges). With
// faults, a read may fail or miss a page a merge could not move, but a
// successful read must still return the newest acknowledged token.
EquivalenceRun RunMapEquivalence(const FaultPlan& plan) {
  SimClock clock;
  SsdFtl::Options o = SmallOptions();
  o.fault_plan = plan;
  SsdFtl ssd(kSmallPages, &clock, o);
  const uint64_t pages_per_block = ssd.device().geometry().pages_per_block;
  const uint64_t blocks = kSmallPages / pages_per_block;
  Rng rng(77);
  std::unordered_map<uint64_t, uint64_t> shadow;
  EquivalenceRun run;
  uint64_t version = 0;
  const auto write = [&](uint64_t lpn) {
    const uint64_t token = (++version << 16) | lpn;
    const Status s = ssd.Write(lpn, token);
    if (IsOk(s)) {
      shadow[lpn] = token;
    } else {
      // A refused write leaves the previous version mapped.
      EXPECT_TRUE(plan.enabled) << "lpn " << lpn << ": " << StatusName(s);
      ++run.failed_writes;
    }
  };
  const auto read = [&](uint64_t lpn) {
    uint64_t token = 0;
    const Status s = ssd.Read(lpn, &token);
    const auto it = shadow.find(lpn);
    if (s == Status::kOk) {
      ASSERT_NE(it, shadow.end()) << "lpn " << lpn;
      ASSERT_EQ(token, it->second) << "lpn " << lpn;
    } else if (s == Status::kNotPresent) {
      if (it != shadow.end()) {
        ASSERT_TRUE(plan.enabled) << "lpn " << lpn;
        shadow.erase(it);
        ++run.lost_pages;
      }
    } else {
      ASSERT_TRUE(plan.enabled && s == Status::kCorrupt) << "lpn " << lpn;
    }
  };
  for (uint32_t chunk = 0; chunk < 1200; ++chunk) {
    const uint64_t roll = rng.Below(10);
    if (roll < 4) {
      const uint64_t first = rng.Below(blocks) * pages_per_block;
      for (uint64_t off = 0; off < pages_per_block; ++off) {
        write(first + off);
      }
    } else {
      // Exactly one log block's worth of writes, with trims and reads mixed in.
      for (uint64_t writes = 0; writes < pages_per_block;) {
        const uint64_t lpn = rng.Below(kSmallPages);
        const uint64_t op = rng.Below(10);
        if (op < 6) {
          write(lpn);
          ++writes;
        } else if (op < 7) {
          EXPECT_EQ(ssd.Trim(lpn), Status::kOk);
          shadow.erase(lpn);
        } else {
          read(lpn);
        }
      }
    }
  }
  for (uint64_t lpn = 0; lpn < kSmallPages; ++lpn) {
    read(lpn);
  }
  run.ftl = ssd.ftl_stats();
  run.flash = ssd.flash_stats();
  run.faults = ssd.device().fault_stats();
  run.device_mem = ssd.DeviceMemoryUsage();
  return run;
}

// The golden counters below were produced by the FTL with its earlier
// hash-map log page map: a change to the map's representation must not move
// any merge decision, flash operation or modelled device-RAM byte.
TEST(SsdFtlTest, MapEquivalenceFaultFree) {
  const EquivalenceRun run = RunMapEquivalence(FaultPlan{});
  EXPECT_GT(run.ftl.switch_merges, 0u);
  EXPECT_GT(run.ftl.full_merges, 0u);
  EXPECT_EQ(run.failed_writes, 0u);
  EXPECT_EQ(run.lost_pages, 0u);
  EXPECT_EQ(run.ftl, (FtlStats{.host_reads = 27168,
                               .host_writes = 76800,
                               .host_read_misses = 3398,
                               .gc_invocations = 1196,
                               .full_merges = 1078,
                               .switch_merges = 105}));
  EXPECT_EQ(run.flash, (FlashStats{.page_reads = 23770,
                                   .page_writes = 76800,
                                   .erases = 14597,
                                   .gc_copies = 747114,
                                   .busy_us = 143561100}));
  EXPECT_EQ(run.faults, FaultStats{});
  EXPECT_EQ(run.device_mem, 9432u);
}

// Faulted goldens: a merge stops copying into a destination that failed a
// program, a failed full merge puts its victim back, and the log drains back
// under its budget after a degraded merge.
TEST(SsdFtlTest, MapEquivalenceUnderFaults) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 4;
  plan.program_fail_prob = 0.00001;
  plan.read_corrupt_prob = 0.0002;
  const EquivalenceRun run = RunMapEquivalence(plan);
  EXPECT_GT(run.ftl.switch_merges, 0u);
  EXPECT_GT(run.ftl.partial_merges, 0u);
  EXPECT_GT(run.ftl.full_merges, 0u);
  EXPECT_EQ(run.failed_writes, 0u);
  EXPECT_LE(run.lost_pages, run.ftl.dropped_clean_pages);
  EXPECT_EQ(run.lost_pages, 75u);
  EXPECT_EQ(run.ftl, (FtlStats{.host_reads = 27168,
                               .host_writes = 76800,
                               .host_read_misses = 3496,
                               .gc_invocations = 1201,
                               .full_merges = 1068,
                               .partial_merges = 1,
                               .switch_merges = 12,
                               .program_retries = 1,
                               .dropped_clean_pages = 351}));
  EXPECT_EQ(run.flash, (FlashStats{.page_reads = 23785,
                                   .page_writes = 76800,
                                   .erases = 12712,
                                   .gc_copies = 636171,
                                   .busy_us = 123909062}));
  EXPECT_EQ(run.faults, (FaultStats{.program_failures = 10, .read_corruptions = 118}));
  EXPECT_EQ(run.device_mem, 10012u);
}

// Under program faults a degraded merge puts its victim back at the front of
// the log. Unless the log drains back under its budget, it grows until the
// spare blocks are gone and every write is refused with kNoSpace; and a full
// merge that then finds no free block must put its victim back, not leak it.
// The sweep writes through the faults, then checks every page against a
// shadow map and audits the block partition (a leaked block belongs to no
// category).
TEST(SsdFtlTest, ProgramFaultSweepNeverStalls) {
  for (const double prob : {1e-5, 3e-5}) {
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      SimClock clock;
      SsdFtl::Options o = SmallOptions();
      o.fault_plan.enabled = true;
      o.fault_plan.seed = seed;
      o.fault_plan.program_fail_prob = prob;
      SsdFtl ssd(kSmallPages, &clock, o);
      Rng rng(seed);
      std::unordered_map<uint64_t, uint64_t> shadow;
      uint64_t refused = 0;
      for (uint64_t i = 0; i < 60'000; ++i) {
        const uint64_t lpn = rng.Below(kSmallPages);
        const uint64_t token = (i << 16) | lpn;
        if (IsOk(ssd.Write(lpn, token))) {
          shadow[lpn] = token;
        } else {
          ++refused;
        }
      }
      const std::string where =
          "seed " + std::to_string(seed) + ", program_fail_prob " + std::to_string(prob);
      EXPECT_EQ(refused, 0u) << where;
      // A page whose only copy a degraded merge could not move reads as a
      // miss; a page that reads must hold the newest acknowledged version.
      uint64_t stale = 0;
      uint64_t errors = 0;
      for (const auto& [lpn, token] : shadow) {
        uint64_t got = 0;
        const Status s = ssd.Read(lpn, &got);
        stale += s == Status::kOk && got != token ? 1 : 0;
        errors += s != Status::kOk && s != Status::kNotPresent ? 1 : 0;
      }
      EXPECT_EQ(stale, 0u) << where;
      EXPECT_EQ(errors, 0u) << where;
      const CheckReport report = InvariantChecker::Check(ssd);
      EXPECT_TRUE(report.ok()) << where << ": " << report.ToString();
    }
  }
}

TEST(SsdFtlTest, TimingChargedToSharedClock) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  const uint64_t t0 = clock.now_us();
  ASSERT_EQ(ssd.Write(1, 1), Status::kOk);
  EXPECT_GT(clock.now_us(), t0);
}

}  // namespace
}  // namespace flashtier
