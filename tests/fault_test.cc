// Fault-injection tests (DESIGN.md §5d): the flash fault model itself,
// FTL bad-block management (program retry, erase-failure retirement), the
// persistence layer's handling of rotted log records and checkpoints, and
// the cache managers' degradation ladder — clean corruption is an invisible
// miss, dirty corruption is an honest loss, repeated write failures trip
// degraded pass-through.

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/disk/disk_model.h"
#include "src/flash/flash_device.h"
#include "src/ssc/ssc_device.h"
#include "src/util/rng.h"
#include "tests/stats_printer.h"

namespace flashtier {
namespace {

FlashGeometry TinyGeometry() {
  FlashGeometry g;
  g.planes = 2;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  return g;
}

FaultPlan EnabledPlan(uint64_t seed = 1) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  return plan;
}

SscConfig FaultyConfig(const FaultPlan& plan,
                       ConsistencyMode mode = ConsistencyMode::kNone) {
  SscConfig c;
  c.capacity_pages = 2048;  // 32 erase blocks
  c.mode = mode;
  c.geometry.planes = 4;
  c.group_commit_ops = 64;
  c.fault_plan = plan;
  return c;
}

// ---- The medium: FlashDevice fault semantics ----

TEST(FlashFaultTest, ScriptedProgramFailureIsStickyUntilErase) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.program_fail_at = {2};
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
  Ppn ppn = 0;
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 1, nullptr, &ppn), Status::kOk);
  EXPECT_EQ(dev.ProgramPage(0, OobRecord{}, 2, nullptr, &ppn), Status::kIoError);
  EXPECT_TRUE(dev.BlockProgramFailed(0));
  EXPECT_FALSE(dev.BlockBad(0));
  // Sticky: further programs to the block fail without a new fault draw...
  EXPECT_EQ(dev.ProgramPage(0, OobRecord{}, 3, nullptr, &ppn), Status::kIoError);
  EXPECT_EQ(dev.fault_stats().program_failures, 2u);
  // ...its already-programmed pages stay readable...
  uint64_t token = 0;
  ASSERT_EQ(dev.ReadPage(0, &token, nullptr, nullptr), Status::kOk);
  EXPECT_EQ(token, 1u);
  // ...and a successful erase clears the condition.
  ASSERT_EQ(dev.EraseBlock(0), Status::kOk);
  EXPECT_FALSE(dev.BlockProgramFailed(0));
  EXPECT_EQ(dev.ProgramPage(0, OobRecord{}, 4, nullptr, &ppn), Status::kOk);
}

TEST(FlashFaultTest, ScriptedEraseFailureRetiresBlockForever) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.erase_fail_at = {1};
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
  ASSERT_EQ(dev.EraseBlock(3), Status::kIoError);
  EXPECT_TRUE(dev.BlockBad(3));
  EXPECT_EQ(dev.fault_stats().erase_failures, 1u);
  // Bad is permanent: neither erase nor program ever succeeds again.
  EXPECT_EQ(dev.EraseBlock(3), Status::kIoError);
  Ppn ppn = 0;
  EXPECT_EQ(dev.ProgramPage(3, OobRecord{}, 1, nullptr, &ppn), Status::kIoError);
  // Other blocks are unaffected.
  EXPECT_EQ(dev.EraseBlock(2), Status::kOk);
}

TEST(FlashFaultTest, WearOutFailsEraseAtTheEnduranceLimit) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.wear_out_erases = 3;
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
  ASSERT_EQ(dev.EraseBlock(0), Status::kOk);
  ASSERT_EQ(dev.EraseBlock(0), Status::kOk);
  ASSERT_EQ(dev.EraseBlock(0), Status::kOk);
  EXPECT_EQ(dev.EraseBlock(0), Status::kIoError);  // endurance exhausted
  EXPECT_TRUE(dev.BlockBad(0));
  EXPECT_EQ(dev.fault_stats().erase_failures, 1u);
}

TEST(FlashFaultTest, ScriptedReadCorruptionIsStickyUntilErase) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_corrupt_at = {2};
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
  Ppn ppn = 0;
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 7, nullptr, &ppn), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  EXPECT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kCorrupt);
  // Sticky: the page stays uncorrectable on every retry.
  EXPECT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kCorrupt);
  EXPECT_EQ(dev.fault_stats().read_corruptions, 2u);
  // Erase clears it; the reprogrammed page reads fine.
  ASSERT_EQ(dev.EraseBlock(0), Status::kOk);
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 8, nullptr, &ppn), Status::kOk);
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  EXPECT_EQ(token, 8u);
}

TEST(FlashFaultTest, ProbabilisticFaultsAreDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    SimClock clock;
    FaultPlan plan = EnabledPlan(seed);
    plan.program_fail_prob = 0.2;
    plan.erase_fail_prob = 0.2;
    FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
    for (int round = 0; round < 20; ++round) {
      for (PhysBlock b = 0; b < dev.geometry().TotalBlocks(); ++b) {
        Ppn ppn = 0;
        // Failures are the point: 20% injection, determinism judged on stats.
        (void)dev.ProgramPage(b, OobRecord{}, round, nullptr, &ppn);
        (void)dev.EraseBlock(b);
      }
    }
    return dev.fault_stats();
  };
  const FaultStats a = run(42);
  const FaultStats b = run(42);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.program_failures + a.erase_failures, 0u);
}

TEST(FlashFaultTest, PauseSuspendsNewDrawsButKeepsStickyState) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_corrupt_prob = 1.0;
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
  Ppn ppn = 0;
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 5, nullptr, &ppn), Status::kOk);
  // Paused: the certain corruption draw never happens — an observer can read
  // the device without destroying the state it is observing.
  dev.set_fault_injection_paused(true);
  uint64_t token = 0;
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  EXPECT_EQ(token, 5u);
  // Unpaused: the next read draws and corrupts.
  dev.set_fault_injection_paused(false);
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kCorrupt);
  // Re-pausing does not heal sticky corruption — only new draws stop.
  dev.set_fault_injection_paused(true);
  EXPECT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kCorrupt);
}

TEST(FlashFaultTest, CrcCheckCatchesSilentPayloadCorruption) {
  SimClock clock;
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, /*store_data=*/true);
  std::vector<uint8_t> data(dev.geometry().page_size, 0xAB);
  Ppn ppn = 0;
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 9, data.data(), &ppn), Status::kOk);
  std::vector<uint8_t> out(dev.geometry().page_size);
  ASSERT_EQ(dev.ReadPage(ppn, nullptr, nullptr, out.data()), Status::kOk);
  EXPECT_EQ(out[0], 0xAB);
  dev.CorruptStoredDataForTesting(ppn);
  EXPECT_EQ(dev.ReadPage(ppn, nullptr, nullptr, out.data()), Status::kCorrupt);
  EXPECT_EQ(dev.fault_stats().crc_mismatches, 1u);
  // OOB/token-only reads skip the payload and therefore the CRC check.
  uint64_t token = 0;
  EXPECT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  EXPECT_EQ(token, 9u);
}

// ---- The FTL: retry and bad-block management ----

TEST(FtlFaultTest, HostWriteRetriesPastAProgramFailure) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.program_fail_at = {1};  // the very first program — the host write
  SscDevice ssc(FaultyConfig(plan), &clock);
  ASSERT_EQ(ssc.WriteDirty(100, 41), Status::kOk);  // retried, not surfaced
  EXPECT_GE(ssc.ftl_stats().program_retries, 1u);
  EXPECT_EQ(ssc.device().fault_stats().program_failures, 1u);
  uint64_t token = 0;
  ASSERT_EQ(ssc.Read(100, &token), Status::kOk);
  EXPECT_EQ(token, 41u);
}

TEST(FtlFaultTest, EraseFailureRetiresTheBlockAndTheCacheCarriesOn) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.erase_fail_at = {1};
  SscDevice ssc(FaultyConfig(plan), &clock);
  // Stream enough distinct clean blocks through the 2048-page cache that
  // silent eviction must erase — the first erase fails and retires a block.
  for (Lbn lbn = 0; lbn < 6000; ++lbn) {
    ASSERT_EQ(ssc.WriteClean(lbn, lbn + 1), Status::kOk);
  }
  EXPECT_EQ(ssc.device().fault_stats().erase_failures, 1u);
  EXPECT_EQ(ssc.ftl_stats().retired_blocks, 1u);
  // The cache keeps serving after losing a block of capacity.
  uint64_t token = 0;
  ASSERT_EQ(ssc.Read(5999, &token), Status::kOk);
  EXPECT_EQ(token, 6000u);
}

TEST(FtlFaultTest, CorruptCleanReadIsDroppedSilently) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_corrupt_at = {1};  // the first host read
  SscDevice ssc(FaultyConfig(plan), &clock);
  ASSERT_EQ(ssc.WriteClean(7, 70), Status::kOk);
  uint64_t token = 0;
  // G2 under corruption: the clean copy is dropped and the block reads
  // not-present — never a stale token, never an error the host must handle.
  EXPECT_EQ(ssc.Read(7, &token), Status::kNotPresent);
  EXPECT_EQ(ssc.ftl_stats().dropped_clean_pages, 1u);
  EXPECT_EQ(ssc.ftl_stats().lost_dirty_pages, 0u);
  EXPECT_EQ(ssc.cached_pages(), 0u);
}

TEST(FtlFaultTest, CorruptDirtyReadIsAnHonestLoss) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_corrupt_at = {1};
  SscDevice ssc(FaultyConfig(plan), &clock);
  std::vector<Lbn> losses;
  ssc.set_data_loss_hook([&losses](Lbn lbn) { losses.push_back(lbn); });
  ASSERT_EQ(ssc.WriteDirty(9, 90), Status::kOk);
  uint64_t token = 0;
  // The only copy of acknowledged dirty data is gone: report kIoError (the
  // honest answer), fire the loss hook, and free the slot.
  EXPECT_EQ(ssc.Read(9, &token), Status::kIoError);
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_EQ(losses[0], 9u);
  EXPECT_EQ(ssc.ftl_stats().lost_dirty_pages, 1u);
  // The mapping is dropped: the block now reads not-present and is writable.
  EXPECT_EQ(ssc.Read(9, &token), Status::kNotPresent);
  ASSERT_EQ(ssc.WriteDirty(9, 91), Status::kOk);
  ASSERT_EQ(ssc.Read(9, &token), Status::kOk);
  EXPECT_EQ(token, 91u);
}

// ---- Persistence: corrupt log records and checkpoints ----

TEST(PersistFaultTest, CorruptLogRecordIsSkippedNotTrusted) {
  SimClock clock;
  SscConfig config = FaultyConfig(FaultPlan{}, ConsistencyMode::kFull);
  SscDevice ssc(config, &clock);
  for (Lbn lbn = 0; lbn < 8; ++lbn) {
    ASSERT_EQ(ssc.WriteDirty(lbn, 1000 + lbn), Status::kOk);
  }
  ssc.persist_for_testing()->CorruptDurableRecordForTesting(3);
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  EXPECT_GE(ssc.persist_stats().corrupt_records_skipped, 1u);
  // Recovery must not invent state from rotten bytes: every block reads
  // either its acknowledged token or not-present, and at most the one
  // block whose record rotted may be missing.
  uint64_t missing = 0;
  for (Lbn lbn = 0; lbn < 8; ++lbn) {
    uint64_t token = 0;
    const Status s = ssc.Read(lbn, &token);
    if (s == Status::kNotPresent) {
      ++missing;
      continue;
    }
    ASSERT_EQ(s, Status::kOk);
    EXPECT_EQ(token, 1000 + lbn);
  }
  EXPECT_LE(missing, 1u);
}

TEST(PersistFaultTest, CorruptCheckpointFallsBackToPreviousState) {
  SimClock clock;
  SscConfig config = FaultyConfig(FaultPlan{}, ConsistencyMode::kFull);
  config.checkpoint_interval_writes = 8;  // force several checkpoints
  SscDevice ssc(config, &clock);
  for (Lbn lbn = 0; lbn < 40; ++lbn) {
    ASSERT_EQ(ssc.WriteDirty(lbn, 2000 + lbn), Status::kOk);
  }
  ASSERT_GE(ssc.persist_stats().checkpoints, 2u);
  ssc.persist_for_testing()->CorruptCheckpointForTesting();
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  EXPECT_GE(ssc.persist_stats().checkpoint_fallbacks, 1u);
  // G1 must survive the fallback: every acknowledged dirty block is intact.
  for (Lbn lbn = 0; lbn < 40; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(ssc.Read(lbn, &token), Status::kOk) << "lbn " << lbn;
    EXPECT_EQ(token, 2000 + lbn);
  }
}

// ---- Cache managers: the degradation ladder ----

TEST(ManagerFaultTest, WriteThroughServesCorruptCleanReadsFromDisk) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_corrupt_at = {1};
  SscDevice ssc(FaultyConfig(plan), &clock);
  DiskModel disk(DiskParams{}, &clock);
  WriteThroughManager manager(&ssc, &disk);
  ASSERT_EQ(manager.Write(11, 110), Status::kOk);
  uint64_t token = 0;
  // The cached copy is corrupt, but write-through data is clean by
  // construction: the read silently refetches from disk.
  ASSERT_EQ(manager.Read(11, &token), Status::kOk);
  EXPECT_EQ(token, 110u);
  EXPECT_EQ(manager.stats().read_misses, 1u);
  EXPECT_EQ(manager.stats().lost_dirty, 0u);
  // The refetch repopulated the cache: the next read hits.
  ASSERT_EQ(manager.Read(11, &token), Status::kOk);
  EXPECT_EQ(token, 110u);
  EXPECT_EQ(manager.stats().read_hits, 1u);
}

TEST(ManagerFaultTest, WriteBackReportsDirtyLossAndRecoversTheSlot) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_corrupt_at = {1};
  SscDevice ssc(FaultyConfig(plan), &clock);
  DiskModel disk(DiskParams{}, &clock);
  WriteBackManager manager(&ssc, &disk);
  ASSERT_EQ(manager.Write(13, 130), Status::kOk);
  uint64_t token = 0;
  // The only copy was dirty: the loss is surfaced, never papered over with
  // the stale disk version.
  EXPECT_EQ(manager.Read(13, &token), Status::kIoError);
  EXPECT_EQ(manager.stats().read_errors, 1u);
  EXPECT_EQ(manager.stats().lost_dirty, 1u);
  EXPECT_EQ(manager.dirty_blocks(), 0u);  // the block is forgotten...
  ASSERT_EQ(manager.Write(13, 131), Status::kOk);  // ...and rewritable
  ASSERT_EQ(manager.Read(13, &token), Status::kOk);
  EXPECT_EQ(token, 131u);
}

TEST(ManagerFaultTest, WriteThroughTripsIntoDegradedPassThrough) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.program_fail_prob = 1.0;  // the cache rejects every write
  SscDevice ssc(FaultyConfig(plan), &clock);
  DiskModel disk(DiskParams{}, &clock);
  WriteThroughManager manager(&ssc, &disk);
  for (Lbn lbn = 0; lbn < 10; ++lbn) {
    ASSERT_EQ(manager.Write(lbn, 300 + lbn), Status::kOk);  // disk still lands
  }
  EXPECT_TRUE(manager.degraded());
  EXPECT_EQ(manager.stats().degraded_entries, 1u);
  EXPECT_GT(manager.stats().pass_through_writes, 0u);
  // Degraded reads are misses served from disk — correct, just slower.
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(4, &token), Status::kOk);
  EXPECT_EQ(token, 304u);
}

TEST(ManagerFaultTest, WriteBackDegradedModeWritesLandOnDisk) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.program_fail_prob = 1.0;
  SscDevice ssc(FaultyConfig(plan), &clock);
  DiskModel disk(DiskParams{}, &clock);
  WriteBackManager manager(&ssc, &disk);
  for (Lbn lbn = 0; lbn < 10; ++lbn) {
    ASSERT_EQ(manager.Write(lbn, 400 + lbn), Status::kOk);
  }
  EXPECT_TRUE(manager.degraded());
  EXPECT_EQ(manager.stats().degraded_entries, 1u);
  EXPECT_EQ(manager.dirty_blocks(), 0u);  // nothing is dirty-in-cache
  for (Lbn lbn = 0; lbn < 10; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(manager.Read(lbn, &token), Status::kOk);
    EXPECT_EQ(token, 400 + lbn);
  }
}

TEST(ManagerFaultTest, DegradedManagerReengagesWhenTheCacheHeals) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.program_fail_prob = 1.0;
  SscDevice ssc(FaultyConfig(plan), &clock);
  DiskModel disk(DiskParams{}, &clock);
  WriteThroughManager manager(&ssc, &disk);
  for (Lbn lbn = 0; lbn < 8; ++lbn) {
    ASSERT_EQ(manager.Write(lbn, 500 + lbn), Status::kOk);
  }
  ASSERT_TRUE(manager.degraded());
  // The medium heals (probabilistic faults stop firing); the periodic probe
  // write discovers this and re-engages the cache.
  ssc.device_for_testing()->set_fault_injection_paused(true);
  bool reengaged = false;
  for (Lbn lbn = 0; lbn < 200 && !reengaged; ++lbn) {
    ASSERT_EQ(manager.Write(1000 + lbn, lbn), Status::kOk);
    reengaged = !manager.degraded();
  }
  EXPECT_TRUE(reengaged);
  // Post-recovery writes hit the cache again.
  ASSERT_EQ(manager.Write(42, 4242), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(42, &token), Status::kOk);
  EXPECT_EQ(token, 4242u);
  EXPECT_GT(manager.stats().read_hits, 0u);
}

// ---- Endurance: read disturb, retention decay, and the §5l defenses ----

TEST(FlashFaultTest, ReadDisturbCorruptsPastTheExposureLimit) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_disturb_limit = 4;
  plan.read_disturb_prob = 1.0;
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
  Ppn ppn = 0;
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 6, nullptr, &ppn), Status::kOk);
  uint64_t token = 0;
  // Reads inside the exposure budget are harmless.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  }
  EXPECT_EQ(dev.ReadsSinceErase(0), 4u);
  // The read past the limit draws (certainty here) and corrupts the page.
  EXPECT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kCorrupt);
  EXPECT_EQ(dev.fault_stats().read_disturbs, 1u);
  // Erase clears the exposure counter; a reprogrammed page reads clean.
  ASSERT_EQ(dev.EraseBlock(0), Status::kOk);
  EXPECT_EQ(dev.ReadsSinceErase(0), 0u);
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 7, nullptr, &ppn), Status::kOk);
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  EXPECT_EQ(token, 7u);
}

TEST(FlashFaultTest, RetentionDecayRotsPagesLeftProgrammedTooLong) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.retention_age_us = 1000;
  plan.retention_fail_prob = 1.0;
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
  Ppn ppn = 0;
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 11, nullptr, &ppn), Status::kOk);
  uint64_t token = 0;
  // Fresh data reads fine...
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  // ...but after sitting programmed past the retention age it has rotted.
  clock.Advance(2000);
  EXPECT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kCorrupt);
  EXPECT_EQ(dev.fault_stats().retention_failures, 1u);
  // An erase + reprogram refresh restarts the retention clock.
  ASSERT_EQ(dev.EraseBlock(0), Status::kOk);
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 12, nullptr, &ppn), Status::kOk);
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  EXPECT_EQ(token, 12u);
}

TEST(FlashFaultTest, PausedObserverReadsDoNotAgeTheMedium) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_disturb_limit = 2;
  plan.read_disturb_prob = 1.0;
  FlashDevice dev(TinyGeometry(), FlashTimings{}, &clock, false, plan);
  Ppn ppn = 0;
  ASSERT_EQ(dev.ProgramPage(0, OobRecord{}, 3, nullptr, &ppn), Status::kOk);
  // A paused observer (the epoch audits) can sweep the device all it wants
  // without accumulating disturb exposure against the state it is checking.
  dev.set_fault_injection_paused(true);
  uint64_t token = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  }
  EXPECT_EQ(dev.ReadsSinceErase(0), 0u);
  // Unpaused reads age it as usual: two within budget, the third corrupts.
  dev.set_fault_injection_paused(false);
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  ASSERT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kOk);
  EXPECT_EQ(dev.ReadPage(ppn, &token, nullptr, nullptr), Status::kCorrupt);
}

TEST(FtlFaultTest, PatrolScrubRelocatesDisturbExposedBlocks) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.read_disturb_limit = 200;
  plan.read_disturb_prob = 1.0;
  SscConfig config = FaultyConfig(plan);
  config.patrol_interval_writes = 4;
  SscDevice ssc(config, &clock);
  // Fill the cache and drain the log so the working set is block-mapped —
  // the patrol walks data blocks.
  for (Lbn lbn = 0; lbn < 2048; ++lbn) {
    ASSERT_EQ(ssc.WriteClean(lbn, lbn + 1), Status::kOk);
  }
  ssc.DrainLog();
  // Grind reads onto one block until its exposure enters the patrol's risk
  // band (75% of the disturb limit) without yet reaching the limit itself.
  uint64_t token = 0;
  for (int i = 0; i < 150; ++i) {
    ASSERT_EQ(ssc.Read(0, &token), Status::kOk);
  }
  ASSERT_EQ(ssc.ftl_stats().patrol_repairs, 0u);
  // A few host writes later the patrol cadence fires and moves the exposed
  // block's data to fresh flash before the disturb limit is crossed.
  for (Lbn lbn = 10000; lbn < 10008; ++lbn) {
    ASSERT_EQ(ssc.WriteDirty(lbn, lbn), Status::kOk);
  }
  EXPECT_GE(ssc.ftl_stats().patrol_repairs, 1u);
  // The relocated copy reads clean long past the original budget.
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(ssc.Read(0, &token), Status::kOk);
    EXPECT_EQ(token, 1u);
  }
}

TEST(FtlFaultTest, StaticWearLevelingMigratesOnItsWriteCadence) {
  SimClock clock;
  SscConfig config = FaultyConfig(FaultPlan{});
  config.wear_level_interval_writes = 8;
  config.wear_level_max_diff = 1;
  SscDevice ssc(config, &clock);
  // A dirty sentinel that must survive every background migration.
  ASSERT_EQ(ssc.WriteDirty(99999, 4242), Status::kOk);
  // Churn clean overwrites to drive GC and skew per-block wear.
  for (int round = 0; round < 10; ++round) {
    for (Lbn lbn = 0; lbn < 3000; ++lbn) {
      ASSERT_EQ(ssc.WriteClean(lbn, lbn + round), Status::kOk);
    }
  }
  EXPECT_GE(ssc.ftl_stats().wl_migrations, 1u);
  uint64_t token = 0;
  ASSERT_EQ(ssc.Read(99999, &token), Status::kOk);
  EXPECT_EQ(token, 4242u);
}

TEST(ManagerFaultTest, CapacityFloorTripsPermanentPassThrough) {
  SimClock clock;
  FaultPlan plan = EnabledPlan();
  plan.erase_fail_prob = 1.0;  // every erase retires its block
  SscDevice ssc(FaultyConfig(plan), &clock);
  DiskModel disk(DiskParams{}, &clock);
  WriteBackManager::Options opts;
  opts.min_usable_capacity_pct = 100;  // any retirement at all is below floor
  WriteBackManager manager(&ssc, &disk, opts);
  // Age the cache until the first retirement lands.
  Lbn lbn = 0;
  while (ssc.ftl_stats().retired_blocks == 0) {
    ASSERT_EQ(manager.Write(lbn, 700 + lbn), Status::kOk);
    ASSERT_LT(++lbn, 100000u);
  }
  // The next write observes the shrunken capacity and trips the floor.
  ASSERT_EQ(manager.Write(lbn, 700 + lbn), Status::kOk);
  EXPECT_TRUE(manager.degraded());
  EXPECT_GE(manager.stats().degraded_entries, 1u);
  EXPECT_GT(manager.stats().pass_through_writes, 0u);
  // Retirement is permanent, so unlike the probe-and-reengage trip, the
  // floor never clears: every later write passes through...
  const uint64_t before = manager.stats().pass_through_writes;
  for (Lbn i = 0; i < 300; ++i) {
    ASSERT_EQ(manager.Write(200000 + i, 900 + i), Status::kOk);
  }
  EXPECT_EQ(manager.stats().pass_through_writes, before + 300);
  EXPECT_TRUE(manager.degraded());
  // ...and reads still serve, correctly, from disk.
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(200000, &token), Status::kOk);
  EXPECT_EQ(token, 900u);
}

// ---- End-to-end: a faulty medium must never produce a stale read ----

class FaultSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultSweepTest, RandomWorkloadOnFaultyMediumNeverReadsStale) {
  SimClock clock;
  FaultPlan plan = EnabledPlan(GetParam());
  plan.program_fail_prob = 0.02;
  plan.erase_fail_prob = 0.05;
  plan.read_corrupt_prob = 0.01;
  SscDevice ssc(FaultyConfig(plan, ConsistencyMode::kFull), &clock);
  DiskModel disk(DiskParams{}, &clock);
  WriteBackManager manager(&ssc, &disk);

  Rng rng(GetParam() * 1000 + 7);
  std::unordered_map<Lbn, uint64_t> oracle;  // newest acked token per block
  std::unordered_set<Lbn> lost;  // blocks whose newest version was lost
  // Dirty data can also die during background cleaning (the write-back
  // manager reads the cached copy to flush it); those losses reach the host
  // through the SSC's loss notification, not a failed request.
  ssc.set_data_loss_hook([&oracle, &lost](Lbn lbn) {
    oracle.erase(lbn);
    lost.insert(lbn);
  });
  constexpr Lbn kSpan = 1200;
  for (uint64_t i = 0; i < 8000; ++i) {
    const Lbn lbn = rng.Below(kSpan);
    if (rng.Chance(0.5)) {
      const uint64_t token = (lbn << 20) ^ i;
      // A successful write re-arms checking — unless the hook re-inserts the
      // block mid-call (the write is acked, then the cleaning pass the same
      // call triggered loses it again; the hook's verdict is newer).
      lost.erase(lbn);
      const bool ok = IsOk(manager.Write(lbn, token));
      if (ok && lost.count(lbn) == 0) {
        oracle[lbn] = token;
      } else if (!ok) {
        oracle.erase(lbn);
        lost.insert(lbn);
      }
    } else {
      uint64_t token = 0;
      const Status s = manager.Read(lbn, &token);
      if (IsOk(s)) {
        // After a loss the disk legally holds some older version; the oracle
        // can only predict blocks whose newest write was acknowledged.
        if (lost.count(lbn) == 0) {
          const auto it = oracle.find(lbn);
          const uint64_t expect =
              it != oracle.end() ? it->second : DiskModel::OriginalToken(lbn);
          ASSERT_EQ(token, expect) << "STALE read of lbn " << lbn << " at op " << i;
        }
      } else if (s == Status::kIoError) {
        // An honest loss: the newest version is gone. Stop predicting this
        // block until the next acknowledged write.
        oracle.erase(lbn);
        lost.insert(lbn);
      } else {
        FAIL() << "read of lbn " << lbn << " returned unexpected status";
      }
    }
  }
  // The sweep only proves something if faults actually fired.
  const FaultStats& f = ssc.device().fault_stats();
  EXPECT_GT(f.program_failures + f.erase_failures + f.read_corruptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSweepTest, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace flashtier
