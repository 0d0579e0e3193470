// Tests for the FlashCheck library: the InvariantChecker must pass healthy
// devices, flag planted corruptions, and run from the SSC audit hook; the
// CrashExplorer must clear a real workload at every commit point and must
// detect a deliberately broken recovery path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/write_back.h"
#include "src/check/crash_explorer.h"
#include "src/check/invariant_checker.h"
#include "src/disk/disk_model.h"
#include "src/ssc/ssc_device.h"

namespace flashtier {

// Friend of the audited classes: plants one specific corruption per helper so
// the tests can assert the checker attributes it to the right invariant.
class CheckTestPeer {
 public:
  // Flips the packed dirty flag of one page-map entry, leaving the matching
  // OOB record (and the dirty-page counter) behind.
  static bool FlipPageMapDirtyBit(SscDevice& ssc) {
    Lbn victim = kInvalidLbn;
    ssc.page_map_.ForEach([&victim](Lbn lbn, uint64_t) { victim = lbn; });
    if (victim == kInvalidLbn) {
      return false;
    }
    uint64_t* packed = ssc.page_map_.Find(victim);
    *packed ^= 1u;
    return true;
  }

  static void SkewCachedPagesCounter(SscDevice& ssc) { ++ssc.cached_pages_; }

  // Swaps the LSNs of the first and last durable records.
  static bool BreakLsnOrder(PersistenceManager& pm) {
    if (pm.durable_log_.size() < 2) {
      return false;
    }
    std::swap(pm.durable_log_.front().lsn, pm.durable_log_.back().lsn);
    return true;
  }

  static void InsertDirtyTableEntry(WriteBackManager& manager, Lbn lbn) {
    manager.dirty_table_.Touch(lbn);
  }

  static void EraseDirtyTableEntry(WriteBackManager& manager, Lbn lbn) {
    manager.dirty_table_.Erase(lbn);
  }

  // Flips the KV flag of the entry for `key` in the live checkpoint, leaving
  // its segment CRC as written (one rotted bit in the level byte).
  static bool FlipCheckpointKvFlag(PersistenceManager& pm, Lbn key) {
    for (CheckpointSegment& seg : pm.regions_[pm.current_region_]) {
      for (CheckpointEntry& e : seg.entries) {
        if (e.key == key) {
          e.kv = !e.kv;
          return true;
        }
      }
    }
    return false;
  }

  static bool PageMapHas(const SscDevice& ssc, Lbn lbn) {
    return ssc.page_map_.Contains(lbn);
  }

  static uint32_t RecordCrc(const LogRecord& record) {
    return PersistenceManager::RecordCrc(record);
  }
  static uint32_t SegmentCrc(const CheckpointSegment& seg) {
    return PersistenceManager::SegmentCrc(seg);
  }
};

namespace {

SscConfig SmallConfig() {
  SscConfig config;
  config.capacity_pages = 512;
  config.group_commit_ops = 16;
  config.checkpoint_interval_writes = 300;
  return config;
}

bool HasInvariant(const CheckReport& report, const std::string& name) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&name](const InvariantViolation& v) { return v.invariant == name; });
}

// A mixed workload that exercises overwrites, cleans, evicts and enough
// pressure to run GC/merges.
void RunMixedWorkload(SscDevice& ssc, uint32_t ops) {
  for (uint32_t i = 0; i < ops; ++i) {
    const Lbn lbn = (i * 17) % 900;
    switch (i % 5) {
      case 0:
      case 1:
        ASSERT_EQ(ssc.WriteDirty(lbn, 1000 + i), Status::kOk);
        break;
      case 2:
        ASSERT_EQ(ssc.WriteClean(lbn, 1000 + i), Status::kOk);
        break;
      case 3:
        // Not-present is fine: the mix cleans blocks it never wrote.
        (void)ssc.Clean(lbn);
        break;
      default:
        ASSERT_EQ(ssc.Evict(lbn), Status::kOk);
        break;
    }
  }
}

TEST(InvariantCheckerTest, HealthyDevicePassesWithChecksRun) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  RunMixedWorkload(ssc, 800);
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 0u);
}

TEST(InvariantCheckerTest, HealthyDevicePassesAfterCrashRecovery) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  RunMixedWorkload(ssc, 800);
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InvariantCheckerTest, DetectsPageMapOobDisagreement) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (Lbn lbn = 0; lbn < 20; ++lbn) {
    ASSERT_EQ(ssc.WriteClean(lbn, 7000 + lbn), Status::kOk);
  }
  ASSERT_TRUE(CheckTestPeer::FlipPageMapDirtyBit(ssc));
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "page-map.oob-dirty")) << report.ToString();
}

TEST(InvariantCheckerTest, DetectsCachedPagesCounterSkew) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (Lbn lbn = 0; lbn < 20; ++lbn) {
    ASSERT_EQ(ssc.WriteDirty(lbn, 7000 + lbn), Status::kOk);
  }
  CheckTestPeer::SkewCachedPagesCounter(ssc);
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "counter.cached-pages")) << report.ToString();
}

TEST(InvariantCheckerTest, DetectsLsnOrderViolation) {
  SimClock clock;
  PersistenceManager::Options opts;
  PersistenceManager pm(opts, FlashTimings{}, &clock);
  for (int i = 0; i < 4; ++i) {
    LogRecord rec;
    rec.lsn = pm.NextLsn();
    rec.type = LogOpType::kInsertPage;
    rec.key = static_cast<Lbn>(i);
    pm.Append(rec, /*sync=*/true);
  }
  EXPECT_TRUE(InvariantChecker::CheckPersistence(pm).ok());
  ASSERT_TRUE(CheckTestPeer::BreakLsnOrder(pm));
  const CheckReport report = InvariantChecker::CheckPersistence(pm);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "persist.lsn-monotone")) << report.ToString();
}

TEST(InvariantCheckerTest, DetectsDirtyTableDisagreementBothWays) {
  SimClock clock;
  DiskModel disk(DiskParams{}, &clock);
  SscDevice ssc(SmallConfig(), &clock);
  WriteBackManager manager(&ssc, &disk);
  for (Lbn lbn = 0; lbn < 10; ++lbn) {
    ASSERT_EQ(manager.Write(lbn, 4000 + lbn), Status::kOk);
  }
  ASSERT_TRUE(InvariantChecker::Check(manager).ok());

  // A table entry for a block the SSC does not hold dirty...
  CheckTestPeer::InsertDirtyTableEntry(manager, 5000);
  CheckReport report = InvariantChecker::Check(manager);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "dirty-table.stale")) << report.ToString();
  CheckTestPeer::EraseDirtyTableEntry(manager, 5000);

  // ...and a dirty SSC block the table does not track.
  CheckTestPeer::EraseDirtyTableEntry(manager, 3);
  report = InvariantChecker::Check(manager);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "dirty-table.untracked")) << report.ToString();
}

TEST(InvariantCheckerTest, AuditHookFiresOnGcAndPasses) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  uint64_t audits = 0;
  ssc.set_audit_hook([&audits](const SscDevice& device) {
    ++audits;
    const CheckReport report = InvariantChecker::Check(device);
    ASSERT_TRUE(report.ok()) << report.ToString();
  });
  RunMixedWorkload(ssc, 1200);
  EXPECT_GT(ssc.ftl_stats().gc_invocations, 0u);
  EXPECT_GT(audits, 0u);
}

TEST(CheckpointCrcTest, RecordAndSegmentCrcsMatchGoldenValues) {
  // The CRCs are part of the simulated on-flash format: a change to a
  // constant here is a format change. The record and the non-KV segment
  // values were produced by the original byte-at-a-time CRC; the KV value
  // pins the flag's place in the level word (bit 1).
  LogRecord record;
  record.lsn = 1234567;
  record.type = LogOpType::kInsertBlock;
  record.key = 0x1f00;
  record.ppn = 0x3c40;
  record.present_bits = 0xffff0000ffff0000ull;
  record.dirty_bits = 0xffff0000ull;
  EXPECT_EQ(CheckTestPeer::RecordCrc(record), 0x59353db5u);

  CheckpointSegment seg;
  seg.generation = 7;
  seg.base_lsn = 1234567;
  CheckpointEntry block;
  block.block_level = true;
  block.key = 0x1f00;
  block.ppn = 0x3c40;
  block.present_bits = ~uint64_t{0};
  block.dirty_bits = 0x0f0f;
  CheckpointEntry dirty_page;
  dirty_page.key = 512;
  dirty_page.ppn = 9001;
  dirty_page.present_bits = 1;
  dirty_page.dirty_bits = 1;
  CheckpointEntry clean_page;
  clean_page.key = 513;
  clean_page.ppn = 9002;
  clean_page.present_bits = 1;
  seg.entries = {block, dirty_page, clean_page};
  EXPECT_EQ(CheckTestPeer::SegmentCrc(seg), 0xd4eaecc8u);

  seg.entries[2].kv = true;
  EXPECT_EQ(CheckTestPeer::SegmentCrc(seg), 0x6a86b06fu);
}

TEST(CheckpointCrcTest, FlippedKvFlagFallsBackInsteadOfReachingPageMap) {
  constexpr Lbn kKvKey = 1'000'000;  // an object key, far outside the LBN range
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  // Stands in for the KV layer: every checkpoint carries one slot entry.
  ssc.set_kv_snapshot_source([] {
    CheckpointEntry slot;
    slot.kv = true;
    slot.key = kKvKey;
    slot.ppn = 40;
    slot.present_bits = 0x1234;
    slot.dirty_bits = 9;
    return std::vector<CheckpointEntry>{slot};
  });
  PersistenceManager& pm = *ssc.persist_for_testing();
  for (Lbn lbn = 0; lbn < 20; ++lbn) {
    ASSERT_EQ(ssc.WriteDirty(lbn, 7000 + lbn), Status::kOk);
  }
  pm.ForceCheckpoint();
  for (Lbn lbn = 20; lbn < 40; ++lbn) {
    ASSERT_EQ(ssc.WriteDirty(lbn, 7000 + lbn), Status::kOk);
  }
  pm.ForceCheckpoint();

  ASSERT_TRUE(CheckTestPeer::FlipCheckpointKvFlag(pm, kKvKey));
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);

  // The segment fails its CRC and falls back to the previous generation,
  // whose copy of the slot entry still reaches the KV layer.
  EXPECT_EQ(ssc.persist_stats().segment_fallbacks, 1u);
  EXPECT_FALSE(CheckTestPeer::PageMapHas(ssc, kKvKey));
  const SscDevice::RecoveredKv kv = ssc.TakeRecoveredKv();
  ASSERT_EQ(kv.checkpoint.size(), 1u);
  EXPECT_EQ(kv.checkpoint[0].key, kKvKey);
  for (Lbn lbn = 0; lbn < 40; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(ssc.Read(lbn, &token), Status::kOk) << "lbn " << lbn;
    EXPECT_EQ(token, 7000 + lbn);
  }
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CrashExplorerTest, RealRecoveryClearsEveryCommitPoint) {
  CrashExplorerOptions options;
  options.ops = 400;
  CrashExplorer explorer(options);
  const CrashExplorerReport report = explorer.Explore();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GE(report.points_explored, 100u) << report.ToString();
}

TEST(CrashExplorerTest, DetectsRecoveryThatSkipsLogTail) {
  CrashExplorerOptions options;
  options.ops = 300;
  options.break_recovery = true;
  // Structural invariants still hold in the broken recovery (the state is
  // merely stale); the shadow model is what must catch it.
  options.run_invariant_checker = false;
  CrashExplorer explorer(options);
  const CrashExplorerReport report = explorer.Explore();
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.violation_count, 0u);
}

}  // namespace
}  // namespace flashtier
