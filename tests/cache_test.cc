// Tests for the cache managers: the dirty table, write-through and
// write-back FlashTier managers, and the FlashCache-style native manager.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/cache/dirty_table.h"
#include "src/cache/native.h"
#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

// ---- DirtyTable ----

TEST(DirtyTableTest, TouchInsertsAndRefreshesLru) {
  DirtyTable table(100);
  table.Touch(1);
  table.Touch(2);
  table.Touch(3);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.LruBlock(), 1u);
  table.Touch(1);  // refresh: 2 becomes LRU
  EXPECT_EQ(table.LruBlock(), 2u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(DirtyTableTest, EraseMaintainsLruChain) {
  DirtyTable table(100);
  for (Lbn i = 1; i <= 5; ++i) {
    table.Touch(i);
  }
  EXPECT_TRUE(table.Erase(1));  // erase the LRU itself
  EXPECT_EQ(table.LruBlock(), 2u);
  EXPECT_TRUE(table.Erase(4));  // erase from the middle
  EXPECT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.Erase(4));
  EXPECT_FALSE(table.Contains(4));
  EXPECT_TRUE(table.Contains(5));
  table.Erase(2);
  table.Erase(3);
  table.Erase(5);
  EXPECT_EQ(table.LruBlock(), kInvalidLbn);
}

TEST(DirtyTableTest, SlotReuseAfterErase) {
  DirtyTable table(4);
  for (Lbn i = 0; i < 100; ++i) {
    table.Touch(i);
    table.Erase(i);
  }
  EXPECT_EQ(table.size(), 0u);
  // Memory bounded by peak entries, not total inserts.
  EXPECT_LT(table.MemoryUsage(), 10'000u);
}

TEST(DirtyTableTest, ForEachVisitsAll) {
  DirtyTable table(100);
  for (Lbn i = 10; i < 20; ++i) {
    table.Touch(i);
  }
  std::unordered_map<Lbn, int> seen;
  table.ForEach([&seen](Lbn lbn) { ++seen[lbn]; });
  EXPECT_EQ(seen.size(), 10u);
}

TEST(DirtyTableTest, LruOrderUnderRandomOps) {
  DirtyTable table(512);
  std::vector<Lbn> order;  // LRU -> MRU reference
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const Lbn lbn = rng.Below(300);
    if (rng.Chance(0.7)) {
      table.Touch(lbn);
      auto it = std::find(order.begin(), order.end(), lbn);
      if (it != order.end()) {
        order.erase(it);
      }
      order.push_back(lbn);
    } else {
      const bool erased = table.Erase(lbn);
      auto it = std::find(order.begin(), order.end(), lbn);
      EXPECT_EQ(erased, it != order.end());
      if (it != order.end()) {
        order.erase(it);
      }
    }
    ASSERT_EQ(table.size(), order.size());
    ASSERT_EQ(table.LruBlock(), order.empty() ? kInvalidLbn : order.front());
  }
}

// ---- Shared fixtures ----

struct SscRig {
  SscRig(EvictionPolicy policy = EvictionPolicy::kSeUtil) : disk(DiskParams{}, &clock) {
    SscConfig config;
    config.capacity_pages = 2048;
    config.policy = policy;
    config.geometry.planes = 4;
    ssc = std::make_unique<SscDevice>(config, &clock);
  }
  SimClock clock;
  DiskModel disk;
  std::unique_ptr<SscDevice> ssc;
};

// ---- WriteThroughManager ----

TEST(WriteThroughTest, ReadMissFetchesFromDiskAndPopulates) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk);
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(50, &token), Status::kOk);
  EXPECT_EQ(token, DiskModel::OriginalToken(50));
  EXPECT_EQ(manager.stats().read_misses, 1u);
  // Second read hits the cache, no disk access.
  const uint64_t disk_reads = rig.disk.stats().reads;
  ASSERT_EQ(manager.Read(50, &token), Status::kOk);
  EXPECT_EQ(manager.stats().read_hits, 1u);
  EXPECT_EQ(rig.disk.stats().reads, disk_reads);
}

TEST(WriteThroughTest, WritesGoToBothDiskAndCache) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk);
  ASSERT_EQ(manager.Write(10, 0xdead), Status::kOk);
  EXPECT_EQ(rig.disk.stats().writes, 1u);
  uint64_t token = 0;
  ASSERT_EQ(rig.ssc->Read(10, &token), Status::kOk);  // in cache
  EXPECT_EQ(token, 0xdeadu);
  uint64_t disk_token = 0;
  ASSERT_EQ(rig.disk.Read(10, &disk_token), Status::kOk);  // and on disk
  EXPECT_EQ(disk_token, 0xdeadu);
}

TEST(WriteThroughTest, AllCachedDataIsClean) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk);
  for (Lbn i = 0; i < 100; ++i) {
    ASSERT_EQ(manager.Write(i, i), Status::kOk);
  }
  EXPECT_EQ(rig.ssc->dirty_pages(), 0u);
  EXPECT_EQ(manager.HostMemoryUsage(), 0u);  // no per-block host state
}

TEST(WriteThroughTest, CacheUsableImmediatelyAfterCrash) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk);
  for (Lbn i = 0; i < 200; ++i) {
    ASSERT_EQ(manager.Write(i, i + 1), Status::kOk);
  }
  rig.ssc->SimulateCrash();
  ASSERT_EQ(rig.ssc->Recover(), Status::kOk);
  // No manager recovery step at all; reads are correct (hit or refetch).
  for (Lbn i = 0; i < 200; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(manager.Read(i, &token), Status::kOk);
    EXPECT_EQ(token, i + 1);
  }
}

// ---- WriteBackManager ----

TEST(WriteBackTest, WritesGoOnlyToCacheUntilCleaning) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk);
  ASSERT_EQ(manager.Write(5, 0xabc), Status::kOk);
  EXPECT_EQ(rig.disk.stats().writes, 0u);
  EXPECT_EQ(manager.dirty_blocks(), 1u);
  EXPECT_EQ(rig.ssc->dirty_pages(), 1u);
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(5, &token), Status::kOk);
  EXPECT_EQ(token, 0xabcu);
}

TEST(WriteBackTest, ExceedingDirtyThresholdTriggersCleaning) {
  SscRig rig;
  WriteBackManager::Options opts;
  opts.dirty_threshold = 0.05;  // 102 blocks
  WriteBackManager manager(rig.ssc.get(), &rig.disk, opts);
  for (Lbn i = 0; i < 200; ++i) {
    ASSERT_EQ(manager.Write(i * 97, i), Status::kOk);
  }
  EXPECT_GT(manager.stats().cleans, 0u);
  EXPECT_GT(rig.disk.stats().writes, 0u);
  EXPECT_LE(manager.dirty_blocks(), 103u);
  // Cleaned blocks remain readable from the cache.
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(0, &token), Status::kOk);
  EXPECT_EQ(token, 0u);
}

TEST(WriteBackTest, ContiguousDirtyBlocksCleanedAsOneDiskWrite) {
  SscRig rig;
  WriteBackManager::Options opts;
  opts.dirty_threshold = 0.05;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, opts);
  // Dirty runs of 16 contiguous blocks.
  for (Lbn base = 0; base < 200 * 16; base += 16) {
    for (Lbn i = 0; i < 16; ++i) {
      ASSERT_EQ(manager.Write(base + i, base + i), Status::kOk);
    }
  }
  ASSERT_GT(manager.stats().writebacks, 0u);
  // Coalescing: far fewer disk writes than blocks written back.
  EXPECT_LT(rig.disk.stats().writes * 4, manager.stats().writebacks);
}

TEST(WriteBackTest, FlushAllWritesEverythingToDisk) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk);
  for (Lbn i = 0; i < 50; ++i) {
    ASSERT_EQ(manager.Write(i, i + 100), Status::kOk);
  }
  ASSERT_EQ(manager.FlushAll(), Status::kOk);
  EXPECT_EQ(manager.dirty_blocks(), 0u);
  EXPECT_EQ(rig.ssc->dirty_pages(), 0u);
  for (Lbn i = 0; i < 50; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(rig.disk.Read(i, &token), Status::kOk);
    EXPECT_EQ(token, i + 100);
  }
}

TEST(WriteBackTest, RecoverDirtyTableRebuildsFromSsc) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk);
  for (Lbn i = 0; i < 60; ++i) {
    ASSERT_EQ(manager.Write(i * 3, i), Status::kOk);
  }
  const uint64_t dirty_before = manager.dirty_blocks();
  rig.ssc->SimulateCrash();
  ASSERT_EQ(rig.ssc->Recover(), Status::kOk);
  WriteBackManager fresh(rig.ssc.get(), &rig.disk);
  fresh.RecoverDirtyTable();
  EXPECT_EQ(fresh.dirty_blocks(), dirty_before);
  // The recovered manager can clean everything.
  ASSERT_EQ(fresh.FlushAll(), Status::kOk);
  EXPECT_EQ(rig.ssc->dirty_pages(), 0u);
}

TEST(WriteBackTest, HostMemoryTracksOnlyDirtyBlocks) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk);
  // Clean traffic (read misses) costs no manager memory growth beyond the
  // preallocated table.
  const size_t before = manager.HostMemoryUsage();
  for (Lbn i = 1000; i < 1400; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(manager.Read(i, &token), Status::kOk);
  }
  EXPECT_EQ(manager.HostMemoryUsage(), before);
  EXPECT_EQ(manager.dirty_blocks(), 0u);
}

// ---- NativeCacheManager ----

SsdFtl::Options NativeSsdOptions() {
  SsdFtl::Options o;
  o.geometry.planes = 4;
  return o;
}

struct NativeRig {
  explicit NativeRig(NativeCacheManager::Options opts = {}, uint64_t cache_pages = 2048,
                     const SsdFtl::Options& ssd_opts = NativeSsdOptions())
      : disk(DiskParams{}, &clock) {
    ssd = std::make_unique<SsdFtl>(cache_pages + NativeCacheManager::kMetadataRegionPages,
                                   &clock, ssd_opts);
    manager = std::make_unique<NativeCacheManager>(ssd.get(), &disk, cache_pages, opts);
  }
  SimClock clock;
  DiskModel disk;
  std::unique_ptr<SsdFtl> ssd;
  std::unique_ptr<NativeCacheManager> manager;
};

TEST(NativeManagerTest, ReadMissPopulatesAndHits) {
  NativeRig rig;
  uint64_t token = 0;
  ASSERT_EQ(rig.manager->Read(123456, &token), Status::kOk);
  EXPECT_EQ(token, DiskModel::OriginalToken(123456));
  EXPECT_EQ(rig.manager->cached_blocks(), 1u);
  const uint64_t disk_reads = rig.disk.stats().reads;
  ASSERT_EQ(rig.manager->Read(123456, &token), Status::kOk);
  EXPECT_EQ(rig.disk.stats().reads, disk_reads);  // cache hit
  EXPECT_EQ(rig.manager->stats().read_hits, 1u);
}

TEST(NativeManagerTest, WriteBackHoldsDirtyDataOffDisk) {
  NativeRig rig;
  ASSERT_EQ(rig.manager->Write(7, 0x77), Status::kOk);
  EXPECT_EQ(rig.disk.stats().writes, 0u);
  EXPECT_EQ(rig.manager->dirty_blocks(), 1u);
  uint64_t token = 0;
  ASSERT_EQ(rig.manager->Read(7, &token), Status::kOk);
  EXPECT_EQ(token, 0x77u);
}

TEST(NativeManagerTest, WriteThroughWritesDiskImmediately) {
  NativeCacheManager::Options opts;
  opts.mode = NativeCacheManager::Mode::kWriteThrough;
  NativeRig rig(opts);
  ASSERT_EQ(rig.manager->Write(7, 0x77), Status::kOk);
  EXPECT_EQ(rig.disk.stats().writes, 1u);
  EXPECT_EQ(rig.manager->dirty_blocks(), 0u);
}

TEST(NativeManagerTest, LruEvictionWritesBackDirtyVictims) {
  // A tiny cache forced into eviction.
  NativeCacheManager::Options opts;
  opts.associativity = 64;
  NativeRig rig(opts, /*cache_pages=*/256);
  for (Lbn i = 0; i < 2000; ++i) {
    ASSERT_EQ(rig.manager->Write(i, i), Status::kOk);
  }
  EXPECT_GT(rig.manager->stats().evicts, 0u);
  EXPECT_LE(rig.manager->cached_blocks(), 256u);
  // Every value is durable somewhere: either cached or written back.
  for (Lbn i = 0; i < 2000; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(rig.manager->Read(i, &token), Status::kOk);
    ASSERT_EQ(token, i) << i;
  }
}

TEST(NativeManagerTest, MetadataWritesOnlyInPersistentWriteBack) {
  NativeCacheManager::Options persist_opts;
  persist_opts.metadata_batch = 1;
  NativeRig with_persist(persist_opts);
  for (Lbn i = 0; i < 100; ++i) {
    ASSERT_EQ(with_persist.manager->Write(i, i), Status::kOk);
  }
  EXPECT_GT(with_persist.manager->stats().metadata_writes, 0u);

  NativeCacheManager::Options no_persist_opts;
  no_persist_opts.persist_metadata = false;
  NativeRig without(no_persist_opts);
  for (Lbn i = 0; i < 100; ++i) {
    ASSERT_EQ(without.manager->Write(i, i), Status::kOk);
  }
  EXPECT_EQ(without.manager->stats().metadata_writes, 0u);
}

TEST(NativeManagerTest, HostMemoryIs22BytesPerSlot) {
  NativeRig rig;
  // The paper's Table 4: 22 B/block of host state for every cached block.
  // Slots are preallocated for the whole cache (set-associative table).
  EXPECT_GE(rig.manager->HostMemoryUsage(), 2048u * 22u);
  EXPECT_LE(rig.manager->HostMemoryUsage(), 2048u * 28u);  // padding allowance
}

TEST(NativeManagerTest, HostMemoryIsExactly24BytesPerSlot) {
  NativeRig rig;
  // 16 B of slot metadata plus the slot's 8 B LBN, for all 2048 preallocated
  // slots, plus the three 16-bit per-set fields (MRU, LRU, dirty count) of
  // the 8 sets of 256 ways.
  EXPECT_EQ(rig.manager->HostMemoryUsage(), 2048u * 24u + 8u * 3u * sizeof(uint16_t));
}

// A slot freed by eviction, by an uncorrectable flash read or by a failed
// SSD write must stop answering for its old LBN: the next read misses and
// returns the disk's copy instead of reading the freed SSD page.
TEST(NativeManagerTest, FreedSlotNeverMatchesItsOldLbn) {
  NativeCacheManager::Options opts;
  opts.persist_metadata = false;  // keep the SSD's program ordinals host-only
  const auto expect_miss = [](NativeRig& rig, Lbn lbn, uint64_t want) {
    const ManagerStats before = rig.manager->stats();
    uint64_t token = 0;
    ASSERT_EQ(rig.manager->Read(lbn, &token), Status::kOk);
    EXPECT_EQ(token, want);
    EXPECT_EQ(rig.manager->stats().read_misses, before.read_misses + 1);
    EXPECT_EQ(rig.manager->stats().read_hits, before.read_hits);
  };

  {
    // LRU eviction: one 4-way set, write-through so the disk holds each token.
    NativeCacheManager::Options wt = opts;
    wt.mode = NativeCacheManager::Mode::kWriteThrough;
    wt.associativity = 4;
    NativeRig rig(wt, /*cache_pages=*/4);
    for (Lbn lbn = 100; lbn < 105; ++lbn) {
      ASSERT_EQ(rig.manager->Write(lbn, lbn + 7000), Status::kOk);
    }
    EXPECT_EQ(rig.manager->stats().evicts, 1u);
    EXPECT_EQ(rig.manager->cached_blocks(), 4u);
    expect_miss(rig, 100, 7100);
  }
  {
    // Uncorrectable flash read of a dirty block: the data is lost and the
    // slot dropped; the disk still holds the block's original content.
    SsdFtl::Options ssd_opts = NativeSsdOptions();
    ssd_opts.fault_plan.enabled = true;
    ssd_opts.fault_plan.read_corrupt_at = {1};
    NativeRig rig(opts, 2048, ssd_opts);
    ASSERT_EQ(rig.manager->Write(200, 0x200), Status::kOk);
    uint64_t token = 0;
    EXPECT_EQ(rig.manager->Read(200, &token), Status::kIoError);
    EXPECT_EQ(rig.manager->stats().lost_dirty, 1u);
    EXPECT_EQ(rig.manager->cached_blocks(), 0u);
    expect_miss(rig, 200, DiskModel::OriginalToken(200));
  }
  {
    // Failed SSD write of a cached block: the first write lands, the
    // overwrite fails its program and every FTL retry, so the block is
    // uncached and its new token written around to the disk.
    SsdFtl::Options ssd_opts = NativeSsdOptions();
    ssd_opts.fault_plan.enabled = true;
    ssd_opts.fault_plan.program_fail_at = {2, 3, 4, 5, 6};
    NativeRig rig(opts, 2048, ssd_opts);
    ASSERT_EQ(rig.manager->Write(300, 0x300), Status::kOk);
    ASSERT_EQ(rig.manager->Write(300, 0x301), Status::kOk);
    EXPECT_EQ(rig.manager->stats().pass_through_writes, 1u);
    EXPECT_EQ(rig.manager->cached_blocks(), 0u);
    EXPECT_EQ(rig.manager->dirty_blocks(), 0u);
    expect_miss(rig, 300, 0x301);
  }
}

TEST(NativeManagerTest, RejectsTheFreeSlotMarkerAsAnLbn) {
  NativeRig rig;
  uint64_t token = 0;
  EXPECT_EQ(rig.manager->Read(kInvalidLbn, &token), Status::kInvalidArgument);
  EXPECT_EQ(rig.manager->Write(kInvalidLbn, 1), Status::kInvalidArgument);
  EXPECT_EQ(rig.manager->cached_blocks(), 0u);
  EXPECT_EQ(rig.disk.stats().reads + rig.disk.stats().writes, 0u);
}

TEST(NativeManagerTest, FlushAllCleansEverything) {
  NativeRig rig;
  for (Lbn i = 0; i < 300; ++i) {
    ASSERT_EQ(rig.manager->Write(i * 11, i), Status::kOk);
  }
  ASSERT_EQ(rig.manager->FlushAll(), Status::kOk);
  EXPECT_EQ(rig.manager->dirty_blocks(), 0u);
  for (Lbn i = 0; i < 300; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(rig.disk.Read(i * 11, &token), Status::kOk);
    EXPECT_EQ(token, i);
  }
}

TEST(NativeManagerTest, RecoveryEstimateGrowsWithCacheUse) {
  NativeRig rig;
  const uint64_t empty = rig.manager->RecoveryEstimateUs();
  for (Lbn i = 0; i < 1500; ++i) {
    ASSERT_EQ(rig.manager->Write(i, i), Status::kOk);
  }
  EXPECT_GT(rig.manager->RecoveryEstimateUs(), empty);
}

TEST(NativeManagerTest, MixedWorkloadNeverReturnsStaleData) {
  NativeCacheManager::Options opts;
  opts.associativity = 64;
  NativeRig rig(opts, /*cache_pages=*/512);
  Rng rng(17);
  std::unordered_map<Lbn, uint64_t> oracle;
  for (uint64_t i = 0; i < 20'000; ++i) {
    const Lbn lbn = rng.Below(2000);
    if (rng.Chance(0.5)) {
      ASSERT_EQ(rig.manager->Write(lbn, i), Status::kOk);
      oracle[lbn] = i;
    } else {
      uint64_t token = 0;
      ASSERT_EQ(rig.manager->Read(lbn, &token), Status::kOk);
      const auto it = oracle.find(lbn);
      const uint64_t expected =
          it != oracle.end() ? it->second : DiskModel::OriginalToken(lbn);
      ASSERT_EQ(token, expected) << "lbn " << lbn << " op " << i;
    }
  }
}

}  // namespace
}  // namespace flashtier
