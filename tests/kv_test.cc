// Tests for the KV layer (DESIGN.md §5k): slab packing, eviction,
// compaction, deletes, the admission-policy interaction, and crash recovery
// of the slab directory.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/check/runner.h"
#include "src/kv/kv_cache.h"
#include "src/kv/kv_replay.h"
#include "src/trace/workload.h"
#include "src/util/rng.h"
#include "tests/stats_printer.h"

namespace flashtier {
namespace {

KvCacheConfig SmallConfig(bool packing = true) {
  KvCacheConfig c;
  c.ssc.capacity_pages = 2048;  // 32 erase blocks
  c.ssc.geometry.planes = 4;
  c.ssc.group_commit_ops = 64;
  c.packing = packing;
  return c;
}

uint64_t MustGet(KvShard& shard, uint64_t key) {
  uint64_t token = 0;
  EXPECT_EQ(shard.Get(key, &token), Status::kOk) << "key " << key;
  return token;
}

// ---- Packing ----

TEST(KvPackingTest, SetThenGetFromOpenSlab) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(1, 101, 100, /*dirty=*/false), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(cache.Get(1, &token), Status::kOk);
  EXPECT_EQ(token, 101u);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.open_slab_hits, 1u);
  EXPECT_EQ(s.slab_fills, 0u);  // nothing sealed yet
}

TEST(KvPackingTest, ManySmallObjectsShareOneSlabPage) {
  KvCache cache(SmallConfig());
  // 30 x (64 B + 24 B header, 8-aligned) = 2640 B: one 4 KB slab holds all.
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_EQ(cache.Set(k, k + 100, 64, false), Status::kOk);
  }
  ASSERT_EQ(cache.Flush(), Status::kOk);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.slab_fills, 1u);
  EXPECT_EQ(s.slab_page_writes, 1u);
  for (uint64_t k = 0; k < 30; ++k) {
    EXPECT_EQ(MustGet(cache.shard(0), k), k + 100);
  }
  // All 30 now served from flash, not the open slab.
  EXPECT_EQ(cache.AggregateStats().open_slab_hits, 0u);
}

TEST(KvPackingTest, NaiveModeWritesOnePagePerObject) {
  KvCache cache(SmallConfig(/*packing=*/false));
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, false), Status::kOk);
  }
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.slab_fills, 30u);
  EXPECT_EQ(s.slab_page_writes, 30u);
}

TEST(KvPackingTest, PackingCutsFlashWritesAtLeastThreefold) {
  // The acceptance-criteria ratio on a kv-zipf workload, in miniature.
  KvWorkloadProfile profile;
  profile.unique_keys = 2'000;
  profile.total_ops = 20'000;
  profile.max_size = 1024;
  KvReplayEngine::Options opts;

  KvCache packed(SmallConfig(/*packing=*/true));
  KvZipfWorkload trace1(profile);
  KvReplayEngine engine1(&packed, opts);
  const KvReplayMetrics packed_m = engine1.Run(trace1);

  KvCache naive(SmallConfig(/*packing=*/false));
  KvZipfWorkload trace2(profile);
  KvReplayEngine engine2(&naive, opts);
  const KvReplayMetrics naive_m = engine2.Run(trace2);

  ASSERT_GT(packed_m.flash_writes_per_set, 0.0);
  EXPECT_GE(naive_m.flash_writes_per_set / packed_m.flash_writes_per_set, 3.0)
      << "naive " << naive_m.flash_writes_per_set << " packed " << packed_m.flash_writes_per_set;
}

TEST(KvPackingTest, OversizedAndUndersizedObjectsRejected) {
  KvCache cache(SmallConfig());
  EXPECT_EQ(cache.Set(1, 1, kKvMinObjectBytes - 1, false), Status::kInvalidArgument);
  EXPECT_EQ(cache.Set(1, 1, kKvMaxObjectBytes + 1, false), Status::kInvalidArgument);
  // A max-size object plus its header exceeds a one-page slab.
  EXPECT_EQ(cache.Set(1, 1, kKvMaxObjectBytes, false), Status::kInvalidArgument);
  KvCacheConfig wide = SmallConfig();
  wide.slab_pages = 2;
  KvCache cache2(wide);
  EXPECT_EQ(cache2.Set(1, 1, kKvMaxObjectBytes, false), Status::kOk);
}

// ---- Overwrites and deletes ----

TEST(KvDeleteTest, DeleteRemovesAndCountsMisses) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(7, 70, 128, false), Status::kOk);
  ASSERT_EQ(cache.Delete(7), Status::kOk);
  uint64_t token = 0;
  EXPECT_EQ(cache.Get(7, &token), Status::kNotPresent);
  EXPECT_EQ(cache.Delete(7), Status::kNotPresent);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.deletes, 2u);
  EXPECT_EQ(s.delete_misses, 1u);
}

TEST(KvDeleteTest, OverwriteServesNewestVersion) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(7, 70, 128, false), Status::kOk);
  ASSERT_EQ(cache.Flush(), Status::kOk);  // old version sealed to flash
  ASSERT_EQ(cache.Set(7, 71, 256, false), Status::kOk);
  EXPECT_EQ(MustGet(cache.shard(0), 7), 71u);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.overwrites, 1u);
}

TEST(KvDeleteTest, FullyDeadSealedSlabIsReclaimed) {
  KvCache cache(SmallConfig());
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, false), Status::kOk);
  }
  ASSERT_EQ(cache.Flush(), Status::kOk);
  ASSERT_EQ(cache.shard(0).slabs().size(), 1u);
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_EQ(cache.Delete(k), Status::kOk);
  }
  EXPECT_EQ(cache.shard(0).slabs().size(), 0u);
  EXPECT_EQ(cache.AggregateStats().dead_slab_reclaims, 1u);
  EXPECT_EQ(cache.shard(0).ssc().cached_pages(), 0u);
}

TEST(KvDeleteTest, DirtySlabCleanedWhenLastDirtyObjectDies) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(1, 10, 64, /*dirty=*/true), Status::kOk);
  ASSERT_EQ(cache.Set(2, 20, 64, /*dirty=*/false), Status::kOk);
  ASSERT_EQ(cache.Flush(), Status::kOk);
  EXPECT_EQ(cache.shard(0).ssc().dirty_pages(), 1u);
  ASSERT_EQ(cache.Delete(1), Status::kOk);
  // The slab's last dirty object is gone: pages handed to silent eviction.
  EXPECT_EQ(cache.AggregateStats().slab_cleans, 1u);
  EXPECT_EQ(cache.shard(0).ssc().dirty_pages(), 0u);
  EXPECT_EQ(MustGet(cache.shard(0), 2), 20u);
}

// ---- Compaction ----

TEST(KvCompactionTest, DeadSlotsAreCompactedAway) {
  KvCacheConfig config = SmallConfig();
  config.compact_min_sealed_slabs = 2;
  config.compact_dead_ratio = 0.30;
  KvCache cache(config);
  // Fill several slabs, then kill most objects so dead bytes dominate.
  for (uint64_t k = 0; k < 120; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, false), Status::kOk);
  }
  ASSERT_EQ(cache.Flush(), Status::kOk);
  for (uint64_t k = 0; k < 120; ++k) {
    if (k % 4 != 0) {
      ASSERT_EQ(cache.Delete(k), Status::kOk);
    }
  }
  // Compaction triggers on the next seal; push more data through.
  for (uint64_t k = 1000; k < 1120; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, false), Status::kOk);
  }
  ASSERT_EQ(cache.Flush(), Status::kOk);
  const KvStats s = cache.AggregateStats();
  EXPECT_GT(s.compactions, 0u);
  EXPECT_GT(s.slots_reclaimed, 0u);
  // Every surviving object still readable after its slab moved.
  for (uint64_t k = 0; k < 120; k += 4) {
    EXPECT_EQ(MustGet(cache.shard(0), k), k);
  }
}

TEST(KvCompactionTest, EqualDeadBytesCompactTheOlderSlab) {
  KvCacheConfig config = SmallConfig();
  config.compact_min_sealed_slabs = 2;
  config.compact_dead_ratio = 0.30;
  KvCache cache(config);
  KvShard& shard = cache.shard(0);
  // 1000 B objects take 1024 B slots: four fill a 4 KB slab exactly, so keys
  // 4k..4k+3 land in slab k and the next Set seals it.
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_EQ(cache.Set(k, k, 1000, false), Status::kOk);
  }
  ASSERT_EQ(cache.Set(8, 8, 1000, false), Status::kOk);  // seals slab 1
  EXPECT_EQ(cache.AggregateStats().compactions, 0u);
  // Slabs 0 and 1 each lose two slots: 2048 dead bytes apiece.
  for (uint64_t k : {0, 1, 4, 5}) {
    ASSERT_EQ(cache.Delete(k), Status::kOk);
  }
  for (uint64_t k = 9; k < 12; ++k) {
    ASSERT_EQ(cache.Set(k, k, 1000, false), Status::kOk);
  }
  // Sealing slab 2 makes dead bytes 4096 of 12288 (> 30%): one compaction,
  // and of the two equally dead slabs the older one goes.
  ASSERT_EQ(cache.Set(12, 12, 1000, false), Status::kOk);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.compactions, 1u);
  EXPECT_EQ(s.slots_moved, 2u);
  EXPECT_EQ(s.slots_reclaimed, 2u);
  EXPECT_EQ(shard.slabs().count(0), 0u);
  EXPECT_EQ(shard.slabs().count(1), 1u);
  for (uint64_t k : {2, 3, 6, 7, 8, 9, 10, 11, 12}) {
    EXPECT_EQ(MustGet(shard, k), k);
  }
}

struct MixedCompactionRun {
  KvStats stats;
  std::vector<uint64_t> slab_seqs;  // final slab directory, ascending
};

// A seeded mix of clean and dirty Sets, overwrites, Gets and Deletes with
// eager compaction (a compaction on about half the seals), crashed and
// recovered once midway.
MixedCompactionRun RunMixedCompaction(uint32_t slab_pages) {
  KvCacheConfig config = SmallConfig();
  config.slab_pages = slab_pages;
  config.compact_min_sealed_slabs = 2;
  config.compact_dead_ratio = 0.30;
  KvCache cache(config);
  Rng rng(2024);
  for (uint64_t i = 0; i < 4000; ++i) {
    if (i == 2000) {
      cache.SimulateCrash();
      EXPECT_EQ(cache.Recover(), Status::kOk);
    }
    const uint64_t key = rng.Below(1200);
    const uint64_t pick = rng.Below(10);
    if (pick < 5) {
      const auto size = static_cast<uint32_t>(64 + 16 * rng.Below(60));
      EXPECT_EQ(cache.Set(key, i, size, rng.Chance(0.3)), Status::kOk) << "op " << i;
    } else if (pick < 8) {
      uint64_t token = 0;
      const Status st = cache.Get(key, &token);
      EXPECT_TRUE(st == Status::kOk || st == Status::kNotPresent) << "op " << i;
    } else {
      const Status st = cache.Delete(key);
      EXPECT_TRUE(st == Status::kOk || st == Status::kNotPresent) << "op " << i;
    }
  }
  const CheckReport audit = InvariantChecker::CheckKv(cache);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  MixedCompactionRun run;
  run.stats = cache.AggregateStats();
  for (const auto& entry : cache.shard(0).slabs()) {
    run.slab_seqs.push_back(entry.first);
  }
  return run;
}

TEST(KvCompactionTest, MixedRunWithCrashPinnedOneSlabPage) {
  const MixedCompactionRun run = RunMixedCompaction(1);
  EXPECT_EQ(run.stats, (KvStats{.gets = 1207,
                                .hits = 511,
                                .open_slab_hits = 5,
                                .misses = 696,
                                .sets = 1972,
                                .set_bytes = 1042288,
                                .overwrites = 850,
                                .deletes = 821,
                                .delete_misses = 460,
                                .slab_fills = 349,
                                .slab_page_writes = 349,
                                .compactions = 182,
                                .slots_moved = 459,
                                .slots_reclaimed = 809,
                                .dead_slab_reclaims = 5,
                                .slab_cleans = 95,
                                .recoveries = 1,
                                .recovered_slots = 584,
                                .restaged_dirty_slots = 1,
                                .dropped_clean_slots = 4}));
  const std::vector<uint64_t> seqs = {
      5,   49,  52,  53,  63,  64,  66,  67,  74,  80,  95,  97,  99,  101, 109, 116, 120,
      124, 128, 130, 136, 137, 138, 140, 146, 160, 161, 164, 166, 168, 172, 177, 183, 187,
      188, 189, 195, 201, 202, 204, 205, 206, 210, 212, 213, 217, 218, 220, 221, 222, 224,
      226, 228, 230, 232, 233, 236, 237, 238, 240, 241, 242, 244, 245, 246, 247, 248, 249,
      250, 252, 253, 255, 256, 257, 258, 259, 260, 261, 262, 263, 264, 265, 267, 268, 269,
      270, 271, 272, 273, 274, 275, 276, 277, 278, 279, 280, 282, 283, 285, 287, 288, 289,
      290, 291, 292, 293, 294, 295, 296, 297, 298, 299, 300, 301, 302, 303, 304, 305, 306,
      307, 308, 309, 310, 311, 312, 313, 314, 315, 316, 317, 318, 319, 320, 321, 322, 323,
      324, 325, 326, 327, 328, 329, 330, 331, 332, 333, 334, 335, 336, 337, 338, 339, 340,
      341, 342, 343, 344, 345, 346, 347, 348, 349, 350};
  EXPECT_EQ(run.slab_seqs, seqs);
}

TEST(KvCompactionTest, MixedRunWithCrashPinnedFourSlabPages) {
  const MixedCompactionRun run = RunMixedCompaction(4);
  EXPECT_EQ(run.stats, (KvStats{.gets = 1207,
                                .hits = 505,
                                .open_slab_hits = 14,
                                .misses = 702,
                                .sets = 1972,
                                .set_bytes = 1042288,
                                .overwrites = 845,
                                .deletes = 821,
                                .delete_misses = 466,
                                .slab_fills = 89,
                                .slab_page_writes = 356,
                                .compactions = 53,
                                .slots_moved = 657,
                                .slots_reclaimed = 883,
                                .slab_cleans = 4,
                                .recoveries = 1,
                                .recovered_slots = 561,
                                .restaged_dirty_slots = 8,
                                .dropped_clean_slots = 20}));
  const std::vector<uint64_t> seqs = {33, 41, 51, 52, 54, 56, 58, 60, 62, 63, 64, 65, 66,
                                      67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79,
                                      80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90};
  EXPECT_EQ(run.slab_seqs, seqs);
}

// ---- Capacity eviction and lazy drops ----

TEST(KvEvictionTest, CleanSlabsEvictUnderPressureAndGetsMiss) {
  KvCacheConfig config = SmallConfig();
  config.ssc.capacity_pages = 256;  // 4 erase blocks (+ FTL spare) per shard
  KvCache cache(config);
  // 512 B objects pack 7 to a page, so 8000 sets span ~1145 slab pages —
  // well past the device's physical block count; something must give way.
  uint64_t refused = 0;
  for (uint64_t k = 0; k < 8000; ++k) {
    const Status st = cache.Set(k, k, 512, false);
    if (st == Status::kNoSpace) {
      ++refused;
      continue;
    }
    ASSERT_EQ(st, Status::kOk);
  }
  // Clean data is always evictable, so the writer never sees kNoSpace.
  EXPECT_EQ(refused, 0u);
  // Evicted keys miss, surviving keys hit — never an error. Reading every
  // key also forces SSC-side silent evictions to surface as lazy drops.
  uint64_t token = 0;
  for (uint64_t k = 0; k < 8000; ++k) {
    const Status st = cache.Get(k, &token);
    ASSERT_TRUE(st == Status::kOk || st == Status::kNotPresent);
  }
  // Room was made either by explicit clean-slab eviction (writer saw the
  // device full) or by SSC silent eviction (reader saw the hole).
  const KvStats s = cache.AggregateStats();
  EXPECT_GT(s.slab_evictions + s.lazy_slab_drops, 0u);
  EXPECT_GT(s.misses, 0u);
  const CheckReport audit = InvariantChecker::CheckKv(cache);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(KvEvictionTest, AllDirtyCacheRefusesSetsHonestly) {
  KvCacheConfig config = SmallConfig();
  config.ssc.capacity_pages = 256;
  KvCache cache(config);
  bool saw_refusal = false;
  for (uint64_t k = 0; k < 8000; ++k) {
    const Status st = cache.Set(k, k, 512, /*dirty=*/true);
    if (st == Status::kNoSpace) {
      saw_refusal = true;
      break;
    }
    ASSERT_EQ(st, Status::kOk);
  }
  EXPECT_TRUE(saw_refusal);
  EXPECT_GT(cache.AggregateStats().sets_refused_full, 0u);
}

// ---- Admission policy interaction ----

TEST(KvPolicyTest, GhostLruAdmitsOnSecondSet) {
  KvCacheConfig config = SmallConfig();
  config.admission.kind = AdmissionKind::kGhostLru;
  KvCache cache(config);
  ASSERT_EQ(cache.Set(5, 50, 128, false), Status::kOk);  // first touch: rejected
  uint64_t token = 0;
  EXPECT_EQ(cache.Get(5, &token), Status::kNotPresent);
  ASSERT_EQ(cache.Set(5, 51, 128, false), Status::kOk);  // second touch: admitted
  EXPECT_EQ(MustGet(cache.shard(0), 5), 51u);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.rejected_sets, 1u);
  EXPECT_EQ(cache.AggregatePolicyStats().rejects, 1u);
}

TEST(KvPolicyTest, RejectedOverwriteEvictsStaleCopy) {
  KvCacheConfig config = SmallConfig();
  config.admission.kind = AdmissionKind::kWriteRateLimiter;
  config.admission.write_rate_pages_per_sec = 1.0;  // starves quickly
  config.admission.write_burst_pages = 1.0;
  KvCache cache(config);
  ASSERT_EQ(cache.Set(9, 90, 256, false), Status::kOk);  // burst admits this
  bool rejected = false;
  for (int i = 0; i < 50 && !rejected; ++i) {
    ASSERT_EQ(cache.Set(9, 90 + 1 + i, 256, false), Status::kOk);
    rejected = cache.AggregateStats().rejected_sets > 0;
  }
  ASSERT_TRUE(rejected);
  // G2 for objects: after a rejected overwrite the stale version must not be
  // served; the key misses instead.
  uint64_t token = 0;
  EXPECT_EQ(cache.Get(9, &token), Status::kNotPresent);
}

// ---- Crash recovery ----

TEST(KvRecoveryTest, DirtyObjectsSurviveCrash) {
  KvCache cache(SmallConfig());
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_EQ(cache.Set(k, k + 7, 64, /*dirty=*/true), Status::kOk);
  }
  // No flush: some slots sealed, the tail still in the open slab.
  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  for (uint64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(MustGet(cache.shard(cache.ShardOf(k)), k), k + 7);
  }
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.lost_objects, 0u);
  EXPECT_GT(s.restaged_dirty_slots, 0u);  // open-slab tail came back via G1
}

TEST(KvRecoveryTest, CleanObjectsNewOrMissNeverStale) {
  KvCacheConfig config = SmallConfig();
  config.ssc.group_commit_ops = 1000;  // keep clean inserts buffered
  config.ssc.mode = ConsistencyMode::kRelaxedClean;
  KvCache cache(config);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_EQ(cache.Set(k, k + 1, 64, /*dirty=*/false), Status::kOk);
  }
  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  for (uint64_t k = 0; k < 40; ++k) {
    uint64_t token = 0;
    const Status st = cache.shard(cache.ShardOf(k)).Get(k, &token);
    if (IsOk(st)) {
      EXPECT_EQ(token, k + 1) << "stale object after recovery";
    } else {
      EXPECT_EQ(st, Status::kNotPresent);
    }
  }
}

TEST(KvRecoveryTest, AcknowledgedDeleteStaysDeleted) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(3, 30, 128, /*dirty=*/true), Status::kOk);
  ASSERT_EQ(cache.Flush(), Status::kOk);
  ASSERT_EQ(cache.Delete(3), Status::kOk);
  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  uint64_t token = 0;
  EXPECT_EQ(cache.Get(3, &token), Status::kNotPresent);
}

TEST(KvRecoveryTest, SlabDirectorySurvivesViaCheckpoint) {
  KvCacheConfig config = SmallConfig();
  config.ssc.checkpoint_interval_writes = 64;  // checkpoint often
  KvCache cache(config);
  Rng rng(7);
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint64_t k = rng.Below(300);
    if (rng.Chance(0.2)) {
      (void)cache.Delete(k);  // miss is fine; exercising churn
    } else {
      ASSERT_EQ(cache.Set(k, i, 64 + static_cast<uint32_t>(rng.Below(400)), rng.Chance(0.5)),
                Status::kOk);
    }
  }
  EXPECT_GT(cache.AggregatePersistStats().checkpoints, 0u);
  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  // Directory consistent: every mapped key readable, no stale slots.
  const KvShard& shard = cache.shard(0);
  uint64_t mapped = 0;
  shard.key_map().ForEach([&](uint64_t key, uint64_t) {
    ++mapped;
    uint64_t token = 0;
    EXPECT_EQ(cache.shard(0).Get(key, &token), Status::kOk);
  });
  EXPECT_GT(mapped, 0u);
  EXPECT_EQ(cache.AggregateStats().lost_objects, 0u);
}

TEST(KvRecoveryTest, RepeatedCrashRecoverIsIdempotent) {
  KvCache cache(SmallConfig());
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, /*dirty=*/true), Status::kOk);
  }
  for (int round = 0; round < 3; ++round) {
    cache.SimulateCrash();
    ASSERT_EQ(cache.Recover(), Status::kOk);
  }
  for (uint64_t k = 0; k < 60; ++k) {
    EXPECT_EQ(MustGet(cache.shard(cache.ShardOf(k)), k), k);
  }
}

// ---- Sharding ----

TEST(KvShardingTest, KeysRouteToOwningShardAndStatsAggregate) {
  KvCacheConfig config = SmallConfig();
  config.shards = 4;
  config.ssc.capacity_pages = 4096;
  KvCache cache(config);
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_EQ(cache.Set(k, k, 128, false), Status::kOk);
  }
  uint64_t token = 0;
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_EQ(cache.Get(k, &token), Status::kOk);
    EXPECT_EQ(token, k);
  }
  uint32_t nonempty = 0;
  for (uint32_t i = 0; i < cache.shard_count(); ++i) {
    if (cache.shard(i).stats().sets > 0) {
      ++nonempty;
    }
  }
  EXPECT_EQ(nonempty, 4u);  // the key hash spreads work across all shards
  EXPECT_EQ(cache.AggregateStats().sets, 400u);
}

// ---- The invariant audit and the flashcheck --kv harness ----

TEST(KvCheckTest, AuditCleanAfterMixedWorkloadAndRecovery) {
  KvCacheConfig config = SmallConfig();
  config.shards = 2;
  KvCache cache(config);
  Rng rng(7);
  for (uint64_t i = 0; i < 600; ++i) {
    const uint64_t key = rng.Below(128);
    switch (rng.Below(4)) {
      case 0:
        ASSERT_EQ(cache.Set(key, 1000 + i, 64 + 8 * (key % 32), rng.Chance(0.4)), Status::kOk);
        break;
      case 1: {
        uint64_t token = 0;
        const Status st = cache.Get(key, &token);
        ASSERT_TRUE(st == Status::kOk || st == Status::kNotPresent);
        break;
      }
      case 2: {
        const Status st = cache.Delete(key);
        ASSERT_TRUE(st == Status::kOk || st == Status::kNotPresent);
        break;
      }
      default:
        ASSERT_EQ(cache.Flush(), Status::kOk);
        break;
    }
  }
  CheckReport live = InvariantChecker::CheckKv(cache);
  EXPECT_TRUE(live.ok()) << live.ToString();
  EXPECT_GT(live.checks_run, 0u);

  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  CheckReport recovered = InvariantChecker::CheckKv(cache);
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
}

TEST(KvCheckTest, AuditCatchesPageEvictedBehindTheDirectory) {
  KvCache cache(SmallConfig());
  // Seal a slab holding a dirty object, then evict its flash page behind the
  // KV layer's back: a live dirty slot now points at an absent page, which
  // the medium-agreement audit must flag.
  ASSERT_EQ(cache.Set(1, 11, 512, /*dirty=*/true), Status::kOk);
  ASSERT_EQ(cache.Flush(), Status::kOk);
  KvShard& shard = cache.shard(cache.ShardOf(1));
  const uint64_t seq = KvShard::LocSeq(*shard.key_map().Find(1));
  ASSERT_EQ(shard.ssc().Evict(shard.SlabBaseLbn(seq)), Status::kOk);
  const CheckReport report = InvariantChecker::CheckKv(cache);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const InvariantViolation& v : report.violations) {
    found = found || v.invariant == "kv.dirty-page-missing";
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST(KvCheckTest, ExplorerSmokeRunsClean) {
  FlashCheckConfig options;
  options.ops = 120;
  options.keys = 64;
  options.max_points = 120;
  options.explore_recovery_points = false;
  const FlashCheckReport report = RunFlashCheck(CheckTarget::kKv, options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.total_commit_points, 0u);
  EXPECT_GT(report.points_explored, 0u);
  EXPECT_FALSE(report.ToJson().empty());
}

TEST(KvCheckTest, SoakSmokeRunsClean) {
  FlashCheckConfig options;
  options.cycles = 5;
  options.ops_per_cycle = 150;
  options.keys = 64;
  options.shards = 2;
  const FlashCheckReport report = RunFlashCheck(CheckTarget::kKv, options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.cycles_run, 5u);
  EXPECT_GT(report.ops_executed, 0u);
}

}  // namespace
}  // namespace flashtier
