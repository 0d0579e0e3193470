// The Solid-State Cache (SSC): the paper's primary contribution.
//
// An SSC is a flash device whose interface and FTL are specialized for
// caching (Sections 3-4):
//
//   * Unified sparse address space: the host addresses the SSC with disk
//     LBNs. Internally a hybrid mapping is kept in sparse hash maps — most
//     cached data is block-mapped (256 KB granularity) and a log-block
//     fraction is page-mapped (4 KB), as in the hybrid FTLs the paper builds
//     on, but keyed by the sparse disk address space rather than a dense
//     device address space.
//
//   * Six-operation consistent interface: write-dirty, write-clean, read,
//     evict, clean, exists, with guarantees G1 (dirty writes durable), G2
//     (clean writes return new data or not-present — never stale) and G3
//     (reads after evict return not-present).
//
//   * Durability: mapping changes are logged via the PersistenceManager.
//     write-dirty and evict commit synchronously; write-clean commits
//     synchronously only when it replaces existing data (the mapping change
//     must be durable, Section 4.2.1) and is group-committed otherwise;
//     clean is always buffered (a crash may revert cleaned blocks to dirty).
//     Internal reclamation (GC, merges, silent eviction) flushes the log
//     before erasing any block so a recovered mapping can never reference
//     reused flash.
//
//   * Silent eviction: garbage collection drops clean blocks instead of
//     copying them. SE-Util (the "SSC" config) keeps a fixed 7% log-block
//     reserve; SE-Merge (the "SSC-R" config) lets the log fraction float up
//     to 20% and prefers creating data blocks by switch merges.
//
// The SSC carries a few spare erase blocks for merge transients but no
// over-provisioned capacity: when space runs out it evicts, which is the
// point (Section 3.3).
//
// The log FIFO, the three merges, program retry, erase-or-retire and the
// wear-level step are the hybrid-FTL core the native SSD runs too
// (src/ftl/hybrid_ftl.h). This class supplies the core's seams: the sparse,
// logged maps (flushed before any erase, dead blocks queued), and making
// space without copying (dead-block reclaim, silent eviction, SE-Merge's
// forward copy).

#ifndef FLASHTIER_SSC_SSC_DEVICE_H_
#define FLASHTIER_SSC_SSC_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/flash/flash_device.h"
#include "src/ftl/hybrid_ftl.h"
#include "src/sparsemap/sparse_hash_map.h"
#include "src/ssc/persist.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace flashtier {

class InvariantChecker;

enum class EvictionPolicy : uint8_t {
  kSeUtil,   // "SSC": fixed log reserve, evict min-utilization clean blocks
  kSeMerge,  // "SSC-R": floating log fraction (up to 20%), switch-merge-first
};

struct SscConfig {
  uint64_t capacity_pages = 0;  // nominal cache capacity in 4 KB pages
  EvictionPolicy policy = EvictionPolicy::kSeUtil;
  ConsistencyMode mode = ConsistencyMode::kFull;
  double log_fraction = 0.07;      // SE-Util: fixed; SE-Merge: initial
  double max_log_fraction = 0.20;  // SE-Merge ceiling
  uint32_t group_commit_ops = 10'000;
  uint64_t checkpoint_interval_writes = 1'000'000;
  // Size of the dedicated log region in flash pages (0 = unbounded). The
  // default keeps the region far above what the ratio/interval checkpoint
  // policies let the log reach, so backpressure only engages when those are
  // configured off or the region is deliberately squeezed.
  uint64_t log_region_pages = 4096;
  // Checkpoint entries per segment (torn-write blast radius; 0 = one segment).
  uint64_t checkpoint_segment_entries = 1024;
  uint32_t gc_victims_per_cycle = 4;  // top-k victim blocks per collection
  FlashTimings timings;
  FlashGeometry geometry;  // plane layout template; plane size scales to fit

  // Fault injection (DESIGN.md §5d): forwarded to the FlashDevice. Disabled
  // by default, so ordinary configurations are unaffected.
  FaultPlan fault_plan;
  // Self-test knob (flashcheck --break-retry): return erase-failed blocks to
  // the free pool instead of retiring them, so the invariant checker's
  // partition audit provably detects the broken bad-block management.
  bool break_retirement_for_testing = false;

  // ---- Endurance defenses (DESIGN.md §5l) ----

  // Run one static wear-leveling pass every N host writes (0 = only when a
  // caller invokes WearLevelOnce explicitly). Deterministic: the cadence is
  // counted in host writes, not time, so it is identical across thread counts.
  uint32_t wear_level_interval_writes = 0;
  // Wear spread that triggers a static wear-leveling migration.
  uint32_t wear_level_max_diff = 8;
  // Run one patrol-scrub pass (PatrolFlash) every N host writes (0 = off).
  uint32_t patrol_interval_writes = 0;
  // Blocks a single patrol pass may refresh before yielding.
  uint32_t patrol_blocks_per_pass = 4;
};

class SscDevice : public HybridFtl<SscDevice> {
 public:
  explicit SscDevice(const SscConfig& config, SimClock* clock);

  // ---- The SSC interface (Section 4.2.1) ----

  // Insert or update a block with dirty data; durable on return (G1).
  Status WriteDirty(Lbn lbn, uint64_t token);

  // Insert or update a block with clean data; a following read returns the
  // new data or not-present (G2).
  Status WriteClean(Lbn lbn, uint64_t token);

  // Read a block if present, else kNotPresent.
  Status Read(Lbn lbn, uint64_t* token);

  // Evict a block immediately; durable on return (G3).
  Status Evict(Lbn lbn);

  // Mark a block clean so the SSC may silently evict it later. Asynchronous;
  // after a crash cleaned blocks may return to their dirty state.
  Status Clean(Lbn lbn);

  // Test for the presence of dirty blocks in [start, start+count): bit i of
  // `dirty_out` is set iff block start+i is present and dirty. Served from
  // device memory.
  void Exists(Lbn start, uint64_t count, Bitmap* dirty_out);

  // Per-block metadata returned by the extended exists query (Section 4.2.1:
  // exists "could be extended to return additional per-block metadata, such
  // as access time or frequency, to help manage cache contents").
  struct BlockInfo {
    bool present = false;
    bool dirty = false;
    uint32_t access_frequency = 0;  // reads+overwrites since caching
  };

  // Extended exists: presence, dirty state and access frequency for each
  // block in [start, start+count). Served from device memory.
  void ExistsDetail(Lbn start, uint64_t count, std::vector<BlockInfo>* out);

  // Background garbage collection (Section 5 integrates silent eviction
  // "with background and foreground garbage collection"): reclaim space
  // during idle time, spending at most `budget_us` of device time. Returns
  // the number of blocks reclaimed.
  uint32_t BackgroundCollect(uint64_t budget_us);

  // One patrol-scrub pass (the flash-tier mirror of the disk tier's
  // ScrubDisk): walks data blocks from a persistent cursor and relocates
  // those whose read-disturb or retention exposure is within 25% of the
  // device's fault thresholds, before the exposure turns into corruption.
  // The relocation is a fresh program (retention clock restarts) followed by
  // an erase of the source (disturb counter resets). Refreshes at most
  // `max_blocks` blocks; returns how many it refreshed. No-op when the fault
  // plan models neither wear effect.
  uint32_t PatrolFlash(uint32_t max_blocks);

  // Streams every (lbn, dirty) cached page to `fn(lbn, dirty)`, charging the
  // same device-memory cost as an exists scan of the spanned address range
  // would. Used by write-back cache-manager recovery.
  template <typename Fn>
  void ForEachCached(Fn&& fn) {
    ChargeExistsScan();
    const uint32_t ppb = device_->geometry().pages_per_block;
    page_map_.ForEach([&](Lbn lbn, uint64_t packed) { fn(lbn, PackedDirty(packed)); });
    block_map_.ForEach([&](uint64_t logical, const BlockEntry& e) {
      for (uint32_t off = 0; off < ppb; ++off) {
        if ((e.present_bits >> off) & 1u) {
          fn(logical * ppb + off, ((e.dirty_bits >> off) & 1u) != 0);
        }
      }
    });
  }

  // ---- Crash simulation / recovery (Section 4.2.2) ----

  // Power failure: device RAM (maps, log buffer, GC state) is lost; the
  // flash medium and the durable log/checkpoint regions survive.
  void SimulateCrash();

  // Roll-forward recovery: checkpoint + log replay, then reconstruction of
  // reverse maps and block state. Leaves the device ready to serve requests.
  // Idempotent: device RAM is reset on entry, so a crash at any RecoveryPoint
  // can simply run Recover() again.
  Status Recover();

  // Drains the log region by forcing a checkpoint, counting one backpressure
  // stall. Cache managers call this when a write returns kBackpressure, then
  // retry (the bounded-stall path); no-op in kNone mode.
  void DrainLog();

  // ---- Introspection ----

  uint64_t capacity_pages() const { return config_.capacity_pages; }
  uint64_t cached_pages() const { return cached_pages_; }
  uint64_t dirty_pages() const { return dirty_pages_; }

  // Graceful capacity degradation: the nominal capacity minus every page of
  // every retired block. Cache managers size their dirty thresholds against
  // this, so an aging device serves a proportionally smaller cache instead of
  // dead-ending in kNoSpace.
  uint64_t usable_capacity_pages() const {
    const uint64_t retired_pages = static_cast<uint64_t>(allocator_->RetiredCount()) *
                                   device_->geometry().pages_per_block;
    return retired_pages >= config_.capacity_pages ? 0 : config_.capacity_pages - retired_pages;
  }
  // Blocks permanently retired (allocator ground truth, survives recovery).
  uint64_t retired_block_count() const { return allocator_->RetiredCount(); }
  // Share of the medium permanently lost to retirement, in percent.
  double retired_capacity_pct() const {
    const uint64_t total = device_->geometry().TotalBlocks();
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(allocator_->RetiredCount()) /
                            static_cast<double>(total);
  }

  const PersistStats& persist_stats() const { return persist_->stats(); }
  // Mutable medium access for test harnesses (e.g. pausing fault injection
  // while a checker observes the device).
  FlashDevice* device_for_testing() { return device_.get(); }
  uint64_t last_recovery_us() const { return persist_->stats().last_recovery_us; }

  // Device-resident mapping memory actually in use (Table 4 "SSC" column).
  size_t DeviceMemoryUsage() const;
  // SE-Merge must reserve device memory for page-level mappings of the
  // maximum log fraction (Table 4 "SSC-R" column accounting).
  size_t ReservedDeviceMemoryUsage() const;

  uint64_t current_log_blocks() const { return log_blocks_.size(); }
  uint64_t free_blocks() const { return allocator_->FreeCount(); }
  uint64_t dead_block_count() const { return dead_blocks_.size(); }
  uint64_t data_block_entries() const { return block_map_.size(); }
  uint64_t page_map_entries() const { return page_map_.size(); }

  // ---- FlashCheck instrumentation ----

  // Debug audit hook: when set, invoked with the device at a quiescent state
  // at the end of any host operation during which a garbage-collection pass
  // ran or a checkpoint was written. Tests install a hook that runs
  // InvariantChecker::Check and asserts an empty report, so every GC/merge/
  // checkpoint interleaving a workload produces is audited in place.
  using AuditHook = std::function<void(const SscDevice&)>;
  void set_audit_hook(AuditHook hook) { audit_hook_ = std::move(hook); }

  // Invoked with the LBN whenever a *dirty* cached page is lost to a medium
  // error (uncorrectable read, or a merge that could not relocate it). The
  // crash explorer uses this to distinguish accounted data loss from silent
  // corruption; cache managers surface the same event in ManagerStats.
  using DataLossHook = std::function<void(Lbn)>;
  void set_data_loss_hook(DataLossHook hook) { data_loss_hook_ = std::move(hook); }

  // The crash explorer installs its commit-point hook directly on the
  // persistence manager and flips its broken-recovery flag through this.
  PersistenceManager* persist_for_testing() { return persist_.get(); }

  // ---- KV layer plumbing (src/kv, DESIGN.md §5k) ----

  // The KV layer shares this shard's persistence log: its slot records ride
  // the same group-commit/checkpoint machinery, so G1–G3 extend to objects.
  PersistenceManager* persist() { return persist_.get(); }

  // Installed by the KV layer: materializes kv-flagged checkpoint entries so
  // device checkpoints subsume the KV slot directory too (a checkpoint that
  // truncated the log without them would silently forget every slot).
  using KvSnapshotSource = std::function<std::vector<CheckpointEntry>()>;
  void set_kv_snapshot_source(KvSnapshotSource source) {
    kv_snapshot_source_ = std::move(source);
  }

  // KV durable state reconstructed by the most recent Recover(): kv-flagged
  // checkpoint entries followed by the KV log-tail records in commit order.
  // The KV layer takes them once, immediately after the device recovers.
  struct RecoveredKv {
    std::vector<CheckpointEntry> checkpoint;
    std::vector<LogRecord> log;
  };
  RecoveredKv TakeRecoveredKv() { return std::exchange(recovered_kv_, RecoveredKv{}); }

  // Runs the checkpoint policy after a KV mutation, snapshotting the device
  // map plus the installed KV directory — the same call the SSC makes after
  // its own writes, exposed because KV slot records grow the log without
  // passing through WriteInternal.
  void MaybeCheckpointForKv() {
    persist_->MaybeCheckpoint([this] { return SnapshotForCheckpoint(); });
  }

 private:
  friend class HybridFtl<SscDevice>;
  friend class InvariantChecker;
  friend class CheckTestPeer;  // injects corruption in invariant-checker tests

  // Spare erase blocks beyond nominal capacity: merge transients need a free
  // destination block while both source and destination exist. This is not
  // over-provisioned *capacity* (the SSC exposes none, Section 3.3) — it is
  // the small internal slack any FTL needs to make forward progress.
  static constexpr uint32_t kSpareBlocks = 8;
  static constexpr uint32_t kMinFreeBlocks = 2;
  static constexpr bool kPresenceBits = true;  // BlockEntry present_bits

  struct BlockEntry {
    PhysBlock phys = kInvalidBlock;
    uint64_t present_bits = 0;
    uint64_t dirty_bits = 0;
    // Volatile usage statistic (Section 4.1); reported by ExistsDetail and
    // not persisted (resets to zero across a crash).
    uint32_t access_count = 0;
  };

  static uint64_t Pack(Ppn ppn, bool dirty) {
    return (ppn << 1) | (dirty ? 1u : 0u);
  }
  static Ppn PackedPpn(uint64_t packed) { return packed >> 1; }
  static bool PackedDirty(uint64_t packed) { return (packed & 1u) != 0; }

  Status WriteInternal(Lbn lbn, uint64_t token, bool dirty);
  // Wipes all device-RAM structures (maps, log FIFO, dead queue, counters);
  // used by SimulateCrash and by Recover re-entry.
  void ResetRamState();
  // Removes the newest version of lbn from maps and medium; returns true if
  // one existed. Appends the matching log records (not flushed).
  bool InvalidateOldVersion(Lbn lbn);

  // Erases one block from the dead queue and returns it to the allocator.
  // False if the queue is empty.
  bool ReclaimDeadBlock();
  // Stats + data-loss hook for a page lost to a medium error. Does not touch
  // cached/dirty counters — callers adjust those through the path that
  // removed the mapping.
  void NoteLoss(Lbn lbn, bool dirty);
  // Host read hit an uncorrectable page: drop the mapping (the cached copy is
  // gone) and translate to the host-visible outcome — kNotPresent for clean
  // pages (just a miss), kIoError for dirty ones (data loss).
  Status DropCorruptPage(Lbn lbn);

  // One garbage-collection cycle on the fullest plane. Prefers silent
  // eviction of clean data blocks; falls back to copying GC. Returns true if
  // at least one block was reclaimed.
  bool CollectFullestPlane();
  void SilentlyEvict(PhysBlock phys, uint64_t logical);

  // ---- Hybrid-FTL core seams ----
  uint32_t LogBlockLimit() const;
  bool FindLogPage(Lbn lbn, Ppn* ppn, bool* dirty) const {
    const uint64_t* packed = page_map_.Find(lbn);
    if (packed == nullptr) {
      return false;
    }
    *ppn = PackedPpn(*packed);
    *dirty = PackedDirty(*packed);
    return true;
  }
  DataBlockView DataBlockOf(uint64_t logical) const {
    const BlockEntry* e = block_map_.Find(logical);
    return e == nullptr ? DataBlockView{} : DataBlockView{e->phys, e->present_bits, e->dirty_bits};
  }
  // Drops lbn's page mapping and logs the removal (not flushed).
  void RemoveLogPage(Lbn lbn);
  // A page lost to a medium error: reported, unmapped and uncounted.
  void DropPage(Lbn lbn, Ppn src, bool from_log, bool dirty);
  // Installs `phys` as the data block for `logical` and erases the previous
  // data block, if any, once the switch is durable.
  void InstallDataBlock(uint64_t logical, PhysBlock phys, uint64_t present_bits,
                        uint64_t dirty_bits);
  // Unmaps a data block (logged, not flushed) and queues it dead.
  void RemoveDataBlock(uint64_t logical, PhysBlock phys);
  void DisposeBlock(PhysBlock block) { dead_blocks_.push_back(block); }
  template <typename Fn>
  void ForEachDataBlock(Fn&& fn) const {
    for (PhysBlock b = 0; b < phys_to_logical_.size(); ++b) {
      if (phys_to_logical_[b] != kInvalidLbn) {
        fn(phys_to_logical_[b], b);
      }
    }
  }
  template <typename Fn>
  void ForEachDeadBlock(Fn&& fn) const {
    for (PhysBlock b : dead_blocks_) {
      fn(b);
    }
  }
  bool MakeSpaceWithoutCopying() { return ReclaimDeadBlock() || CollectFullestPlane(); }
  // SE-Merge log reclamation (Section 4.3): copy live pages to the log
  // frontier (no block rebuild) and erase the victim.
  bool ForwardCopyInstead(PhysBlock victim) const;
  Status ForwardCopyLogBlock(PhysBlock victim);
  PersistenceManager::AtomicBatchScope MergeBatch() {
    return PersistenceManager::AtomicBatchScope(persist_.get());
  }
  // Mapping removals that made a block reclaimable must be durable before
  // its erase, so a recovered map can never reference reused flash.
  void BeforeErase() { persist_->Flush(); }
  void AfterErase() { persist_->NotifyEraseBarrier(); }
  bool KeepBadBlocksForTesting() const { return config_.break_retirement_for_testing; }

  // Write-cadence driver for the endurance defenses: runs a wear-leveling
  // pass and/or a patrol pass when their intervals elapse. Called from the
  // end of WriteInternal (a quiescent point — the host op has committed).
  void MaybeEnduranceMaintenance();

  void ChargeExistsScan();
  std::vector<CheckpointEntry> SnapshotForCheckpoint() const;
  void LogInsertBlockEntry(uint64_t logical, const BlockEntry& e);
  // Runs the audit hook if a GC pass or checkpoint happened since the last
  // audit. Call only from quiescent points (end of a host operation).
  void MaybeAudit();

  SscConfig config_;
  SimClock* clock_;
  std::unique_ptr<PersistenceManager> persist_;

  SparseHashMap<uint64_t, BlockEntry> block_map_;  // logical erase block -> entry
  SparseHashMap<Lbn, uint64_t> page_map_;          // lbn -> packed (ppn, dirty)

  std::vector<Lbn> phys_to_logical_;       // data-block reverse map (device RAM)
  // Creation stamp per data block — the "usage statistics to guide ...
  // eviction policies" of Section 4.1. Freshly-merged blocks are sparse by
  // construction; without an age filter, pure min-utilization eviction would
  // preferentially discard the youngest data.
  std::vector<uint64_t> block_birth_;
  uint64_t birth_counter_ = 0;
  std::deque<PhysBlock> dead_blocks_;      // unreferenced, not yet erased

  uint64_t cached_pages_ = 0;
  uint64_t dirty_pages_ = 0;

  // Endurance-maintenance cadence state (device RAM; resets across a crash).
  uint32_t writes_since_patrol_ = 0;
  PhysBlock patrol_cursor_ = 0;

  AuditHook audit_hook_;
  DataLossHook data_loss_hook_;
  KvSnapshotSource kv_snapshot_source_;
  RecoveredKv recovered_kv_;
  uint64_t last_audited_gc_ = 0;
  uint64_t last_audited_checkpoints_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_SSC_SSC_DEVICE_H_
