// Baseline SSD: a FAST-style hybrid flash translation layer.
//
// This is the "Native" device of the evaluation — a conventional SSD exposing
// a dense logical address space the size of its capacity, built from scratch
// after FlashSim + the FAST FTL the paper bases its implementation on
// (Section 5: "We implemented our own FTL that is similar to the FAST FTL").
//
//   * Data blocks are block-mapped (256 KB translations) in a dense linear
//     table; a logical page's home is `data_block_base + in-block offset`.
//   * Writes never go to data blocks directly: they append to log blocks,
//     which are page-mapped and fully associative (any page of any logical
//     block can sit in any log block).
//   * When the log-block budget (7% of capacity) is exhausted, the oldest log
//     block is reclaimed by a merge: a switch merge if it holds one logical
//     block written sequentially, a partial merge if it holds a sequential
//     prefix, otherwise a full merge that rebuilds every logical block with
//     pages in the victim by copying the newest version of each page into a
//     fresh data block.
//   * All copying is charged to the flash device, so write amplification,
//     erases and wear (Table 5) emerge from the mechanism rather than from a
//     model.
//
// The device is over-provisioned: physical capacity = logical capacity + log
// budget + spare blocks, matching the paper's "7% over-provisioning for
// garbage collection" on the SSD (the SSC has none).
//
// Both maps are dense arrays on the host: the log page map is indexed by lpn
// (one 8-byte slot per logical page, kInvalidPpn when the page has no log
// copy), so a lookup in a merge is one load. DeviceMemoryUsage() still
// charges what the modelled device spends on a hash table of live log
// entries, so the host representation moves no reported number.

#ifndef FLASHTIER_SSD_SSD_FTL_H_
#define FLASHTIER_SSD_SSD_FTL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/flash/flash_device.h"
#include "src/ftl/block_allocator.h"
#include "src/ftl/ftl_stats.h"
#include "src/sparsemap/dense_map.h"
#include "src/util/status.h"

namespace flashtier {

class SsdFtl {
 public:
  struct Options {
    double log_fraction = 0.07;  // of logical capacity, as erase blocks
    FlashTimings timings;
    FlashGeometry geometry;  // plane layout template; plane size scales to fit
    FaultPlan fault_plan;    // medium fault injection; disabled by default
    // Static wear leveling: run one pass every N host writes (0 = only on
    // explicit WearLevelOnce calls); migrate when the wear spread exceeds
    // the max-diff. Same write-counted, deterministic cadence as the SSC.
    uint32_t wear_level_interval_writes = 0;
    uint32_t wear_level_max_diff = 8;
  };

  SsdFtl(uint64_t logical_pages, SimClock* clock, const Options& options);
  SsdFtl(uint64_t logical_pages, SimClock* clock) : SsdFtl(logical_pages, clock, Options{}) {}

  uint64_t logical_pages() const { return logical_pages_; }

  // Reads logical page `lpn`. Returns kNotPresent if the page has never been
  // written (or was trimmed).
  Status Read(uint64_t lpn, uint64_t* token);

  // Writes logical page `lpn` out-of-place into the log.
  Status Write(uint64_t lpn, uint64_t token);

  // Discards logical page `lpn` (SATA trim).
  Status Trim(uint64_t lpn);

  // One static wear-leveling pass: if the wear spread exceeds `max_wear_diff`,
  // moves the coldest data block (fewest erases on its flash) onto the
  // most-worn free block so the young block re-enters the allocation pool.
  // Returns true if it moved anything.
  bool WearLevelOnce(uint32_t max_wear_diff);

  const FtlStats& ftl_stats() const { return ftl_stats_; }
  const FlashStats& flash_stats() const { return device_->stats(); }
  const FlashDevice& device() const { return *device_; }

  double ExtraWritesPerBlock() const {
    // GC copies are programs the host did not issue; host-issued programs are
    // page_writes (all host writes land via ProgramPage).
    return ftl_stats_.ExtraWritesPerBlock(device_->stats().page_writes,
                                          device_->stats().gc_copies);
  }

  // Device-resident mapping memory: dense block map + log page map + log
  // block metadata (Table 4's "SSD" column).
  size_t DeviceMemoryUsage() const;

  // Modeled time to rebuild the mapping after power failure by scanning OOB
  // areas — the paper's best case reads "just enough OOB area to equal the
  // size of the mapping table" (Section 6.4, Native-SSD recovery).
  uint64_t RecoveryOobScanUs() const;

 private:
  static constexpr uint32_t kSpareBlocks = 4;
  static constexpr uint32_t kProgramRetryLimit = 4;

  Status EnsureFreeBlocks(uint32_t want);
  Status EnsureActiveLogBlock();
  // Erases `block` and frees it; a failed erase retires it as bad instead.
  void EraseOrRetire(PhysBlock block);
  // Removes the current newest version of lpn, wherever it lives.
  void InvalidateOldVersion(uint64_t lpn);
  void ReclaimIfDead(PhysBlock data_block, LogicalBlock logical);
  Status MergeOldestLogBlock();
  Status FullMergeLogicalBlock(LogicalBlock logical);
  bool TrySwitchOrPartialMerge(PhysBlock victim);

  uint64_t logical_pages_;
  uint64_t logical_blocks_;
  uint32_t max_log_blocks_;
  uint32_t wear_level_interval_writes_;
  uint32_t wear_level_max_diff_;
  uint32_t writes_since_wear_level_ = 0;
  SimClock* clock_;
  std::unique_ptr<FlashDevice> device_;
  std::unique_ptr<BlockAllocator> allocator_;

  DenseMap<PhysBlock> block_map_;  // logical erase block -> physical block
  DenseMap<Ppn> log_map_;          // lpn -> ppn in a log block
  std::deque<PhysBlock> log_blocks_;  // FIFO; back() is the active one
  // lpn programmed at each page index of each log block (device-RAM copy of
  // the OOB reverse map).
  std::unordered_map<PhysBlock, std::vector<uint64_t>> log_contents_;

  FtlStats ftl_stats_;
};

}  // namespace flashtier

#endif  // FLASHTIER_SSD_SSD_FTL_H_
