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
//
// The log FIFO, the three merges, program retry, erase-or-retire and the
// wear-level step are the hybrid-FTL core the SSC runs too
// (src/ftl/hybrid_ftl.h). This class supplies the core's seams: the dense
// maps, and erasing a block as soon as nothing references it. The SSD has no
// way to make space without copying.

#ifndef FLASHTIER_SSD_SSD_FTL_H_
#define FLASHTIER_SSD_SSD_FTL_H_

#include <cstdint>

#include "src/flash/flash_device.h"
#include "src/ftl/hybrid_ftl.h"
#include "src/sparsemap/dense_map.h"
#include "src/util/status.h"

namespace flashtier {

class SsdFtl : public HybridFtl<SsdFtl> {
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

  // Device-resident mapping memory: dense block map + log page map + log
  // block metadata (Table 4's "SSD" column).
  size_t DeviceMemoryUsage() const;

  // Modeled time to rebuild the mapping after power failure by scanning OOB
  // areas — the paper's best case reads "just enough OOB area to equal the
  // size of the mapping table" (Section 6.4, Native-SSD recovery).
  uint64_t RecoveryOobScanUs() const;

 private:
  friend class HybridFtl<SsdFtl>;
  friend class InvariantChecker;

  static constexpr uint32_t kSpareBlocks = 4;
  static constexpr uint32_t kMinFreeBlocks = 1;
  static constexpr bool kPresenceBits = false;  // a data page is present while valid

  // Removes the current newest version of lpn, wherever it lives.
  void InvalidateOldVersion(uint64_t lpn);

  // ---- Hybrid-FTL core seams ----
  uint32_t LogBlockLimit() const { return max_log_blocks_; }
  bool FindLogPage(uint64_t lpn, Ppn* ppn, bool* dirty) const {
    const Ppn* logged = log_map_.Find(lpn);
    if (logged == nullptr) {
      return false;
    }
    *ppn = *logged;
    *dirty = false;
    return true;
  }
  DataBlockView DataBlockOf(uint64_t logical) const;
  void RemoveLogPage(uint64_t lpn) { log_map_.Erase(lpn); }
  // The SSD cannot know whether the host kept a copy: a page it cannot move
  // is lost (a later read misses).
  void DropPage(uint64_t lpn, Ppn src, bool from_log, bool dirty);
  void InstallDataBlock(uint64_t logical, PhysBlock phys, uint64_t present, uint64_t dirty);
  void RemoveDataBlock(uint64_t logical, PhysBlock phys) {
    block_map_.Erase(logical);
    EraseOrRetire(phys);
  }
  void DisposeBlock(PhysBlock block) { EraseOrRetire(block); }
  template <typename Fn>
  void ForEachDataBlock(Fn&& fn) const {
    block_map_.ForEach(fn);
  }

  uint64_t logical_pages_;
  uint64_t logical_blocks_;
  uint32_t max_log_blocks_;
  uint32_t wear_level_interval_writes_;
  uint32_t wear_level_max_diff_;

  DenseMap<PhysBlock> block_map_;  // logical erase block -> physical block
  DenseMap<Ppn> log_map_;          // lpn -> ppn in a log block
};

}  // namespace flashtier

#endif  // FLASHTIER_SSD_SSD_FTL_H_
