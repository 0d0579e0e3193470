// The hybrid (FAST-style) FTL core shared by the native SSD and the SSC.
//
// Both devices run the same log-block machinery (Section 5: "We implemented
// our own FTL that is similar to the FAST FTL"): host writes append to
// page-mapped log blocks held in a FIFO whose back() is the active block; when
// the log reaches its budget the oldest log block is reclaimed by
//   * a switch merge (it holds one logical block, in order, so it becomes
//     that block's data block),
//   * a partial merge (a sequential prefix, completed from the newest copies
//     of the remaining offsets), or
//   * a full merge (every logical block with live pages in the victim is
//     rebuilt in a fresh block, then the victim is erased).
// A program failure retries on a fresh log block, a failed erase retires the
// block, and a wear-level step moves the data block on the least-worn flash
// onto the most-worn free block.
//
// The device supplies two seams, by static dispatch (CRTP) so nothing on the
// merge path is a virtual call:
//   * The map and its durability. Where the newest copy of a page lives, how a
//     data block is installed or unmapped, what happens to a page that cannot
//     move, and what surrounds an erase. The SSD keeps dense maps and erases
//     at once; the SSC keeps sparse maps with present and dirty bits, logs
//     every change, flushes the log before an erase and queues dead blocks.
//   * Making space without copying. The SSC erases dead blocks, silently
//     evicts clean ones and, under SE-Merge, forward-copies a mostly dead log
//     block instead of merging it. The SSD has none of these.
//
// Required device hooks (private, with `friend class HybridFtl<Device>`):
//   uint32_t LogBlockLimit() const;              // log budget, in blocks
//   static constexpr uint32_t kMinFreeBlocks;    // kept free for merges
//   static constexpr bool kPresenceBits;         // DataBlockView::present exact
//   bool FindLogPage(uint64_t lpn, Ppn*, bool* dirty) const;
//   DataBlockView DataBlockOf(uint64_t logical) const;
//   void RemoveLogPage(uint64_t lpn);            // the page moved to a data block
//   void DropPage(uint64_t lpn, Ppn src, bool from_log, bool dirty);
//   void InstallDataBlock(uint64_t logical, PhysBlock, uint64_t present,
//                         uint64_t dirty);       // and reclaim the old one
//   void RemoveDataBlock(uint64_t logical, PhysBlock);  // unmap and dispose
//   void DisposeBlock(PhysBlock);                // reclaim an unmapped block
//   void ForEachDataBlock(Fn fn) const;          // fn(logical, phys)
// Optional hooks default to the SSD's behaviour (see the protected section).

#ifndef FLASHTIER_FTL_HYBRID_FTL_H_
#define FLASHTIER_FTL_HYBRID_FTL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/flash/flash_device.h"
#include "src/ftl/block_allocator.h"
#include "src/ftl/ftl_stats.h"
#include "src/util/status.h"

namespace flashtier {

class InvariantChecker;

// A data block as the merge sees it: its physical block, the offsets that
// hold the newest copy of their page and, in the SSC, which of them are
// dirty. A device without presence bits (Device::kPresenceBits false) marks
// every offset and the merge asks the medium whether the page is valid.
struct DataBlockView {
  PhysBlock phys = kInvalidBlock;
  uint64_t present = 0;
  uint64_t dirty = 0;
};

// What a block is to the FTL. Every erase block is exactly one of these.
enum class BlockRole : uint8_t { kFree, kRetired, kLog, kData, kDead };

template <typename Device>
class HybridFtl {
 public:
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

 protected:
  friend class InvariantChecker;

  static constexpr uint32_t kProgramRetryLimit = 4;

  void InitMedium(const FlashGeometry& geometry, const FlashTimings& timings, SimClock* clock,
                  const FaultPlan& fault_plan) {
    device_ = std::make_unique<FlashDevice>(geometry, timings, clock, /*store_data=*/false,
                                            fault_plan);
    allocator_ = std::make_unique<BlockAllocator>(*device_, /*reserved_blocks=*/0);
  }

  // Programs one host page into the log: makes room, then programs with
  // retry. On success `*ppn` holds the page and the log contents record it;
  // the caller then updates its map. On failure nothing is mapped.
  Status AppendToLog(const OobRecord& oob, uint64_t token, Ppn* ppn) {
    if (Status s = EnsureFreeBlocks(Device::kMinFreeBlocks); !IsOk(s)) {
      return s;
    }
    return ProgramLogPage(oob.lbn, /*may_merge=*/true, [&](PhysBlock block) {
      return device_->ProgramPage(block, oob, token, nullptr, ppn);
    });
  }

  // Runs `program(active log block)` for page `lpn`. A program abort poisons
  // the whole block, so each retry opens a fresh one; the aborted block stays
  // in the FIFO (its earlier pages are still live) until a merge reclaims it.
  // `may_merge` is false inside reclamation, which must not recurse into it.
  template <typename Program>
  Status ProgramLogPage(uint64_t lpn, bool may_merge, Program&& program);

  // Merges (and, in the SSC, reclaims without copying) until `want` blocks
  // are free. Bounded: a degraded merge may free nothing.
  Status EnsureFreeBlocks(uint32_t want, bool may_merge = true);
  Status EnsureActiveLogBlock(bool may_merge);
  // Allocates a block after making one free.
  Status OpenBlock(bool may_merge, PhysBlock* block);
  // Erases `block` and frees it; a failed erase retires it as bad instead.
  void EraseOrRetire(PhysBlock block);

  Status MergeOldestLogBlock();
  bool TrySwitchOrPartialMerge(PhysBlock victim);
  Status MergeLogicalBlock(uint64_t logical);
  // Moves the data block of `logical` onto `destination` (already allocated),
  // preserving offsets. kIoError if nothing could move.
  Status RelocateDataBlock(uint64_t logical, PhysBlock destination);

  // Calls fn(block, role) for every block the FTL accounts for.
  template <typename Fn>
  void ForEachBlockRole(Fn&& fn) const;

  // Modelled device RAM of the per-log-block reverse maps.
  size_t LogContentsMemory() const {
    size_t bytes = 0;
    // flashlint: allow(unordered-iter): a sum of capacities, order-free
    for (const auto& [block, lpns] : log_contents_) {
      bytes += sizeof(block) + lpns.capacity() * sizeof(uint64_t);
    }
    return bytes;
  }

  // Runs WearLevelOnce every `interval` host writes (0 = never).
  void WearLevelOnCadence(uint32_t interval, uint32_t max_wear_diff) {
    if (interval > 0 && ++writes_since_wear_level_ >= interval) {
      writes_since_wear_level_ = 0;
      WearLevelOnce(max_wear_diff);
    }
  }

  // ---- Optional device hooks: the SSD's behaviour ----
  // Reclaims one block's worth of space without copying; false if it cannot.
  bool MakeSpaceWithoutCopying() { return false; }
  // SE-Merge: reclaim this victim by copying its live pages to the log
  // frontier instead of merging it.
  bool ForwardCopyInstead(PhysBlock) const { return false; }
  Status ForwardCopyLogBlock(PhysBlock) { return Status::kNoSpace; }
  // RAII scope around a merge's map updates (the SSC's atomic log batch).
  struct NoBatch {};
  NoBatch MergeBatch() { return {}; }
  void BeforeErase() {}
  void AfterErase() {}
  bool KeepBadBlocksForTesting() const { return false; }
  template <typename Fn>
  void ForEachDeadBlock(Fn&&) const {}

  std::unique_ptr<FlashDevice> device_;
  std::unique_ptr<BlockAllocator> allocator_;
  std::deque<PhysBlock> log_blocks_;  // FIFO; back() is the active one
  // lpn programmed at each page index of each log block (device-RAM copy of
  // the OOB reverse map).
  std::unordered_map<PhysBlock, std::vector<uint64_t>> log_contents_;
  FtlStats ftl_stats_;
  uint32_t writes_since_wear_level_ = 0;

 private:
  Device& dev() { return static_cast<Device&>(*this); }
  const Device& dev() const { return static_cast<const Device&>(*this); }

  // Copies the newest copy of each page of `logical` from offset `first` on
  // into `dest`, keeping in-block offsets (a skip keeps the next page
  // aligned). Merges take log-resident copies (`include_log`); a relocation
  // moves only the data block `old`. A page that cannot move is dropped: an
  // unreadable source always, and once `dest` has failed a program, every
  // page whose only copy is in `old`, which is being vacated (log pages stay
  // mapped where they are). Accumulates what landed in `*present`/`*dirty`.
  Status MovePages(uint64_t logical, uint32_t first, const DataBlockView& old, PhysBlock dest,
                   bool include_log, uint64_t* present, uint64_t* dirty);
  // Installs `dest` as the data block of `logical` if any page landed in it;
  // otherwise unmaps the old data block and releases `dest`. True if it
  // installed.
  bool InstallOrRelease(uint64_t logical, PhysBlock old_phys, PhysBlock dest, uint64_t present,
                        uint64_t dirty);
};

template <typename Device>
template <typename Program>
Status HybridFtl<Device>::ProgramLogPage(uint64_t lpn, bool may_merge, Program&& program) {
  Status s = Status::kIoError;
  for (uint32_t attempt = 0; s == Status::kIoError && attempt <= kProgramRetryLimit; ++attempt) {
    if (attempt > 0) {
      ++ftl_stats_.program_retries;
    }
    if (Status open = EnsureActiveLogBlock(may_merge); !IsOk(open)) {
      return open;
    }
    s = program(log_blocks_.back());
  }
  if (IsOk(s)) {
    log_contents_[log_blocks_.back()].push_back(lpn);
  }
  return s;
}

template <typename Device>
Status HybridFtl<Device>::EnsureFreeBlocks(uint32_t want, bool may_merge) {
  for (uint32_t attempt = 0; attempt < device_->geometry().TotalBlocks() + 4; ++attempt) {
    if (allocator_->FreeCount() >= want) {
      return Status::kOk;
    }
    if (dev().MakeSpaceWithoutCopying()) {
      continue;
    }
    if (!may_merge || log_blocks_.size() <= 1) {
      return Status::kNoSpace;
    }
    if (Status s = MergeOldestLogBlock(); !IsOk(s)) {
      return s;
    }
  }
  return Status::kNoSpace;
}

template <typename Device>
Status HybridFtl<Device>::OpenBlock(bool may_merge, PhysBlock* block) {
  if (Status s = EnsureFreeBlocks(1, may_merge); !IsOk(s)) {
    return s;
  }
  *block = allocator_->Allocate();
  return *block == kInvalidBlock ? Status::kNoSpace : Status::kOk;
}

template <typename Device>
Status HybridFtl<Device>::EnsureActiveLogBlock(bool may_merge) {
  if (!log_blocks_.empty() && !device_->BlockFull(log_blocks_.back()) &&
      !device_->BlockProgramFailed(log_blocks_.back())) {
    return Status::kOk;
  }
  // At the budget, merge before opening a block. A degraded merge puts its
  // victim back at the front, so merging only once would let every degraded
  // merge grow the log for good, until it had eaten the spare blocks: keep
  // merging while the log is over its budget and merges shrink it. (The log
  // may rest one block over: SE-Merge's forward copy opens its own frontier
  // block before this one.)
  if (may_merge && log_blocks_.size() >= dev().LogBlockLimit()) {
    for (size_t before = SIZE_MAX; log_blocks_.size() < before;) {
      before = log_blocks_.size();
      if (Status s = MergeOldestLogBlock(); !IsOk(s)) {
        return s;
      }
      if (log_blocks_.size() <= dev().LogBlockLimit()) {
        break;
      }
    }
  }
  PhysBlock block = kInvalidBlock;
  if (Status s = OpenBlock(may_merge, &block); !IsOk(s)) {
    return s;
  }
  log_blocks_.push_back(block);
  log_contents_[block].clear();
  return Status::kOk;
}

template <typename Device>
void HybridFtl<Device>::EraseOrRetire(PhysBlock block) {
  dev().BeforeErase();
  if (IsOk(device_->EraseBlock(block)) || dev().KeepBadBlocksForTesting()) {
    allocator_->Free(block);
  } else {
    allocator_->Retire(block);
    ++ftl_stats_.retired_blocks;
  }
  dev().AfterErase();
}

template <typename Device>
Status HybridFtl<Device>::MergeOldestLogBlock() {
  if (log_blocks_.size() <= 1) {
    return Status::kNoSpace;
  }
  ++ftl_stats_.gc_invocations;
  const PhysBlock victim = log_blocks_.front();
  log_blocks_.pop_front();

  if (TrySwitchOrPartialMerge(victim)) {
    return Status::kOk;
  }
  if (dev().ForwardCopyInstead(victim)) {
    const Status s = dev().ForwardCopyLogBlock(victim);
    if (!IsOk(s)) {
      // Could not place the remaining live pages; uncopied pages stay
      // log-mapped in the victim, which is still a consistent log block.
      log_blocks_.push_front(victim);
    }
    return s;
  }

  // Full merge: rebuild every logical block with valid pages in the victim.
  const FlashGeometry& g = device_->geometry();
  const Ppn base = g.FirstPpnOf(victim);
  std::vector<uint64_t> logicals;
  if (const auto it = log_contents_.find(victim); it != log_contents_.end()) {
    const std::vector<uint64_t>& lpns = it->second;
    for (size_t i = 0; i < lpns.size(); ++i) {
      if (device_->page_state(base + i) == PageState::kValid) {
        const uint64_t l = lpns[i] / g.pages_per_block;
        if (std::find(logicals.begin(), logicals.end(), l) == logicals.end()) {
          logicals.push_back(l);
        }
      }
    }
  }
  for (uint64_t l : logicals) {
    if (Status s = MergeLogicalBlock(l); !IsOk(s)) {
      // MergeLogicalBlock fails only before copying anything (no destination
      // block), so the victim's remaining pages are still log-mapped: put it
      // back and report the shortage instead of leaking it.
      log_blocks_.push_front(victim);
      return s;
    }
  }
  if (!logicals.empty()) {
    ++ftl_stats_.full_merges;
  }
  if (device_->valid_pages(victim) != 0) {
    // A degraded merge (destination program failures) left live pages
    // log-mapped in the victim; it is still a consistent log block.
    log_blocks_.push_front(victim);
    return Status::kOk;
  }
  log_contents_.erase(victim);
  EraseOrRetire(victim);
  return Status::kOk;
}

template <typename Device>
bool HybridFtl<Device>::TrySwitchOrPartialMerge(PhysBlock victim) {
  const FlashGeometry& g = device_->geometry();
  const uint32_t ppb = g.pages_per_block;
  const auto it = log_contents_.find(victim);
  if (it == log_contents_.end() || it->second.empty()) {
    return false;
  }
  const std::vector<uint64_t>& lpns = it->second;
  // Candidate logical block from the first page; every programmed page i must
  // hold offset i of that block and still be valid.
  if (lpns[0] % ppb != 0) {
    return false;
  }
  // The merge's log-page removals and its data-block install commit together;
  // an intermediate group commit would tear them.
  [[maybe_unused]] auto batch = dev().MergeBatch();
  const uint64_t logical = lpns[0] / ppb;
  const Ppn base = g.FirstPpnOf(victim);
  for (size_t i = 0; i < lpns.size(); ++i) {
    if (lpns[i] != logical * ppb + i || device_->page_state(base + i) != PageState::kValid) {
      return false;
    }
  }

  // The sequential prefix: log-mapped today, block-mapped after the switch.
  uint64_t present = 0;
  uint64_t dirty = 0;
  for (size_t i = 0; i < lpns.size(); ++i) {
    Ppn ppn = kInvalidPpn;
    bool page_dirty = false;
    [[maybe_unused]] const bool logged = dev().FindLogPage(lpns[i], &ppn, &page_dirty);
    assert(logged && ppn == base + i);
    present |= uint64_t{1} << i;
    if (page_dirty) {
      dirty |= uint64_t{1} << i;
    }
    dev().RemoveLogPage(lpns[i]);
  }
  if (lpns.size() < ppb) {
    // Partial merge: complete the tail from wherever the newest version of
    // each remaining offset lives (another log block or the old data block).
    AssertOk(MovePages(logical, static_cast<uint32_t>(lpns.size()), dev().DataBlockOf(logical),
                       victim, /*include_log=*/true, &present, &dirty));
    ++ftl_stats_.partial_merges;
  } else {
    ++ftl_stats_.switch_merges;
  }
  log_contents_.erase(victim);
  dev().InstallDataBlock(logical, victim, present, dirty);
  return true;
}

template <typename Device>
Status HybridFtl<Device>::MergeLogicalBlock(uint64_t logical) {
  // As in TrySwitchOrPartialMerge: the log-page removals and the final
  // install must not be torn across a group-commit flush.
  [[maybe_unused]] auto batch = dev().MergeBatch();
  PhysBlock fresh = kInvalidBlock;
  // Make room without copying if the device can; fail (with no side
  // effects) only when it cannot.
  if (Status s = OpenBlock(/*may_merge=*/false, &fresh); !IsOk(s)) {
    return s;
  }
  const DataBlockView old = dev().DataBlockOf(logical);
  uint64_t present = 0;
  uint64_t dirty = 0;
  if (Status s = MovePages(logical, 0, old, fresh, /*include_log=*/true, &present, &dirty);
      !IsOk(s)) {
    return s;
  }
  InstallOrRelease(logical, old.phys, fresh, present, dirty);
  return Status::kOk;
}

template <typename Device>
Status HybridFtl<Device>::RelocateDataBlock(uint64_t logical, PhysBlock destination) {
  const DataBlockView old = dev().DataBlockOf(logical);
  uint64_t present = 0;
  uint64_t dirty = 0;
  if (Status s =
          MovePages(logical, 0, old, destination, /*include_log=*/false, &present, &dirty);
      !IsOk(s)) {
    return s;
  }
  return InstallOrRelease(logical, old.phys, destination, present, dirty) ? Status::kOk
                                                                         : Status::kIoError;
}

template <typename Device>
Status HybridFtl<Device>::MovePages(uint64_t logical, uint32_t first, const DataBlockView& old,
                                    PhysBlock dest, bool include_log, uint64_t* present,
                                    uint64_t* dirty) {
  const FlashGeometry& g = device_->geometry();
  bool dst_failed = false;
  for (uint32_t off = first; off < g.pages_per_block; ++off) {
    const uint64_t lpn = logical * g.pages_per_block + off;
    Ppn src = kInvalidPpn;
    bool src_dirty = false;
    const bool from_log = include_log && dev().FindLogPage(lpn, &src, &src_dirty);
    if (!from_log && ((old.present >> off) & 1u) != 0 &&
        (Device::kPresenceBits ||
         device_->page_state(g.FirstPpnOf(old.phys) + off) == PageState::kValid)) {
      src = g.FirstPpnOf(old.phys) + off;
      src_dirty = ((old.dirty >> off) & 1u) != 0;
    }
    if (src == kInvalidPpn) {
      if (!dst_failed) {
        AssertOk(device_->SkipPage(dest));
      }
      continue;
    }
    const Status cs = dst_failed ? Status::kIoError : device_->CopyPage(src, dest, nullptr);
    if (cs == Status::kCorrupt || cs == Status::kIoError) {
      dst_failed = dst_failed || cs == Status::kIoError;
      if (cs == Status::kCorrupt || !from_log) {
        dev().DropPage(lpn, src, from_log, src_dirty);
      }
      if (cs == Status::kCorrupt) {
        AssertOk(device_->SkipPage(dest));
      }
      continue;
    }
    if (!IsOk(cs)) {
      return cs;
    }
    if (from_log) {
      dev().RemoveLogPage(lpn);
    }
    *present |= uint64_t{1} << off;
    if (src_dirty) {
      *dirty |= uint64_t{1} << off;
    }
  }
  return Status::kOk;
}

template <typename Device>
bool HybridFtl<Device>::InstallOrRelease(uint64_t logical, PhysBlock old_phys, PhysBlock dest,
                                         uint64_t present, uint64_t dirty) {
  if (present != 0) {
    dev().InstallDataBlock(logical, dest, present, dirty);
    return true;
  }
  if (old_phys != kInvalidBlock) {
    dev().RemoveDataBlock(logical, old_phys);
  }
  if (device_->BlockErased(dest) && !device_->BlockProgramFailed(dest)) {
    allocator_->Free(dest);
  } else {
    dev().DisposeBlock(dest);
  }
  return false;
}

template <typename Device>
bool HybridFtl<Device>::WearLevelOnce(uint32_t max_wear_diff) {
  if (device_->MaxWearDiff() <= max_wear_diff) {
    return false;
  }
  // Coldest data block: the one sitting on the least-erased flash. Data
  // blocks are the cold end of a FAST FTL — log blocks churn constantly.
  PhysBlock coldest = kInvalidBlock;
  uint64_t coldest_logical = 0;
  uint32_t coldest_wear = ~0u;
  dev().ForEachDataBlock([&](uint64_t logical, PhysBlock b) {
    if (device_->erase_count(b) < coldest_wear) {
      coldest_wear = device_->erase_count(b);
      coldest = b;
      coldest_logical = logical;
    }
  });
  if (coldest == kInvalidBlock) {
    return false;
  }
  const PhysBlock destination = allocator_->AllocateMostWorn();
  if (destination == kInvalidBlock) {
    return false;
  }
  if (device_->erase_count(destination) <= coldest_wear + max_wear_diff) {
    allocator_->Free(destination);  // spread is not where we can fix it
    return false;
  }
  if (!IsOk(RelocateDataBlock(coldest_logical, destination))) {
    return false;
  }
  ++ftl_stats_.wl_migrations;
  return true;
}

template <typename Device>
template <typename Fn>
void HybridFtl<Device>::ForEachBlockRole(Fn&& fn) const {
  allocator_->ForEachFree([&](PhysBlock b) { fn(b, BlockRole::kFree); });
  allocator_->ForEachRetired([&](PhysBlock b) { fn(b, BlockRole::kRetired); });
  for (PhysBlock b : log_blocks_) {
    fn(b, BlockRole::kLog);
  }
  dev().ForEachDataBlock([&](uint64_t, PhysBlock b) { fn(b, BlockRole::kData); });
  dev().ForEachDeadBlock([&](PhysBlock b) { fn(b, BlockRole::kDead); });
}

}  // namespace flashtier

#endif  // FLASHTIER_FTL_HYBRID_FTL_H_
