#include "src/ssd/ssd_ftl.h"

#include <algorithm>
#include <cassert>

namespace flashtier {

namespace {
// OOB bytes available per page for mapping metadata during recovery scans;
// the paper cites 64-224 byte OOB areas (Section 4.1), we take the low end.
constexpr uint64_t kOobBytesPerPage = 64;
}  // namespace

SsdFtl::SsdFtl(uint64_t logical_pages, SimClock* clock, const Options& options)
    : logical_pages_(logical_pages),
      wear_level_interval_writes_(options.wear_level_interval_writes),
      wear_level_max_diff_(options.wear_level_max_diff),
      clock_(clock) {
  const FlashGeometry& probe = options.geometry;
  logical_blocks_ = (logical_pages + probe.pages_per_block - 1) / probe.pages_per_block;
  max_log_blocks_ = std::max<uint32_t>(
      2, static_cast<uint32_t>(static_cast<double>(logical_blocks_) * options.log_fraction));

  const uint64_t physical_blocks = logical_blocks_ + max_log_blocks_ + kSpareBlocks;
  FlashGeometry geometry =
      FlashGeometry::ForCapacity(physical_blocks * probe.EraseBlockBytes(), probe);
  device_ = std::make_unique<FlashDevice>(geometry, options.timings, clock,
                                          /*store_data=*/false, options.fault_plan);
  allocator_ = std::make_unique<BlockAllocator>(*device_, /*reserved_blocks=*/0);
  block_map_.Reset(logical_blocks_, kInvalidBlock);
  log_map_.Reset(logical_pages_, kInvalidPpn);
}

Status SsdFtl::Read(uint64_t lpn, uint64_t* token) {
  if (lpn >= logical_pages_) {
    return Status::kInvalidArgument;
  }
  ++ftl_stats_.host_reads;
  if (const Ppn* logged = log_map_.Find(lpn); logged != nullptr) {
    return device_->ReadPage(*logged, token, nullptr, nullptr);
  }
  const FlashGeometry& g = device_->geometry();
  const PhysBlock* data = block_map_.Find(lpn / g.pages_per_block);
  if (data != nullptr) {
    const Ppn ppn = g.FirstPpnOf(*data) + lpn % g.pages_per_block;
    if (device_->page_state(ppn) == PageState::kValid) {
      return device_->ReadPage(ppn, token, nullptr, nullptr);
    }
  }
  ++ftl_stats_.host_read_misses;
  return Status::kNotPresent;
}

Status SsdFtl::Write(uint64_t lpn, uint64_t token) {
  if (lpn >= logical_pages_) {
    return Status::kInvalidArgument;
  }
  ++ftl_stats_.host_writes;
  if (Status s = EnsureFreeBlocks(1); !IsOk(s)) {
    return s;
  }
  if (Status s = EnsureActiveLogBlock(); !IsOk(s)) {
    return s;
  }
  OobRecord oob;
  oob.lbn = lpn;
  Ppn ppn = kInvalidPpn;
  // Program before touching the mapping so a write the medium rejects leaves
  // the old version readable. A program abort poisons the whole log block;
  // retries move to a freshly opened one.
  PhysBlock active = log_blocks_.back();
  Status ps = device_->ProgramPage(active, oob, token, nullptr, &ppn);
  for (uint32_t retry = 0; ps == Status::kIoError && retry < kProgramRetryLimit; ++retry) {
    ++ftl_stats_.program_retries;
    if (Status s = EnsureActiveLogBlock(); !IsOk(s)) {
      return s;
    }
    active = log_blocks_.back();
    ps = device_->ProgramPage(active, oob, token, nullptr, &ppn);
  }
  if (!IsOk(ps)) {
    return ps;
  }
  InvalidateOldVersion(lpn);
  log_map_.Insert(lpn, ppn);
  log_contents_[active].push_back(lpn);
  if (wear_level_interval_writes_ > 0 &&
      ++writes_since_wear_level_ >= wear_level_interval_writes_) {
    writes_since_wear_level_ = 0;
    WearLevelOnce(wear_level_max_diff_);
  }
  return Status::kOk;
}

bool SsdFtl::WearLevelOnce(uint32_t max_wear_diff) {
  if (device_->MaxWearDiff() <= max_wear_diff) {
    return false;
  }
  // Coldest data block: the one sitting on the least-erased flash. Data
  // blocks are the cold end of a FAST FTL — log blocks churn constantly.
  PhysBlock coldest = kInvalidBlock;
  LogicalBlock coldest_logical = 0;
  uint32_t coldest_wear = ~0u;
  for (LogicalBlock l = 0; l < logical_blocks_; ++l) {
    const PhysBlock* b = block_map_.Find(l);
    if (b != nullptr && device_->erase_count(*b) < coldest_wear) {
      coldest_wear = device_->erase_count(*b);
      coldest = *b;
      coldest_logical = l;
    }
  }
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
  // Copy valid pages at their offsets (skips keep the block-mapped layout);
  // pages that cannot move are dropped with the vacated source.
  const FlashGeometry& g = device_->geometry();
  bool any_copied = false;
  bool dst_failed = false;
  for (uint32_t off = 0; off < g.pages_per_block; ++off) {
    const Ppn src = g.FirstPpnOf(coldest) + off;
    if (device_->page_state(src) != PageState::kValid) {
      if (!dst_failed) {
        AssertOk(device_->SkipPage(destination));
      }
      continue;
    }
    const Status cs =
        dst_failed ? Status::kIoError : device_->CopyPage(src, destination, nullptr);
    if (cs == Status::kCorrupt || cs == Status::kIoError) {
      dst_failed = dst_failed || cs == Status::kIoError;
      AssertOk(device_->MarkInvalid(src));
      ++ftl_stats_.dropped_clean_pages;
      if (cs == Status::kCorrupt) {
        AssertOk(device_->SkipPage(destination));
      }
      continue;
    }
    AssertOk(cs);
    any_copied = true;
  }
  block_map_.Erase(coldest_logical);
  if (any_copied) {
    block_map_.Insert(coldest_logical, destination);
    ++ftl_stats_.wl_migrations;
  } else if (device_->BlockErased(destination) && !device_->BlockProgramFailed(destination)) {
    allocator_->Free(destination);
  } else {
    EraseOrRetire(destination);
  }
  EraseOrRetire(coldest);
  return any_copied;
}

Status SsdFtl::Trim(uint64_t lpn) {
  if (lpn >= logical_pages_) {
    return Status::kInvalidArgument;
  }
  InvalidateOldVersion(lpn);
  return Status::kOk;
}

void SsdFtl::InvalidateOldVersion(uint64_t lpn) {
  if (const Ppn* logged = log_map_.Find(lpn); logged != nullptr) {
    AssertOk(device_->MarkInvalid(*logged));
    log_map_.Erase(lpn);
    return;
  }
  const FlashGeometry& g = device_->geometry();
  const LogicalBlock logical = lpn / g.pages_per_block;
  const PhysBlock* data = block_map_.Find(logical);
  if (data != nullptr) {
    const Ppn ppn = g.FirstPpnOf(*data) + lpn % g.pages_per_block;
    if (device_->page_state(ppn) == PageState::kValid) {
      AssertOk(device_->MarkInvalid(ppn));
      ReclaimIfDead(*data, logical);
    }
  }
}

void SsdFtl::ReclaimIfDead(PhysBlock data_block, LogicalBlock logical) {
  // A data block whose pages are all superseded or trimmed can be reclaimed
  // eagerly: live versions, if any, are all in the log.
  if (device_->valid_pages(data_block) == 0) {
    block_map_.Erase(logical);
    EraseOrRetire(data_block);
  }
}

void SsdFtl::EraseOrRetire(PhysBlock block) {
  if (IsOk(device_->EraseBlock(block))) {
    allocator_->Free(block);
  } else {
    allocator_->Retire(block);
    ++ftl_stats_.retired_blocks;
  }
}

Status SsdFtl::EnsureFreeBlocks(uint32_t want) {
  // Bounded: a degraded merge may return without freeing anything (it put a
  // victim with unmovable pages back), so "merge until free" must not spin.
  for (uint32_t attempt = 0; attempt < device_->geometry().TotalBlocks() + 4; ++attempt) {
    if (allocator_->FreeCount() >= want) {
      return Status::kOk;
    }
    // The only way an SSD creates free space is by merging log blocks.
    if (log_blocks_.size() <= 1) {
      return Status::kNoSpace;
    }
    if (Status s = MergeOldestLogBlock(); !IsOk(s)) {
      return s;
    }
  }
  return Status::kNoSpace;
}

Status SsdFtl::EnsureActiveLogBlock() {
  if (!log_blocks_.empty() && !device_->BlockFull(log_blocks_.back()) &&
      !device_->BlockProgramFailed(log_blocks_.back())) {
    return Status::kOk;
  }
  if (log_blocks_.size() >= max_log_blocks_) {
    if (Status s = MergeOldestLogBlock(); !IsOk(s)) {
      return s;
    }
  }
  const PhysBlock block = allocator_->Allocate();
  if (block == kInvalidBlock) {
    return Status::kNoSpace;
  }
  log_blocks_.push_back(block);
  log_contents_[block].clear();
  return Status::kOk;
}

bool SsdFtl::TrySwitchOrPartialMerge(PhysBlock victim) {
  const FlashGeometry& g = device_->geometry();
  const auto it = log_contents_.find(victim);
  if (it == log_contents_.end() || it->second.empty()) {
    return false;
  }
  const std::vector<uint64_t>& lpns = it->second;
  // Candidate logical block from the first page; every programmed page i must
  // hold offset i of that block and still be valid.
  if (lpns[0] % g.pages_per_block != 0) {
    return false;
  }
  const LogicalBlock logical = lpns[0] / g.pages_per_block;
  const Ppn base = g.FirstPpnOf(victim);
  for (size_t i = 0; i < lpns.size(); ++i) {
    if (lpns[i] != logical * g.pages_per_block + i ||
        device_->page_state(base + i) != PageState::kValid) {
      return false;
    }
  }

  const PhysBlock* old = block_map_.Find(logical);
  const bool full = lpns.size() == g.pages_per_block;
  if (!full) {
    // Partial merge: complete the sequential prefix by copying the remaining
    // offsets from the old data block into the victim's free tail.
    for (uint32_t off = static_cast<uint32_t>(lpns.size()); off < g.pages_per_block; ++off) {
      bool copied = false;
      // The newest version of the remaining offset is usually in the old data
      // block, but may sit in another log block (fully-associative log), so
      // check the log map first.
      const uint64_t lpn = logical * g.pages_per_block + off;
      if (const Ppn* logged = log_map_.Find(lpn); logged != nullptr) {
        if (IsOk(device_->CopyPage(*logged, victim, nullptr))) {
          log_map_.Erase(lpn);
          copied = true;
        }
      } else if (old != nullptr) {
        const Ppn src = g.FirstPpnOf(*old) + off;
        if (device_->page_state(src) == PageState::kValid) {
          const Status cs = device_->CopyPage(src, victim, nullptr);
          copied = IsOk(cs);
          if (cs == Status::kCorrupt || cs == Status::kIoError) {
            // The only copy of this page cannot move into the merged block;
            // it is dropped when the old data block is reclaimed below.
            ++ftl_stats_.dropped_clean_pages;
          }
        }
      }
      if (!copied) {
        AssertOk(device_->SkipPage(victim));
      }
    }
    ++ftl_stats_.partial_merges;
  } else {
    ++ftl_stats_.switch_merges;
  }

  // Victim becomes the data block.
  for (size_t i = 0; i < lpns.size(); ++i) {
    log_map_.Erase(lpns[i]);
  }
  log_contents_.erase(victim);
  if (old != nullptr) {
    const PhysBlock old_block = *old;
    // Any still-valid old pages are superseded by the new data block.
    const Ppn old_base = g.FirstPpnOf(old_block);
    for (uint32_t i = 0; i < g.pages_per_block; ++i) {
      if (device_->page_state(old_base + i) == PageState::kValid) {
        AssertOk(device_->MarkInvalid(old_base + i));
      }
    }
    block_map_.Erase(logical);
    EraseOrRetire(old_block);
  }
  block_map_.Insert(logical, victim);
  return true;
}

Status SsdFtl::FullMergeLogicalBlock(LogicalBlock logical) {
  const FlashGeometry& g = device_->geometry();
  const PhysBlock fresh = allocator_->Allocate();
  if (fresh == kInvalidBlock) {
    return Status::kNoSpace;
  }
  const PhysBlock* old_entry = block_map_.Find(logical);
  const PhysBlock old_block = old_entry != nullptr ? *old_entry : kInvalidBlock;

  bool any_copied = false;
  bool dst_failed = false;
  for (uint32_t off = 0; off < g.pages_per_block; ++off) {
    const uint64_t lpn = logical * g.pages_per_block + off;
    Ppn src = kInvalidPpn;
    const Ppn* logged = log_map_.Find(lpn);
    const bool from_log = logged != nullptr;
    if (from_log) {
      src = *logged;
    } else if (old_block != kInvalidBlock) {
      const Ppn candidate = g.FirstPpnOf(old_block) + off;
      if (device_->page_state(candidate) == PageState::kValid) {
        src = candidate;
      }
    }
    if (src == kInvalidPpn) {
      if (!dst_failed) {
        AssertOk(device_->SkipPage(fresh));
      }
      continue;
    }
    if (dst_failed) {
      // The destination stopped taking programs. Log-resident pages stay
      // log-mapped; pages whose only copy is the old data block are lost
      // with it (the SSD cannot know whether the host had backed them up).
      if (!from_log) {
        AssertOk(device_->MarkInvalid(src));
        ++ftl_stats_.dropped_clean_pages;
      }
      continue;
    }
    Ppn dst = kInvalidPpn;
    const Status cs = device_->CopyPage(src, fresh, &dst);
    if (cs == Status::kCorrupt) {
      AssertOk(device_->MarkInvalid(src));
      if (from_log) {
        log_map_.Erase(lpn);
      }
      ++ftl_stats_.dropped_clean_pages;
      AssertOk(device_->SkipPage(fresh));
      continue;
    }
    if (cs == Status::kIoError) {
      dst_failed = true;
      if (!from_log) {
        AssertOk(device_->MarkInvalid(src));
        ++ftl_stats_.dropped_clean_pages;
      }
      continue;
    }
    if (!IsOk(cs)) {
      return cs;
    }
    any_copied = true;
    if (from_log) {
      log_map_.Erase(lpn);
    }
  }

  if (old_block != kInvalidBlock) {
    assert(device_->valid_pages(old_block) == 0);
    EraseOrRetire(old_block);
  }
  if (!any_copied) {
    block_map_.Erase(logical);
    if (device_->BlockErased(fresh) && !device_->BlockProgramFailed(fresh)) {
      allocator_->Free(fresh);
    } else {
      EraseOrRetire(fresh);
    }
    return Status::kOk;
  }
  block_map_.Insert(logical, fresh);
  return Status::kOk;
}

Status SsdFtl::MergeOldestLogBlock() {
  if (log_blocks_.empty()) {
    return Status::kNoSpace;
  }
  ++ftl_stats_.gc_invocations;
  const PhysBlock victim = log_blocks_.front();
  log_blocks_.pop_front();

  if (TrySwitchOrPartialMerge(victim)) {
    return Status::kOk;
  }

  // Full merge: rebuild every logical block with valid pages in the victim.
  const FlashGeometry& g = device_->geometry();
  const Ppn base = g.FirstPpnOf(victim);
  const auto contents_it = log_contents_.find(victim);
  std::vector<LogicalBlock> logicals;
  if (contents_it != log_contents_.end()) {
    const std::vector<uint64_t>& lpns = contents_it->second;
    for (size_t i = 0; i < lpns.size(); ++i) {
      if (device_->page_state(base + i) == PageState::kValid) {
        const LogicalBlock l = lpns[i] / g.pages_per_block;
        if (std::find(logicals.begin(), logicals.end(), l) == logicals.end()) {
          logicals.push_back(l);
        }
      }
    }
  }
  bool any_copies = false;
  for (LogicalBlock l : logicals) {
    any_copies = true;
    if (Status s = FullMergeLogicalBlock(l); !IsOk(s)) {
      return s;
    }
  }
  if (any_copies) {
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

size_t SsdFtl::DeviceMemoryUsage() const {
  // Dense block-level map + fully-associative log page map (~32 B/entry for a
  // chained hash node) + per-log-block reverse metadata + free lists. The
  // log map is charged as the device's hash table, not as the host's dense
  // array that simulates it.
  size_t bytes = block_map_.MemoryUsage();
  bytes += log_map_.size() * (sizeof(uint64_t) + sizeof(Ppn) + 16);
  for (const auto& [block, lpns] : log_contents_) {
    bytes += sizeof(block) + lpns.capacity() * sizeof(uint64_t);
  }
  bytes += allocator_->MemoryUsage();
  return bytes;
}

uint64_t SsdFtl::RecoveryOobScanUs() const {
  const uint64_t map_bytes = DeviceMemoryUsage();
  const uint64_t pages = (map_bytes + kOobBytesPerPage - 1) / kOobBytesPerPage;
  return pages * device_->timings().OobReadCostUs();
}

}  // namespace flashtier
