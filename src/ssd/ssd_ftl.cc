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
      wear_level_max_diff_(options.wear_level_max_diff) {
  const FlashGeometry& probe = options.geometry;
  logical_blocks_ = (logical_pages + probe.pages_per_block - 1) / probe.pages_per_block;
  max_log_blocks_ = std::max<uint32_t>(
      2, static_cast<uint32_t>(static_cast<double>(logical_blocks_) * options.log_fraction));

  const uint64_t physical_blocks = logical_blocks_ + max_log_blocks_ + kSpareBlocks;
  InitMedium(FlashGeometry::ForCapacity(physical_blocks * probe.EraseBlockBytes(), probe),
             options.timings, clock, options.fault_plan);
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
  // Program before touching the mapping so a write the medium rejects leaves
  // the old version readable.
  OobRecord oob;
  oob.lbn = lpn;
  Ppn ppn = kInvalidPpn;
  if (Status s = AppendToLog(oob, token, &ppn); !IsOk(s)) {
    return s;
  }
  InvalidateOldVersion(lpn);
  log_map_.Insert(lpn, ppn);
  WearLevelOnCadence(wear_level_interval_writes_, wear_level_max_diff_);
  return Status::kOk;
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
      // A data block whose pages are all superseded or trimmed can be
      // reclaimed eagerly: live versions, if any, are all in the log.
      if (device_->valid_pages(*data) == 0) {
        RemoveDataBlock(logical, *data);
      }
    }
  }
}

DataBlockView SsdFtl::DataBlockOf(uint64_t logical) const {
  const PhysBlock* data = block_map_.Find(logical);
  return data == nullptr ? DataBlockView{} : DataBlockView{*data, ~uint64_t{0}, 0};
}

void SsdFtl::DropPage(uint64_t lpn, Ppn src, bool from_log, bool /*dirty*/) {
  AssertOk(device_->MarkInvalid(src));
  if (from_log) {
    log_map_.Erase(lpn);
  }
  ++ftl_stats_.dropped_clean_pages;
}

void SsdFtl::InstallDataBlock(uint64_t logical, PhysBlock phys, uint64_t /*present*/,
                              uint64_t /*dirty*/) {
  const PhysBlock* old = block_map_.Find(logical);
  const PhysBlock old_phys = old != nullptr ? *old : kInvalidBlock;
  block_map_.Insert(logical, phys);
  if (old_phys != kInvalidBlock) {
    assert(device_->valid_pages(old_phys) == 0);
    EraseOrRetire(old_phys);
  }
}

size_t SsdFtl::DeviceMemoryUsage() const {
  // Dense block-level map + fully-associative log page map (~32 B/entry for a
  // chained hash node) + per-log-block reverse metadata + free lists. The
  // log map is charged as the device's hash table, not as the host's dense
  // array that simulates it.
  size_t bytes = block_map_.MemoryUsage();
  bytes += log_map_.size() * (sizeof(uint64_t) + sizeof(Ppn) + 16);
  bytes += LogContentsMemory();
  bytes += allocator_->MemoryUsage();
  return bytes;
}

uint64_t SsdFtl::RecoveryOobScanUs() const {
  const uint64_t map_bytes = DeviceMemoryUsage();
  const uint64_t pages = (map_bytes + kOobBytesPerPage - 1) / kOobBytesPerPage;
  return pages * device_->timings().OobReadCostUs();
}

}  // namespace flashtier
