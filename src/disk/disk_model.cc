#include "src/disk/disk_model.h"

#include <algorithm>

namespace flashtier {

uint64_t DiskModel::EstimateUs(Lbn lbn, uint32_t blocks, bool sequential_hint) const {
  uint64_t us = static_cast<uint64_t>(blocks) * params_.transfer_us_per_4k;
  const bool sequential =
      sequential_hint || (next_sequential_ != kInvalidLbn && lbn >= next_sequential_ &&
                          lbn - next_sequential_ < params_.seq_window_blocks);
  if (sequential) {
    us += params_.track_seek_us / 4;  // head settle only
  } else {
    us += params_.avg_seek_us + params_.avg_rotation_us;
  }
  const uint32_t spindles = params_.spindles == 0 ? 1 : params_.spindles;
  return spindles == 1 ? us : us / spindles + 1;
}

void DiskModel::Charge(Lbn lbn, uint32_t blocks, bool is_write) {
  const uint64_t us = EstimateUs(lbn, blocks, /*sequential_hint=*/false);
  clock_->Advance(us);
  stats_.busy_us += us;
  if (is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  next_sequential_ = lbn + blocks;
}

bool DiskModel::InjectFault(const std::vector<uint64_t>& at, uint64_t ordinal, double prob) {
  for (uint64_t a : at) {
    if (a == ordinal) {
      return true;
    }
  }
  return prob > 0.0 && fault_rng_.Chance(prob);
}

void DiskModel::MaybeSlowIo(uint64_t op_ordinal) {
  if (InjectFault(faults_.slow_at, op_ordinal, faults_.slow_io_prob)) {
    // The request eventually completes, 10-100x late: an overloaded or
    // error-recovering drive. Charged as busy time like any service time.
    clock_->Advance(faults_.slow_io_extra_us);
    stats_.busy_us += faults_.slow_io_extra_us;
    ++stats_.slow_ios;
  }
}

void DiskModel::RepairRange(Lbn start, uint32_t n) {
  if (latent_.empty()) {
    return;
  }
  // Sector remap on write: a successful write relocates the damaged sector,
  // so the LBN reads fine from then on. This is the physical mechanism the
  // cache-driven scrubber relies on.
  for (uint32_t i = 0; i < n; ++i) {
    if (latent_.erase(start + i) != 0) {
      ++stats_.sector_repairs;
    }
  }
}

Status DiskModel::Read(Lbn lbn, uint64_t* token) {
  Charge(lbn, 1, /*is_write=*/false);
  if (faults_.enabled) {
    if (!fault_injection_paused_) {
      const uint64_t ord = ++read_ordinal_;
      MaybeSlowIo(++op_ordinal_);
      if (!IsLatent(lbn) && InjectFault(faults_.latent_at, ord, faults_.latent_prob)) {
        // The sector just went latently bad: this read fails, and so does
        // every later one until a write heals it.
        latent_.insert(lbn);
        ++stats_.latent_sectors;
      }
      if (!IsLatent(lbn) && InjectFault(faults_.read_fail_at, ord, faults_.read_fail_prob)) {
        ++stats_.read_faults;
        return Status::kIoError;
      }
    }
    if (IsLatent(lbn)) {
      // Sticky: latent sectors keep failing even while new draws are paused.
      ++stats_.latent_errors;
      return Status::kIoError;
    }
  }
  if (token != nullptr) {
    const uint64_t* written = contents_.Find(lbn);
    *token = written != nullptr ? *written : OriginalToken(lbn);
  }
  return Status::kOk;
}

Status DiskModel::Write(Lbn lbn, uint64_t token) {
  Charge(lbn, 1, /*is_write=*/true);
  if (faults_.enabled && !fault_injection_paused_) {
    const uint64_t ord = ++write_ordinal_;
    MaybeSlowIo(++op_ordinal_);
    if (InjectFault(faults_.write_fail_at, ord, faults_.write_fail_prob)) {
      // Failure atomicity: the rejected write changes no content.
      ++stats_.write_faults;
      return Status::kIoError;
    }
  }
  RepairRange(lbn, 1);
  contents_.Insert(lbn, token);
  return Status::kOk;
}

Status DiskModel::WriteRun(Lbn start, const std::vector<uint64_t>& tokens) {
  if (tokens.empty()) {
    return Status::kInvalidArgument;
  }
  Charge(start, static_cast<uint32_t>(tokens.size()), /*is_write=*/true);
  if (faults_.enabled && !fault_injection_paused_) {
    // One sequential access draws one write fault, like the single seek it
    // models; a hit rejects the whole run atomically.
    const uint64_t ord = ++write_ordinal_;
    MaybeSlowIo(++op_ordinal_);
    if (InjectFault(faults_.write_fail_at, ord, faults_.write_fail_prob)) {
      ++stats_.write_faults;
      return Status::kIoError;
    }
  }
  RepairRange(start, static_cast<uint32_t>(tokens.size()));
  for (size_t i = 0; i < tokens.size(); ++i) {
    contents_.Insert(start + i, tokens[i]);
  }
  return Status::kOk;
}

Status DiskModel::GuardedRead(Lbn lbn, uint64_t* token) {
  RetrySession session(retry_, clock_);
  Status s = Read(lbn, token);
  while (!IsOk(s) && session.BackoffBeforeRetry()) {
    ++stats_.retries;
    s = Read(lbn, token);
  }
  if (!IsOk(s) && session.deadline_exceeded()) {
    ++stats_.timeouts;
    return Status::kTimeout;
  }
  return s;
}

Status DiskModel::GuardedWrite(Lbn lbn, uint64_t token) {
  RetrySession session(retry_, clock_);
  Status s = Write(lbn, token);
  while (!IsOk(s) && session.BackoffBeforeRetry()) {
    ++stats_.retries;
    s = Write(lbn, token);
  }
  if (!IsOk(s) && session.deadline_exceeded()) {
    ++stats_.timeouts;
    return Status::kTimeout;
  }
  return s;
}

Status DiskModel::GuardedWriteRun(Lbn start, const std::vector<uint64_t>& tokens) {
  RetrySession session(retry_, clock_);
  Status s = WriteRun(start, tokens);
  while (!IsOk(s) && session.BackoffBeforeRetry()) {
    ++stats_.retries;
    s = WriteRun(start, tokens);
  }
  if (!IsOk(s) && session.deadline_exceeded()) {
    ++stats_.timeouts;
    return Status::kTimeout;
  }
  return s;
}

}  // namespace flashtier
