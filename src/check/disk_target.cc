// The disk target (DiskGuard, DESIGN.md §5i): a full host stack — cache
// managers over the sharded SSC set over one shared DiskModel — with a
// deterministic disk fault plan armed (latent sector errors, transient
// failures, slow-IO spikes) and a background scrubber.
//
// A host-level shadow records every *acknowledged* operation. The property
// checked after every op and in the full sweep each cycle: no disk fault
// schedule may lose acknowledged data silently. A read must return the last
// acknowledged token, unless (a) a crash or failed write left the block torn
// — either version is then accepted, and stays accepted until the next
// acknowledged write collapses the ambiguity (the two tiers may hold
// different versions of an unacknowledged write), or (b) the stack notified
// data loss for that block via the SSC's data-loss hook — after which any
// *previously* acknowledged token (or the block's original disk content) is
// accepted, but never fabricated data. Honest refusals (kIoError / kTimeout /
// kNoSpace / kBackpressure) are counted, not condemned.

#include <algorithm>

#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/check/target.h"
#include "src/util/rng.h"
#include "src/util/str_format.h"

namespace flashtier {

namespace {

// Host-level shadow of one block: what a read is allowed to return.
struct HostShadow {
  uint64_t expected = 0;          // last acknowledged token
  bool ambiguous = false;         // a failed/interrupted write left two legal values
  uint64_t alt = 0;               // the other legal token while ambiguous
  std::vector<uint64_t> history;  // every token ever acknowledged
};

bool IsHonestRefusal(Status s) {
  return s == Status::kIoError || s == Status::kTimeout || s == Status::kNoSpace ||
         s == Status::kBackpressure;
}

class DiskTarget final : public SscSet {
 public:
  explicit DiskTarget(const FlashCheckConfig& config)
      : SscSet(config), disk_(config.disk, &clock_), shadow_(config.address_blocks) {
    // One shared disk tier under all shards: shards partition the cache, not
    // the backing store.
    disk_.set_fault_plan(config.disk_faults);
    disk_.set_retry_policy(config.disk_retry);
    for (Lbn lbn = 0; lbn < shadow_.size(); ++lbn) {
      shadow_[lbn].expected = DiskModel::OriginalToken(lbn);
    }
    BuildManagers(/*after_crash=*/false);
  }

  bool RunOps(uint64_t seed, uint32_t ops, Violations* out) override;
  void AfterRecovery() override { BuildManagers(/*after_crash=*/true); }
  void PauseFaults(bool paused) override {
    disk_.set_fault_injection_paused(paused);
    Target::PauseFaults(paused);
  }
  void Audit(const std::string& phase, Violations* out) override {
    // The write-back dirty table and parked-writeback queue against the SSC
    // dirty bits, then the SSC set itself.
    for (auto& m : managers_) {
      AddAudit(phase + " invariant", InvariantChecker::Check(*m), out);
    }
    SscSet::Audit(phase, out);
  }
  void Verify(bool /*settle*/, Violations* out) override {
    for (Lbn lbn = 0; lbn < shadow_.size(); ++lbn) {
      uint64_t token = 0;
      const Status s = mgr(lbn).Read(lbn, &token);
      CheckRead(lbn, s, token, out);
    }
  }
  void Finish(FlashCheckReport* report) override;

 private:
  CacheManager& mgr(Lbn lbn) { return *managers_[router_.ShardOf(lbn)]; }
  void BuildManagers(bool after_crash);
  void CheckRead(Lbn lbn, Status s, uint64_t token, Violations* out);

  DiskModel disk_;
  std::vector<HostShadow> shadow_;
  // The managers are host RAM, rebuilt after every crash; counters of the
  // retired generations accumulate here so the report spans the whole run.
  std::vector<std::unique_ptr<CacheManager>> managers_;
  ManagerStats retired_stats_;
  uint64_t write_errors_ = 0;
  uint64_t read_errors_ = 0;
  uint64_t scrub_passes_ = 0;
};

void DiskTarget::BuildManagers(bool after_crash) {
  for (auto& m : managers_) {
    retired_stats_.Merge(m->stats());
  }
  managers_.clear();
  if (after_crash) {
    // The admission policies are host RAM too, and die with the power. A
    // crash between a durable SSC insert and the manager's OnAdmit would
    // otherwise strand the block in the policy's reject ghost, and the
    // rejected-block-absent audit would flag perfectly sound state.
    RebuildPolicies();
  }
  for (size_t i = 0; i < devices_.size(); ++i) {
    if (config_.write_through) {
      managers_.push_back(
          std::make_unique<WriteThroughManager>(devices_[i].get(), &disk_, policies_[i].get()));
      continue;
    }
    WriteBackManager::Options options;
    options.admission = policies_[i].get();
    auto wb = std::make_unique<WriteBackManager>(devices_[i].get(), &disk_, options);
    if (after_crash) {
      wb->RecoverDirtyTable();
    }
    managers_.push_back(std::move(wb));
  }
}

// Checks one read outcome against the shadow; settles ambiguity and loss on
// what the stack actually returned (both outcomes were legal).
void DiskTarget::CheckRead(Lbn lbn, Status s, uint64_t token, Violations* out) {
  HostShadow& sh = shadow_[lbn];
  if (!IsOk(s)) {
    if (IsHonestRefusal(s)) {
      ++read_errors_;
    } else {
      out->push_back(StrFormat("read lbn %llu: unexpected status %s", (unsigned long long)lbn,
                               std::string(StatusName(s)).c_str()));
    }
    return;
  }
  // While a block is torn by an unacknowledged write, either version stays
  // legal until the next acknowledged write: the two tiers may hold
  // different versions, so reads can flip as the cache fills and evicts.
  if (token == sh.expected || (sh.ambiguous && token == sh.alt)) {
    return;
  }
  if (lost_.count(lbn) != 0 &&
      (token == DiskModel::OriginalToken(lbn) ||
       std::find(sh.history.begin(), sh.history.end(), token) != sh.history.end())) {
    // The stack notified loss for this block: any previously acknowledged
    // version (or the original disk content) is an honest rollback.
    sh.expected = token;
    sh.ambiguous = false;
    lost_.erase(lbn);
    return;
  }
  out->push_back(StrFormat("read lbn %llu returned %llx, expected %llx (no loss notified)",
                           (unsigned long long)lbn, (unsigned long long)token,
                           (unsigned long long)sh.expected));
}

bool DiskTarget::RunOps(uint64_t seed, uint32_t ops, Violations* out) {
  Rng workload(seed);
  for (uint32_t i = 0; i < ops; ++i) {
    const Lbn lbn = workload.Below(config_.address_blocks);
    const bool is_write = workload.Below(100) < 45;
    const uint64_t token = is_write ? next_token_++ : 0;
    HostShadow& sh = shadow_[lbn];
    try {
      if (is_write) {
        const Status s = mgr(lbn).Write(lbn, token);
        if (IsOk(s)) {
          sh.expected = token;
          sh.ambiguous = false;
          sh.history.push_back(token);
        } else if (IsHonestRefusal(s)) {
          // Refused, but parts of the stack may have seen it: either the old
          // or the new version may surface later.
          ++write_errors_;
          sh.ambiguous = true;
          sh.alt = token;
          sh.history.push_back(token);
        } else {
          out->push_back(StrFormat("write lbn %llu: unexpected status %s", (unsigned long long)lbn,
                                   std::string(StatusName(s)).c_str()));
        }
      } else {
        uint64_t token_out = 0;
        const Status s = mgr(lbn).Read(lbn, &token_out);
        CheckRead(lbn, s, token_out, out);
      }
      ++ops_;
      if (config_.scrub_period != 0 && (i + 1) % config_.scrub_period == 0) {
        for (auto& m : managers_) {
          m->ScrubDisk(config_.scrub_budget);
        }
        ++scrub_passes_;
      }
    } catch (const CrashInjected&) {
      if (is_write) {
        // The interrupted write may or may not have landed.
        sh.ambiguous = true;
        sh.alt = token;
        sh.history.push_back(token);
      }
      return true;
    }
  }
  return false;
}

void DiskTarget::Finish(FlashCheckReport* report) {
  // Final drain: with fault injection paused the disk answers again, so an
  // orderly shutdown must succeed — every parked run redriven, every dirty
  // block written back. A residue means a retry queue neither drained nor
  // escalated.
  PauseFaults(true);
  Violations found;
  for (size_t i = 0; i < managers_.size() && !config_.write_through; ++i) {
    auto* wb = static_cast<WriteBackManager*>(managers_[i].get());
    const Status s = wb->FlushAll();
    if (!IsOk(s)) {
      found.push_back(StrFormat("final FlushAll failed with %s on a healthy disk",
                                std::string(StatusName(s)).c_str()));
    }
    if (wb->parked_blocks() != 0 || wb->dirty_blocks() != 0) {
      found.push_back(StrFormat("final drain left %llu dirty / %llu parked blocks",
                                (unsigned long long)wb->dirty_blocks(),
                                (unsigned long long)wb->parked_blocks()));
    }
  }
  PauseFaults(false);
  report->Record("drain", std::move(found), config_.verbose);

  report->ops_executed = ops_;
  report->write_errors = write_errors_;
  report->read_errors = read_errors_;
  report->loss_notifications = loss_notifications_;
  report->scrub_passes = scrub_passes_;
  report->disk = disk_.stats();
  report->manager = retired_stats_;
  for (auto& m : managers_) {
    report->manager.Merge(m->stats());
  }
}

}  // namespace

std::unique_ptr<Target> MakeDiskTarget(const FlashCheckConfig& config) {
  return std::make_unique<DiskTarget>(config);
}

}  // namespace flashtier
