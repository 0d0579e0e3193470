// The SSC target: scripted block operations against the sharded SSC device
// set, checked by a shadow model of acknowledged operations.
//
// The shadow tracks, per LBN, the last *acknowledged* state a correct device
// must honor across a crash — the paper's G1-G3 contract:
//   * an acknowledged write-dirty must read back its exact data, dirty (G1);
//   * an acknowledged write-clean must read back its data or not-present,
//     never an older version (G2);
//   * an acknowledged evict must read not-present (G3);
//   * a cleaned block may revert to dirty, read its data, or be gone.
// The one operation in flight when power failed is special: both its before-
// and after-states are legal, anything else is a violation (in particular
// any stale token, which is how G2 breaks).

#include <algorithm>
#include <cmath>

#include "src/check/target.h"
#include "src/util/bitmap.h"
#include "src/util/rng.h"
#include "src/util/str_format.h"

namespace flashtier {

namespace {

// Deterministic mixed workload: write-dirty / write-clean / read / clean /
// evict / background GC, with half the traffic on a hot eighth of the
// address space so overwrites (the InvalidateOldVersion paths) are exercised
// as well as misses.
enum class OpKind : uint8_t { kWriteDirty, kWriteClean, kRead, kClean, kEvict, kCollect };

struct WorkloadOp {
  OpKind kind = OpKind::kRead;
  Lbn lbn = 0;
  uint64_t token = 0;
};

// `next_token` is advanced past every token the script consumed, so
// successive scripts (soak cycles, aging rounds) never reuse a token.
std::vector<WorkloadOp> BuildWorkloadScript(uint64_t seed, uint32_t ops, uint64_t address_blocks,
                                            uint64_t* next_token) {
  Rng rng(seed);
  std::vector<WorkloadOp> script;
  script.reserve(ops);
  const uint64_t hot = std::max<uint64_t>(1, address_blocks / 8);
  for (uint32_t i = 0; i < ops; ++i) {
    WorkloadOp op;
    op.lbn = rng.Chance(0.5) ? rng.Below(hot) : rng.Below(address_blocks);
    const uint64_t roll = rng.Below(100);
    if (roll < 40) {
      op.kind = OpKind::kWriteDirty;
      op.token = (*next_token)++;
    } else if (roll < 60) {
      op.kind = OpKind::kWriteClean;
      op.token = (*next_token)++;
    } else if (roll < 75) {
      op.kind = OpKind::kRead;
    } else if (roll < 87) {
      op.kind = OpKind::kClean;
    } else if (roll < 95) {
      op.kind = OpKind::kEvict;
    } else {
      op.kind = OpKind::kCollect;
    }
    script.push_back(op);
  }
  return script;
}

// The last acknowledged state of one lbn.
enum class ShadowState : uint8_t {
  kNone,     // never written (or initial): must read not-present
  kDirty,    // acked write-dirty: must read exactly `token`, dirty (G1)
  kClean,    // acked write-clean: `token` or not-present (G2)
  kCleaned,  // dirty then acked clean: `token` or not-present; may re-dirty
  kEvicted,  // acked evict: not-present (G3)
};

struct ShadowEntry {
  ShadowState state = ShadowState::kNone;
  uint64_t token = 0;
};

// The operation in flight at the crash, if any. `kWrite` covers write-dirty
// and write-clean (the sweep accepts old-or-new, and not-present unless the
// overwrite hit acknowledged dirty data, which must not tear); `kClean` only
// relaxes the still-dirty requirement; `kEvict` additionally accepts gone.
struct ShadowPendingOp {
  enum class Kind : uint8_t { kNone, kWrite, kClean, kEvict };
  Kind kind = Kind::kNone;
  Lbn lbn = 0;
  uint64_t token = 0;
};

std::string FmtShadowViolation(const char* guarantee, Lbn lbn, const char* what) {
  return StrFormat("%s: lbn %llu %s", guarantee, (unsigned long long)lbn, what);
}

// Applies one *completed* (acknowledged) operation to the shadow, verifying
// read-backs on the way (a pre-crash stale read is a plain FTL bug). `lost`
// holds the lbns whose only copy an injected medium fault destroyed: those
// may legitimately be missing, but must never surface stale tokens.
void ApplyAcknowledged(OpKind kind, Lbn lbn, uint64_t token_written, Status s, uint64_t token_read,
                       bool faults_on, std::unordered_set<Lbn>& lost, ShadowEntry& entry,
                       Violations* violations) {
  switch (kind) {
    case OpKind::kWriteDirty:
    case OpKind::kWriteClean: {
      const bool dirty = kind == OpKind::kWriteDirty;
      if (IsOk(s)) {
        entry = {dirty ? ShadowState::kDirty : ShadowState::kClean, token_written};
        lost.erase(lbn);  // fresh acknowledged data: G1 fully re-attaches
      } else if ((s == Status::kIoError && faults_on) || s == Status::kBackpressure) {
        // The medium rejected the write even after the SSC's retries, or the
        // log refused it up front. Failure atomicity: the cache state (and
        // the shadow) is unchanged.
      } else if (s != Status::kNoSpace) {
        violations->push_back(FmtShadowViolation(
            "pre-crash", lbn, dirty ? "write-dirty failed" : "write-clean failed"));
      }
      break;
    }
    case OpKind::kRead:
      switch (entry.state) {
        case ShadowState::kNone:
        case ShadowState::kEvicted:
          if (s != Status::kNotPresent) {
            violations->push_back(
                FmtShadowViolation("pre-crash G3", lbn, "read hit after evict/never-written"));
          }
          break;
        case ShadowState::kDirty:
          if (IsOk(s)) {
            if (token_read != entry.token) {
              violations->push_back(FmtShadowViolation("pre-crash G1", lbn, "stale dirty read"));
            }
          } else if (lost.count(lbn) != 0) {
            // The only copy was destroyed by an injected fault (possibly
            // detected by this very read); the block now behaves as gone.
            entry = {ShadowState::kEvicted, 0};
          } else {
            violations->push_back(FmtShadowViolation("pre-crash G1", lbn, "dirty data lost"));
          }
          break;
        case ShadowState::kClean:
        case ShadowState::kCleaned:
          if (IsOk(s) ? token_read != entry.token : s != Status::kNotPresent) {
            violations->push_back(FmtShadowViolation("pre-crash G2", lbn, "stale clean read"));
          }
          break;
      }
      break;
    case OpKind::kClean:
      if (IsOk(s)) {
        if (entry.state == ShadowState::kDirty) {
          entry.state = ShadowState::kCleaned;
        } else if (entry.state == ShadowState::kNone || entry.state == ShadowState::kEvicted) {
          violations->push_back(FmtShadowViolation("pre-crash G3", lbn, "clean hit after evict"));
        }
      } else if (s == Status::kNotPresent && entry.state == ShadowState::kDirty) {
        if (lost.count(lbn) != 0) {
          entry = {ShadowState::kEvicted, 0};
        } else {
          violations->push_back(FmtShadowViolation("pre-crash G1", lbn, "dirty block vanished"));
        }
      }
      break;
    case OpKind::kEvict:
      entry = {ShadowState::kEvicted, 0};
      lost.erase(lbn);  // an acknowledged evict makes the loss moot
      break;
    case OpKind::kCollect:
      break;
  }
}

// Coefficient of variation of per-block erase counts across every block of
// every shard (retired blocks included — their frozen counts are part of the
// wear the device absorbed). 0 when nothing has been erased.
double EraseCountCv(const std::vector<std::unique_ptr<SscDevice>>& devices) {
  uint64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& ssc : devices) {
    const FlashDevice& dev = ssc->device();
    const uint32_t total = dev.geometry().TotalBlocks();
    for (uint32_t b = 0; b < total; ++b) {
      const double e = static_cast<double>(dev.erase_count(b));
      sum += e;
      sum_sq += e * e;
      ++n;
    }
  }
  const double mean = n == 0 ? 0.0 : sum / static_cast<double>(n);
  if (mean <= 0.0) {
    return 0.0;
  }
  const double variance = std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
  return std::sqrt(variance) / mean;
}

class SscTarget final : public SscSet {
 public:
  explicit SscTarget(const FlashCheckConfig& config)
      : SscSet(config), shadow_(config.address_blocks) {}

  bool RunOps(uint64_t seed, uint32_t ops, Violations* out) override;
  void Verify(bool settle, Violations* out) override;
  void Finish(FlashCheckReport* report) override;
  WearSample Wear() const override;

 private:
  Status IssueOp(OpKind kind, const WorkloadOp& op, uint64_t* read_token);

  std::vector<ShadowEntry> shadow_;
  ShadowPendingOp pending_;
  uint64_t ok_writes_ = 0;
  uint64_t undetected_ = 0;
};

Status SscTarget::IssueOp(OpKind kind, const WorkloadOp& op, uint64_t* read_token) {
  SscDevice& d = dev(op.lbn);
  switch (kind) {
    case OpKind::kWriteDirty:
    case OpKind::kWriteClean: {
      const auto write = [&] {
        return kind == OpKind::kWriteDirty ? d.WriteDirty(op.lbn, op.token)
                                           : d.WriteClean(op.lbn, op.token);
      };
      Status s = write();
      if (s == Status::kBackpressure) {
        // Bounded stall, as the write-back manager would do: drain the log
        // (forcing a checkpoint) and retry once. The drain crosses commit
        // points of its own, so crashes inside the stall are explored too.
        d.DrainLog();
        s = write();
      }
      return s;
    }
    case OpKind::kRead:
      return d.Read(op.lbn, read_token);
    case OpKind::kClean:
      return d.Clean(op.lbn);
    case OpKind::kEvict:
      return d.Evict(op.lbn);
    case OpKind::kCollect:
      for (auto& ssc : devices_) {
        ssc->BackgroundCollect(/*budget_us=*/20'000);
      }
      return Status::kOk;
  }
  return Status::kOk;
}

bool SscTarget::RunOps(uint64_t seed, uint32_t ops, Violations* out) {
  pending_ = {};
  const std::vector<WorkloadOp> script =
      BuildWorkloadScript(seed, ops, config_.address_blocks, &next_token_);
  for (const WorkloadOp& op : script) {
    ShadowEntry& entry = shadow_[op.kind == OpKind::kCollect ? 0 : op.lbn];
    const bool write = op.kind == OpKind::kWriteDirty || op.kind == OpKind::kWriteClean;

    // Admission, exactly like the cache managers: a reject demotes the
    // insertion to an eviction of any cached copy — the data itself goes to
    // the unmodeled backing disk, so the block must afterwards read
    // not-present.
    OpKind effective = op.kind;
    bool rejected = false;
    if (write) {
      pol(op.lbn).OnAccess(op.lbn, /*is_write=*/true);
      const AdmissionOp aop =
          op.kind == OpKind::kWriteDirty ? AdmissionOp::kWriteDirty : AdmissionOp::kWriteClean;
      rejected = !pol(op.lbn).ShouldAdmit(
          op.lbn, aop, AdmissionContext{entry.state == ShadowState::kDirty});
      if (rejected) {
        effective = OpKind::kEvict;
      }
    } else if (op.kind == OpKind::kRead) {
      pol(op.lbn).OnAccess(op.lbn, /*is_write=*/false);
    }

    Status s = Status::kOk;
    uint64_t read_token = 0;
    try {
      s = IssueOp(effective, op, &read_token);
    } catch (const CrashInjected&) {
      // The sweep excuses the *effective* in-flight op: a rejected write was
      // running its bypass eviction, so its token must never surface.
      using Kind = ShadowPendingOp::Kind;
      const Kind kind = effective == OpKind::kEvict   ? Kind::kEvict
                        : effective == OpKind::kClean ? Kind::kClean
                        : write                       ? Kind::kWrite
                                                      : Kind::kNone;
      pending_ = {kind, op.lbn, op.token};
      // An admitted write interrupted by the crash may still have landed
      // durably, while the OnAdmit that would clear an old reject record
      // never ran. A real host rebuilds policy state after a crash; clear the
      // record so the rejected-block-absent audit never indicts the block.
      if (write && !rejected) {
        pol(op.lbn).OnAdmit(op.lbn);
      }
      return true;
    }
    ++ops_;
    if (write && !rejected && IsOk(s)) {
      ++ok_writes_;
    }
    // Faults the device *detects* (kCorrupt, kIoError, a lost page reading
    // not-present) are ordinary wear; a wrong token behind kOk is silent
    // corruption.
    if (effective == OpKind::kRead && s == Status::kOk &&
        (entry.state == ShadowState::kNone || entry.state == ShadowState::kEvicted ||
         read_token != entry.token)) {
      ++undetected_;
    }

    // Exactly one of OnAdmit/OnReject fires once the insertion (or its
    // bypass) completed; explicit evictions are reported through OnEvict.
    if (rejected) {
      pol(op.lbn).OnReject(op.lbn);
    } else if (write && IsOk(s)) {
      pol(op.lbn).OnAdmit(op.lbn);
    } else if (op.kind == OpKind::kEvict) {
      pol(op.lbn).OnEvict(op.lbn);
    }
    ApplyAcknowledged(effective, op.lbn, op.token, s, read_token, config_.faults.enabled, lost_,
                      entry, out);
  }
  return false;
}

void SscTarget::Verify(bool settle, Violations* out) {
  for (Lbn lbn = 0; lbn < shadow_.size(); ++lbn) {
    const ShadowEntry& entry = shadow_[lbn];
    // Allowed outcomes for the *acknowledged* state.
    bool allow_not_present = false;
    bool require_dirty = false;
    uint64_t allowed_tokens[2] = {0, 0};
    int allowed_count = 0;
    switch (entry.state) {
      case ShadowState::kNone:
      case ShadowState::kEvicted:
        allow_not_present = true;
        break;
      case ShadowState::kDirty:
        allowed_tokens[allowed_count++] = entry.token;
        require_dirty = true;  // G1: still dirty, or it could be silently lost
        break;
      case ShadowState::kClean:
      case ShadowState::kCleaned:
        allowed_tokens[allowed_count++] = entry.token;
        allow_not_present = true;  // silent eviction may have dropped it
        break;
    }
    // An injected fault destroyed this block's only copy mid-run: it may be
    // gone or unreadable, but a stale token is still forbidden.
    if (lost_.count(lbn) != 0) {
      require_dirty = false;
      allow_not_present = true;
    }
    // The in-flight operation may or may not have taken effect.
    if (pending_.kind != ShadowPendingOp::Kind::kNone && pending_.lbn == lbn) {
      require_dirty = false;
      if (pending_.kind == ShadowPendingOp::Kind::kWrite) {
        allowed_tokens[allowed_count++] = pending_.token;
        // The new version's record may be lost — but an overwrite of
        // acknowledged dirty data must not tear: recovery surfaces the old
        // version or the new one, never neither (the atomic remove+insert
        // batch in SscDevice::WriteInternal).
        allow_not_present = allow_not_present || entry.state != ShadowState::kDirty;
      } else if (pending_.kind == ShadowPendingOp::Kind::kEvict) {
        allow_not_present = true;
      }
    }

    uint64_t token = 0;
    const Status s = dev(lbn).Read(lbn, &token);
    if (s == Status::kNotPresent) {
      if (!allow_not_present) {
        out->push_back(FmtShadowViolation(entry.state == ShadowState::kDirty ? "G1" : "recovery",
                                          lbn, "acknowledged data missing after recovery"));
      }
      continue;
    }
    if (!IsOk(s)) {
      // A latent media fault may only be *detected* by this read, in which
      // case the loss hook has just fired; check membership after the read.
      if (lost_.count(lbn) == 0) {
        out->push_back(FmtShadowViolation("recovery", lbn, "read error after recovery"));
      }
      continue;
    }
    if (!std::count(allowed_tokens, allowed_tokens + allowed_count, token)) {
      // Any unexpected token is stale data: the exact failure G2 forbids
      // (and for dirty blocks, a torn G1).
      out->push_back(FmtShadowViolation(
          entry.state == ShadowState::kDirty ? "G1" : "G2", lbn,
          allowed_count == 0 ? "read returned data for an evicted/never-written block"
                             : "read returned stale data after recovery"));
      continue;
    }
    if (require_dirty) {
      Bitmap dirty_map;
      dev(lbn).Exists(lbn, 1, &dirty_map);
      if (!dirty_map.Test(0)) {
        out->push_back(FmtShadowViolation(
            "G1", lbn, "acknowledged dirty block recovered clean (could be silently lost)"));
      }
    }
  }

  if (settle && pending_.kind != ShadowPendingOp::Kind::kNone) {
    uint64_t token = 0;
    ShadowEntry& entry = shadow_[pending_.lbn];
    if (IsOk(dev(pending_.lbn).Read(pending_.lbn, &token))) {
      Bitmap dirty_map;
      dev(pending_.lbn).Exists(pending_.lbn, 1, &dirty_map);
      entry = {dirty_map.Test(0) ? ShadowState::kDirty : ShadowState::kClean, token};
    } else {
      entry = {ShadowState::kEvicted, 0};
    }
  }
}

WearSample SscTarget::Wear() const {
  WearSample w;
  w.ok_writes = ok_writes_;
  uint64_t retired = 0;
  uint64_t blocks = 0;
  for (const auto& ssc : devices_) {
    w.ftl.Merge(ssc->ftl_stats());
    retired += ssc->retired_block_count();
    blocks += ssc->device().geometry().TotalBlocks();
  }
  w.retired_pct =
      blocks == 0 ? 0.0 : 100.0 * static_cast<double>(retired) / static_cast<double>(blocks);
  w.erase_cv = EraseCountCv(devices_);
  return w;
}

void SscTarget::Finish(FlashCheckReport* report) {
  FlashStats flash;
  for (const auto& ssc : devices_) {
    report->persist.Merge(ssc->persist_stats());
    report->faults.Merge(ssc->device().fault_stats());
    report->ftl.Merge(ssc->ftl_stats());
    flash.Merge(ssc->flash_stats());
  }
  report->ops_executed = ops_;
  report->ok_writes = ok_writes_;
  report->undetected_corruptions = undetected_;
  report->host_pages_written = report->ftl.host_writes;
  report->erase_cv = EraseCountCv(devices_);
  report->write_amp = report->ftl.ExtraWritesPerBlock(flash.page_writes, flash.gc_copies);
}

}  // namespace

void AddAudit(const std::string& prefix, const CheckReport& audit, Violations* out) {
  for (const InvariantViolation& v : audit.violations) {
    out->push_back(prefix + " [" + v.invariant + "] " + v.detail);
  }
  if (audit.violation_count > audit.violations.size()) {
    const uint64_t truncated = audit.violation_count - audit.violations.size();
    out->push_back(StrFormat("%s: %llu further violations truncated", prefix.c_str(),
                             (unsigned long long)truncated));
  }
}

void Target::SimulateCrash() {
  for (SscDevice* ssc : sscs_) {
    ssc->SimulateCrash();
  }
}

Status Target::Recover() {
  Status first = Status::kOk;
  for (SscDevice* ssc : sscs_) {
    const Status s = ssc->Recover();
    if (!IsOk(s) && IsOk(first)) {
      first = s;
    }
  }
  return first;
}

void Target::PauseFaults(bool paused) {
  for (SscDevice* ssc : sscs_) {
    ssc->device_for_testing()->set_fault_injection_paused(paused);
  }
}

SscConfig ShardSscConfig(const FlashCheckConfig& c, uint32_t shards, uint32_t index) {
  SscConfig config;
  config.capacity_pages = c.capacity_pages / shards + (index < c.capacity_pages % shards ? 1 : 0);
  config.policy = c.policy;
  config.mode = c.mode;
  config.group_commit_ops = c.group_commit_ops;
  config.checkpoint_interval_writes = c.checkpoint_interval_writes;
  config.log_region_pages = c.log_region_pages;
  config.checkpoint_segment_entries = c.checkpoint_segment_entries;
  config.fault_plan = c.faults;
  // The same golden-ratio stride the system facade uses: every shard gets an
  // independent fault stream, and shard 0 keeps the configured seed.
  config.fault_plan.seed = c.faults.seed + 0x9e3779b97f4a7c15ull * index;
  config.break_retirement_for_testing = c.break_retirement;
  config.wear_level_interval_writes = c.wear_level_interval_writes;
  config.wear_level_max_diff = c.wear_level_max_diff;
  config.patrol_interval_writes = c.patrol_interval_writes;
  config.patrol_blocks_per_pass = c.patrol_blocks_per_pass;
  return config;
}

SscSet::SscSet(const FlashCheckConfig& config)
    : config_(config), router_{std::max<uint32_t>(1, config.shards), /*grain_pages=*/64} {
  for (uint32_t i = 0; i < router_.shards; ++i) {
    devices_.push_back(
        std::make_unique<SscDevice>(ShardSscConfig(config, router_.shards, i), &clock_));
    sscs_.push_back(devices_.back().get());
    // Dirty data destroyed by an injected medium fault: the hook fires the
    // instant the SSC drops a page it cannot read or relocate.
    devices_.back()->set_data_loss_hook([this](Lbn lbn) {
      if (lost_.insert(lbn).second) {
        ++loss_notifications_;
      }
    });
  }
  RebuildPolicies();
}

void SscSet::RebuildPolicies() {
  // One deterministic policy per shard, exactly as FlashTierSystem wires
  // them, so the decision sequence is identical across trials.
  policies_.clear();
  for (uint32_t i = 0; i < router_.shards; ++i) {
    policies_.push_back(MakeAdmissionPolicy(
        ShardPolicyConfig(config_.admission, router_.shards, i), &clock_));
  }
}

void SscSet::Audit(const std::string& phase, Violations* out) {
  // Every shard, plus partition disjointness across shards; then each
  // policy's memory bound and rejected-block absence.
  const std::vector<const SscDevice*> shards(sscs_.begin(), sscs_.end());
  AddAudit(phase + " invariant", InvariantChecker::CheckSharded(shards, router_), out);
  for (size_t i = 0; i < devices_.size(); ++i) {
    AddAudit(phase + " policy", InvariantChecker::CheckPolicy(*policies_[i], devices_[i].get()),
             out);
  }
}

std::unique_ptr<Target> MakeSscTarget(const FlashCheckConfig& config) {
  return std::make_unique<SscTarget>(config);
}

}  // namespace flashtier
