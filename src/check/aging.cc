#include "src/check/aging.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "src/check/invariant_checker.h"
#include "src/util/bitmap.h"
#include "src/util/json.h"

namespace flashtier {

namespace {

// Coefficient of variation of per-block erase counts across every block of
// every shard (retired blocks included — their frozen counts are part of the
// wear the device actually absorbed). 0 when nothing has been erased.
double EraseCountCv(const std::vector<std::unique_ptr<SscDevice>>& sscs) {
  uint64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& ssc : sscs) {
    const FlashDevice& dev = ssc->device();
    const uint32_t total = dev.geometry().TotalBlocks();
    for (uint32_t b = 0; b < total; ++b) {
      const double e = static_cast<double>(dev.erase_count(b));
      sum += e;
      sum_sq += e * e;
      ++n;
    }
  }
  if (n == 0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(n);
  if (mean <= 0.0) {
    return 0.0;
  }
  const double variance = std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
  return std::sqrt(variance) / mean;
}

double RetiredPct(const std::vector<std::unique_ptr<SscDevice>>& sscs) {
  uint64_t retired = 0;
  uint64_t total = 0;
  for (const auto& ssc : sscs) {
    retired += ssc->retired_block_count();
    total += ssc->device().geometry().TotalBlocks();
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(retired) / static_cast<double>(total);
}

}  // namespace

std::string AgingReport::ToString() const {
  char buffer[384];
  std::snprintf(buffer, sizeof(buffer),
                "aging: %u epochs, %llu ops, %llu pages written (%llu ok): %llu violations, "
                "%llu undetected corruptions, erase CV %.3f, write amp %.2f, "
                "miss %.3f -> %.3f, retired %.1f%% (serving at %.1f%%)%s",
                epochs_run, (unsigned long long)ops_executed,
                (unsigned long long)host_pages_written, (unsigned long long)ok_writes,
                (unsigned long long)violation_count,
                (unsigned long long)undetected_corruptions, erase_cv, write_amp,
                first_epoch_miss_rate, last_epoch_miss_rate, max_retired_pct, serving_retired_pct,
                write_exhausted ? ", write-exhausted" : "");
  std::string out(buffer);
  for (const std::string& s : samples) {
    out += "\n  ";
    out += s;
  }
  if (violation_count > samples.size()) {
    out += "\n  ...";
  }
  return out;
}

std::string AgingReport::ToJson() const {
  return JsonLine()
      .Open("aging")
      .U64("epochs", epochs_run)
      .U64("ops", ops_executed)
      .U64("pages_written", host_pages_written)
      .U64("ok_writes", ok_writes)
      .U64("violations", violation_count)
      .U64("undetected_corruptions", undetected_corruptions)
      .Double("erase_cv", erase_cv, 4)
      .Double("write_amp", write_amp, 3)
      .Double("first_epoch_miss_rate", first_epoch_miss_rate, 4)
      .Double("last_epoch_miss_rate", last_epoch_miss_rate, 4)
      .Double("max_retired_pct", max_retired_pct, 2)
      .Double("serving_retired_pct", serving_retired_pct, 2)
      .Bool("write_exhausted", write_exhausted)
      .Close()
      .Block("ftl", ftl)
      .Block("faults", faults)
      .str();
}

AgingHarness::AgingHarness(const AgingOptions& options) : options_(options) {}

AgingReport AgingHarness::Run() {
  AgingReport report;
  SimClock clock;
  const uint32_t shard_count = std::max<uint32_t>(1, options_.shards);
  const ShardRouter router{shard_count, /*grain_pages=*/64};

  // The long-lived device set: wear accumulates across the whole run, so it
  // is built exactly once. Each shard gets an independent fault stream via
  // the same golden-ratio seed stride the system facade uses.
  std::vector<std::unique_ptr<SscDevice>> sscs;
  sscs.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    SscConfig config;
    config.capacity_pages = options_.capacity_pages / shard_count +
                            (i < options_.capacity_pages % shard_count ? 1 : 0);
    config.policy = options_.policy;
    config.mode = options_.mode;
    config.fault_plan = options_.faults;
    if (options_.faults.enabled) {
      config.fault_plan.seed = options_.faults.seed + 0x9e3779b97f4a7c15ull * i;
    }
    config.wear_level_interval_writes = options_.wear_level_interval_writes;
    config.wear_level_max_diff = options_.wear_level_max_diff;
    config.patrol_interval_writes = options_.patrol_interval_writes;
    config.patrol_blocks_per_pass = options_.patrol_blocks_per_pass;
    sscs.push_back(std::make_unique<SscDevice>(config, &clock));
  }
  const auto dev = [&](Lbn lbn) -> SscDevice& { return *sscs[router.ShardOf(lbn)]; };
  std::vector<std::unique_ptr<AdmissionPolicy>> policies;
  policies.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    policies.push_back(
        MakeAdmissionPolicy(ShardPolicyConfig(options_.admission, shard_count, i), &clock));
  }
  const auto pol = [&](Lbn lbn) -> AdmissionPolicy& { return *policies[router.ShardOf(lbn)]; };
  std::vector<const SscDevice*> shard_views;
  shard_views.reserve(sscs.size());
  for (auto& ssc : sscs) {
    shard_views.push_back(ssc.get());
  }

  std::vector<ShadowEntry> shadow(options_.address_blocks);
  std::unordered_set<Lbn> lost;
  for (auto& ssc : sscs) {
    ssc->set_data_loss_hook([&lost](Lbn lbn) { lost.insert(lbn); });
  }
  const bool faults_on = options_.faults.enabled;
  uint64_t next_token = 1;
  uint64_t round = 0;

  const auto merged_ftl = [&sscs]() {
    FtlStats out;
    for (const auto& ssc : sscs) {
      out.Merge(ssc->ftl_stats());
    }
    return out;
  };

  for (uint32_t epoch = 0; epoch < options_.aging_multiple; ++epoch) {
    const FtlStats at_start = merged_ftl();
    std::vector<std::string> violations;
    uint32_t stalled_rounds = 0;
    bool quota_met = false;
    uint64_t epoch_ok_writes = 0;

    // Replay scripted rounds until one more full capacity of host writes has
    // landed. A device whose allocator retirement has exhausted every write
    // path makes no progress; after a few write-free rounds the run ends —
    // gracefully, which is the point.
    while (!quota_met) {
      const uint64_t writes_before = merged_ftl().host_writes;
      const std::vector<WorkloadOp> script =
          BuildWorkloadScript(options_.seed * 1000003 + round, options_.ops_per_round,
                              options_.address_blocks, &next_token);
      ++round;
      for (const WorkloadOp& op : script) {
        ShadowEntry& entry = op.kind == WorkloadOpKind::kCollect ? shadow[0] : shadow[op.lbn];

        WorkloadOpKind effective = op.kind;
        bool rejected = false;
        if (op.kind == WorkloadOpKind::kWriteDirty || op.kind == WorkloadOpKind::kWriteClean) {
          AdmissionPolicy& p = pol(op.lbn);
          p.OnAccess(op.lbn, /*is_write=*/true);
          AdmissionContext ctx;
          ctx.resident = entry.state == ShadowState::kDirty;
          const AdmissionOp aop = op.kind == WorkloadOpKind::kWriteDirty
                                      ? AdmissionOp::kWriteDirty
                                      : AdmissionOp::kWriteClean;
          if (!p.ShouldAdmit(op.lbn, aop, ctx)) {
            effective = WorkloadOpKind::kEvict;
            rejected = true;
          }
        } else if (op.kind == WorkloadOpKind::kRead) {
          pol(op.lbn).OnAccess(op.lbn, /*is_write=*/false);
        }

        Status s = Status::kOk;
        uint64_t read_token = 0;
        switch (effective) {
          case WorkloadOpKind::kWriteDirty:
            s = dev(op.lbn).WriteDirty(op.lbn, op.token);
            if (s == Status::kBackpressure) {
              dev(op.lbn).DrainLog();
              s = dev(op.lbn).WriteDirty(op.lbn, op.token);
            }
            break;
          case WorkloadOpKind::kWriteClean:
            s = dev(op.lbn).WriteClean(op.lbn, op.token);
            if (s == Status::kBackpressure) {
              dev(op.lbn).DrainLog();
              s = dev(op.lbn).WriteClean(op.lbn, op.token);
            }
            break;
          case WorkloadOpKind::kRead:
            s = dev(op.lbn).Read(op.lbn, &read_token);
            break;
          case WorkloadOpKind::kClean:
            s = dev(op.lbn).Clean(op.lbn);
            break;
          case WorkloadOpKind::kEvict:
            s = dev(op.lbn).Evict(op.lbn);
            break;
          case WorkloadOpKind::kCollect:
            for (auto& ssc : sscs) {
              ssc->BackgroundCollect(/*budget_us=*/20'000);
            }
            break;
        }
        ++report.ops_executed;
        if ((effective == WorkloadOpKind::kWriteDirty ||
             effective == WorkloadOpKind::kWriteClean) &&
            IsOk(s)) {
          ++report.ok_writes;
          ++epoch_ok_writes;
        }

        // The acceptance bar: a successful read must return a token the
        // shadow acknowledged. Faults the device *detects* (kCorrupt,
        // kIoError, a lost page reading not-present) are ordinary wear;
        // a wrong token behind kOk is silent corruption.
        if (effective == WorkloadOpKind::kRead && s == Status::kOk &&
            (entry.state == ShadowState::kNone || entry.state == ShadowState::kEvicted ||
             read_token != entry.token)) {
          ++report.undetected_corruptions;
        }

        if (rejected) {
          pol(op.lbn).OnReject(op.lbn);
        } else if ((op.kind == WorkloadOpKind::kWriteDirty ||
                    op.kind == WorkloadOpKind::kWriteClean) &&
                   IsOk(s)) {
          pol(op.lbn).OnAdmit(op.lbn);
        } else if (op.kind == WorkloadOpKind::kEvict) {
          pol(op.lbn).OnEvict(op.lbn);
        }

        ApplyAcknowledged(effective, op.lbn, op.token, s, read_token, faults_on, lost, entry,
                          &violations);
      }

      const uint64_t writes_after = merged_ftl().host_writes;
      if (writes_after == writes_before) {
        if (++stalled_rounds >= 8) {
          report.write_exhausted = true;
          break;
        }
      } else {
        stalled_rounds = 0;
      }
      quota_met = writes_after - at_start.host_writes >= options_.capacity_pages;
    }

    // Epoch audit: structural invariants (including the endurance audits),
    // policy audits, then the full shadow sweep. Fault draws are paused so
    // observing the device cannot age it; sticky fault state stays in force.
    for (auto& ssc : sscs) {
      ssc->device_for_testing()->set_fault_injection_paused(true);
    }
    const CheckReport structural = InvariantChecker::CheckSharded(shard_views, router);
    for (const InvariantViolation& v : structural.violations) {
      violations.push_back("invariant [" + v.invariant + "] " + v.detail);
    }
    for (uint32_t i = 0; i < shard_count; ++i) {
      const CheckReport pr = InvariantChecker::CheckPolicy(*policies[i], sscs[i].get());
      for (const InvariantViolation& v : pr.violations) {
        violations.push_back("policy [" + v.invariant + "] " + v.detail);
      }
    }
    VerifyAgainstShadow(shadow, dev, lost, ShadowPendingOp{}, &violations);
    for (auto& ssc : sscs) {
      ssc->device_for_testing()->set_fault_injection_paused(false);
    }

    // Lifetime curves.
    const FtlStats now = merged_ftl();
    const uint64_t epoch_reads = now.host_reads - at_start.host_reads;
    const uint64_t epoch_misses = now.host_read_misses - at_start.host_read_misses;
    const double miss_rate =
        epoch_reads == 0 ? 0.0
                         : static_cast<double>(epoch_misses) / static_cast<double>(epoch_reads);
    if (epoch == 0) {
      report.first_epoch_miss_rate = miss_rate;
    }
    report.last_epoch_miss_rate = miss_rate;
    const double retired_pct = RetiredPct(sscs);
    report.max_retired_pct = std::max(report.max_retired_pct, retired_pct);
    if (quota_met) {
      ++report.epochs_run;
      if (epoch_ok_writes > 0) {
        report.serving_retired_pct = retired_pct;
      }
    }

    report.violation_count += violations.size();
    for (std::string& v : violations) {
      if (options_.verbose) {
        std::fprintf(stderr, "flashcheck: aging epoch %u: %s\n", epoch, v.c_str());
      }
      if (report.samples.size() < AgingReport::kMaxSamples) {
        char prefix[32];
        std::snprintf(prefix, sizeof(prefix), "[epoch %u] ", epoch);
        report.samples.push_back(prefix + std::move(v));
      }
    }
    if (options_.verbose) {
      std::fprintf(stderr,
                   "flashcheck: aging epoch %u: %llu writes, miss %.3f, retired %.1f%%, "
                   "erase CV %.3f%s\n",
                   epoch, (unsigned long long)(now.host_writes - at_start.host_writes), miss_rate,
                   retired_pct, EraseCountCv(sscs), report.write_exhausted ? " (exhausted)" : "");
    }
    if (report.write_exhausted) {
      break;
    }
  }

  FlashStats flash;
  for (auto& ssc : sscs) {
    report.ftl.Merge(ssc->ftl_stats());
    report.faults.Merge(ssc->device().fault_stats());
    flash.Merge(ssc->flash_stats());
  }
  report.host_pages_written = report.ftl.host_writes;
  report.erase_cv = EraseCountCv(sscs);
  report.write_amp = report.ftl.ExtraWritesPerBlock(flash.page_writes, flash.gc_copies);
  return report;
}

}  // namespace flashtier
