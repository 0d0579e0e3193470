#include "src/check/soak.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "src/check/invariant_checker.h"
#include "src/util/bitmap.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace flashtier {

namespace {

// Same mechanism as the crash explorer: thrown by a persistence hook to
// simulate power failure, unwinding through device code whose abandoned
// state is RAM the crash wipes anyway.
struct CrashInjected {};

}  // namespace

std::string SoakReport::ToString() const {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "soak: %u cycles, %llu ops, %llu mid-workload + %llu quiescent crashes, "
                "%llu recovery crashes: %llu violations, %llu budget breaches, "
                "recovery max %llu us",
                cycles_run, (unsigned long long)ops_executed,
                (unsigned long long)mid_workload_crashes, (unsigned long long)quiescent_crashes,
                (unsigned long long)recovery_crashes, (unsigned long long)violation_count,
                (unsigned long long)budget_exceeded, (unsigned long long)max_recovery_us);
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

std::string SoakReport::ToJson(uint64_t budget_us) const {
  const uint64_t mean_recovery = cycles_run != 0 ? total_recovery_us / cycles_run : 0;
  return JsonLine()
      .Open("soak")
      .U64("cycles", cycles_run)
      .U64("ops", ops_executed)
      .U64("mid_workload_crashes", mid_workload_crashes)
      .U64("quiescent_crashes", quiescent_crashes)
      .U64("recovery_crashes", recovery_crashes)
      .U64("violations", violation_count)
      .U64("budget_us", budget_us)
      .U64("budget_exceeded", budget_exceeded)
      .U64("max_recovery_us", max_recovery_us)
      .U64("mean_recovery_us", mean_recovery)
      .Close()
      .Block("persist", persist)
      .Block("faults", faults)
      .str();
}

SoakHarness::SoakHarness(const SoakOptions& options) : options_(options) {}

SoakReport SoakHarness::Run() {
  SoakReport report;
  SimClock clock;
  const uint32_t shard_count = std::max<uint32_t>(1, options_.shards);
  const ShardRouter router{shard_count, /*grain_pages=*/64};

  // The long-lived device set: built once, never rebuilt — each cycle's
  // recovery must hand the *same* devices back in a consistent state.
  std::vector<std::unique_ptr<SscDevice>> sscs;
  sscs.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    SscConfig config;
    config.capacity_pages = options_.capacity_pages / shard_count +
                            (i < options_.capacity_pages % shard_count ? 1 : 0);
    config.policy = options_.policy;
    config.mode = options_.mode;
    config.group_commit_ops = options_.group_commit_ops;
    config.checkpoint_interval_writes = options_.checkpoint_interval_writes;
    config.log_region_pages = options_.log_region_pages;
    config.checkpoint_segment_entries = options_.checkpoint_segment_entries;
    config.fault_plan = options_.faults;
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
  uint64_t observed_points = 0;  // commit points in the last uncrashed cycle
  Rng rng(options_.seed);

  for (uint32_t cycle = 0; cycle < options_.cycles; ++cycle) {
    const std::vector<WorkloadOp> script =
        BuildWorkloadScript(options_.seed * 1000003 + cycle, options_.ops_per_cycle,
                            options_.address_blocks, &next_token);

    // Arm the crash: a fair coin decides whether this cycle dies mid-workload
    // (a countdown over commit points, calibrated to the point count of the
    // last uncrashed cycle — a warm device logs far fewer records per op than
    // a filling one) or at quiescence. Both must be survivable, and the mix
    // is part of the storm. The first cycle, and any draw past the cycle's
    // actual point count, lands quiescent.
    uint64_t countdown = 0;
    if (observed_points > 0 && rng.Below(2) == 0) {
      countdown = rng.Below(observed_points) + 1;
    }
    uint64_t points_this_cycle = 0;
    for (auto& ssc : sscs) {
      ssc->persist_for_testing()->set_commit_point_hook_for_testing(
          [&countdown, &points_this_cycle](CommitPoint) {
            ++points_this_cycle;
            if (countdown > 0 && --countdown == 0) {
              throw CrashInjected{};
            }
          });
    }

    std::vector<std::string> violations;
    bool crashed = false;
    size_t in_flight = script.size();
    WorkloadOpKind in_flight_kind = WorkloadOpKind::kCollect;
    for (size_t i = 0; i < script.size() && !crashed; ++i) {
      const WorkloadOp& op = script[i];
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
      try {
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
      } catch (const CrashInjected&) {
        crashed = true;
        in_flight = i;
        in_flight_kind = effective;
        // See the explorer: an admitted write interrupted mid-flight may
        // still have landed; clear any stale reject record so the
        // rejected-block-absent audit cannot indict it.
        if (!rejected &&
            (op.kind == WorkloadOpKind::kWriteDirty || op.kind == WorkloadOpKind::kWriteClean)) {
          pol(op.lbn).OnAdmit(op.lbn);
        }
        break;
      }
      ++report.ops_executed;

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
    for (auto& ssc : sscs) {
      ssc->persist_for_testing()->set_commit_point_hook_for_testing(nullptr);
    }
    if (crashed) {
      ++report.mid_workload_crashes;
    } else {
      ++report.quiescent_crashes;
      observed_points = std::max<uint64_t>(points_this_cycle, 1);
    }

    // Draw this cycle's recovery-crash schedule (the ordinal counter runs
    // across retries, so two ascending ordinals make a double crash).
    std::vector<uint64_t> recovery_crash_points;
    const uint32_t period = options_.recovery_crash_period;
    if (period != 0 && cycle % period == period - 1) {
      const uint64_t r = rng.Below(5ull * shard_count);
      recovery_crash_points.push_back(r);
      if (cycle % (2 * period) == 2 * period - 1) {
        recovery_crash_points.push_back(r + 1 + rng.Below(3));
      }
    }

    uint64_t recovery_points = 0;
    size_t next_crash = 0;
    for (auto& ssc : sscs) {
      ssc->persist_for_testing()->set_recovery_point_hook_for_testing(
          [&recovery_points, &next_crash, &recovery_crash_points](RecoveryPoint) {
            const uint64_t ordinal = recovery_points++;
            if (next_crash < recovery_crash_points.size() &&
                ordinal == recovery_crash_points[next_crash]) {
              ++next_crash;
              throw CrashInjected{};
            }
          });
      ssc->SimulateCrash();
    }
    bool recovered = false;
    for (int attempt = 0; attempt < 4 && !recovered; ++attempt) {
      try {
        bool all_ok = true;
        for (auto& ssc : sscs) {
          // A non-OK Recover is not a crash to retry — the device refused to
          // come back up; surface it instead of silently looping.
          if (!IsOk(ssc->Recover())) {
            all_ok = false;
          }
        }
        if (!all_ok) {
          violations.emplace_back("recovery: device Recover returned an error");
          break;
        }
        recovered = true;
      } catch (const CrashInjected&) {
        ++report.recovery_crashes;
        for (auto& ssc : sscs) {
          ssc->SimulateCrash();
        }
      }
    }
    for (auto& ssc : sscs) {
      ssc->persist_for_testing()->set_recovery_point_hook_for_testing(nullptr);
    }
    if (!recovered) {
      violations.emplace_back("recovery: did not complete within the retry bound");
    }

    // Recovery-time budget: shards recover in parallel in a real deployment,
    // so a cycle is charged its slowest shard.
    uint64_t cycle_recovery_us = 0;
    for (auto& ssc : sscs) {
      cycle_recovery_us =
          std::max(cycle_recovery_us, ssc->persist_for_testing()->stats().last_recovery_us);
    }
    report.max_recovery_us = std::max(report.max_recovery_us, cycle_recovery_us);
    report.total_recovery_us += cycle_recovery_us;
    if (options_.recovery_budget_us != 0 && cycle_recovery_us > options_.recovery_budget_us) {
      ++report.budget_exceeded;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "recovery took %llu us (budget %llu us)",
                    (unsigned long long)cycle_recovery_us,
                    (unsigned long long)options_.recovery_budget_us);
      violations.emplace_back(buf);
    }

    // Verify: structural invariants, policy audits, then the full shadow
    // sweep. Fault draws are paused so checking cannot destroy state; sticky
    // fault state stays in force.
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

    ShadowPendingOp pending;
    if (crashed && in_flight < script.size()) {
      const WorkloadOp& op = script[in_flight];
      pending.lbn = op.lbn;
      pending.token = op.token;
      switch (in_flight_kind) {
        case WorkloadOpKind::kWriteDirty:
        case WorkloadOpKind::kWriteClean:
          pending.kind = ShadowPendingOp::Kind::kWrite;
          break;
        case WorkloadOpKind::kEvict:
          pending.kind = ShadowPendingOp::Kind::kEvict;
          break;
        case WorkloadOpKind::kClean:
          pending.kind = ShadowPendingOp::Kind::kClean;
          break;
        case WorkloadOpKind::kRead:
        case WorkloadOpKind::kCollect:
          break;
      }
    }
    VerifyAgainstShadow(shadow, dev, lost, pending, &violations);

    // The storm resumes on the same shadow: settle the pending op's entry to
    // whatever the device actually recovered (both outcomes were legal), so
    // the ambiguity does not leak into the next cycle's expectations.
    if (pending.kind != ShadowPendingOp::Kind::kNone) {
      uint64_t token = 0;
      const Status s = dev(pending.lbn).Read(pending.lbn, &token);
      ShadowEntry& entry = shadow[pending.lbn];
      if (IsOk(s)) {
        Bitmap dirty_map;
        dev(pending.lbn).Exists(pending.lbn, 1, &dirty_map);
        entry = {dirty_map.Test(0) ? ShadowState::kDirty : ShadowState::kClean, token};
      } else {
        entry = {ShadowState::kEvicted, 0};
      }
    }
    for (auto& ssc : sscs) {
      ssc->device_for_testing()->set_fault_injection_paused(false);
    }

    report.violation_count += violations.size();
    for (std::string& v : violations) {
      if (options_.verbose) {
        std::fprintf(stderr, "flashcheck: soak cycle %u: %s\n", cycle, v.c_str());
      }
      if (report.samples.size() < SoakReport::kMaxSamples) {
        char prefix[32];
        std::snprintf(prefix, sizeof(prefix), "[cycle %u] ", cycle);
        report.samples.push_back(prefix + std::move(v));
      }
    }
    if (options_.verbose) {
      std::fprintf(stderr,
                   "flashcheck: soak cycle %u: %s crash, %zu recovery crash(es), "
                   "recovery %llu us\n",
                   cycle, crashed ? "mid-workload" : "quiescent", recovery_crash_points.size(),
                   (unsigned long long)cycle_recovery_us);
    }
    ++report.cycles_run;
    if (!recovered) {
      break;  // an unrecoverable device makes further cycles meaningless
    }
  }

  for (auto& ssc : sscs) {
    report.persist.Merge(ssc->persist_for_testing()->stats());
    report.faults.Merge(ssc->device().fault_stats());
  }
  return report;
}

}  // namespace flashtier
