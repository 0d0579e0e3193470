#include "src/check/runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/check/target.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/str_format.h"

namespace flashtier {

CheckSchedule ScheduleOf(const FlashCheckConfig& config) {
  return config.aging_multiple > 0 ? CheckSchedule::kAging
         : config.cycles > 0       ? CheckSchedule::kSoak
                                   : CheckSchedule::kExplore;
}

FlashCheckConfig DefaultFlashCheckConfig(CheckTarget target, uint32_t aging_multiple) {
  FlashCheckConfig c;
  c.faults.program_fail_prob = 0.01;
  c.faults.erase_fail_prob = 0.05;
  c.faults.read_corrupt_prob = 0.005;
  if (target == CheckTarget::kDisk) {
    c.cycles = 8;
    c.disk_faults.enabled = true;
    c.disk_faults.read_fail_prob = 0.01;
    c.disk_faults.write_fail_prob = 0.02;
    c.disk_faults.latent_prob = 0.002;
    c.disk_faults.slow_io_prob = 0.01;
  }
  c.aging_multiple = aging_multiple;
  if (aging_multiple > 0) {
    c.ops_per_cycle = 512;
    // Aging stresses wear, not the log: SscConfig's own commit cadence.
    const SscConfig ssc;
    c.group_commit_ops = ssc.group_commit_ops;
    c.checkpoint_interval_writes = ssc.checkpoint_interval_writes;
    c.log_region_pages = ssc.log_region_pages;
    c.checkpoint_segment_entries = ssc.checkpoint_segment_entries;
    c.wear_level_interval_writes = 32;
    c.patrol_interval_writes = 64;
    // The default device is tiny (10 blocks/shard), so blocks see a handful
    // of erases per capacity written; a single-digit wear limit is the scaled
    // equivalent of real NAND's thousands of P/E cycles.
    c.faults.wear_out_erases = 6;
    c.faults.read_disturb_limit = 64;
    c.faults.read_disturb_prob = 0.05;
    c.faults.retention_age_us = 300'000;
    c.faults.retention_fail_prob = 0.05;
  }
  return c;
}

const char* ValidateFlashCheckConfig(CheckTarget target, const FlashCheckConfig& c) {
  const CheckSchedule schedule = ScheduleOf(c);
  const FlashCheckConfig d = DefaultFlashCheckConfig(target, c.aging_multiple);
  if (schedule == CheckSchedule::kAging && (target != CheckTarget::kSsc || c.cycles > 0)) {
    return "--aging runs on the block SSC only: not with --soak, --kv or --disk-faults";
  }
  if (schedule == CheckSchedule::kAging && c.break_recovery) {
    return "--aging injects no crash, so --break-recovery has nothing to break";
  }
  if (target == CheckTarget::kDisk && schedule != CheckSchedule::kSoak) {
    return "--disk-faults runs crash cycles (--soak=N), not commit-point exploration";
  }
  if (c.break_retirement && !c.faults.enabled) {
    return "--break-retry requires --faults";
  }
  if (schedule != CheckSchedule::kExplore &&
      (c.ops != d.ops || c.stride != d.stride || c.max_points != d.max_points ||
       c.explore_recovery_points != d.explore_recovery_points)) {
    return "--ops, --stride, --max-points and --no-recovery-points drive only the "
           "commit-point explorer (no --soak, --aging or --disk-faults)";
  }
  if (schedule == CheckSchedule::kExplore && c.ops_per_cycle != d.ops_per_cycle) {
    return "--soak-ops needs --soak, --aging or --disk-faults";
  }
  if (schedule != CheckSchedule::kSoak &&
      (c.recovery_crash_period != d.recovery_crash_period ||
       c.recovery_budget_us != d.recovery_budget_us)) {
    return "--recovery-crash-period and --recovery-budget-us need --soak or --disk-faults";
  }
  if (schedule != CheckSchedule::kAging &&
      (c.wear_level_interval_writes != d.wear_level_interval_writes ||
       c.wear_level_max_diff != d.wear_level_max_diff ||
       c.patrol_interval_writes != d.patrol_interval_writes ||
       c.patrol_blocks_per_pass != d.patrol_blocks_per_pass)) {
    return "--wl-interval, --wl-max-diff, --patrol-interval and --patrol-blocks need --aging";
  }
  const DiskFaultPlan& df = c.disk_faults;
  if (target != CheckTarget::kDisk &&
      (c.write_through || !c.crashes || c.scrub_period != d.scrub_period ||
       c.scrub_budget != d.scrub_budget || df.enabled || df.seed != d.disk_faults.seed ||
       df.read_fail_prob != 0.0 || df.write_fail_prob != 0.0 || df.latent_prob != 0.0 ||
       df.slow_io_prob != 0.0 || c.disk_retry.max_attempts != d.disk_retry.max_attempts ||
       c.disk_retry.op_deadline_us != d.disk_retry.op_deadline_us)) {
    return "--write-through, --no-crashes, --scrub-* and --disk-* need --disk-faults";
  }
  if (target != CheckTarget::kKv &&
      (c.keys != d.keys || c.slab_pages != d.slab_pages || c.packing != d.packing)) {
    return "--kv-keys, --slab-pages and --no-packing need --kv";
  }
  if (target == CheckTarget::kKv &&
      (c.address_blocks != d.address_blocks || c.policy != d.policy)) {
    return "--kv reads neither --address-blocks nor --policy";
  }
  return nullptr;
}

void FlashCheckReport::Record(const std::string& tag, std::vector<std::string> found,
                              bool verbose) {
  if (found.empty()) {
    return;
  }
  ++trials_with_violations;
  violation_count += found.size();
  for (std::string& v : found) {
    if (verbose) {
      std::fprintf(stderr, "flashcheck: %s: %s\n", tag.c_str(), v.c_str());
    }
    if (samples.size() < kMaxSamples) {
      samples.push_back("[" + tag + "] " + std::move(v));
    }
  }
}

std::string FlashCheckReport::ToString() const {
  using ull = unsigned long long;
  const bool is_kv = target == CheckTarget::kKv;
  std::string out;
  if (schedule == CheckSchedule::kExplore) {
    out = StrFormat("%sexplored %llu of %llu commit points + %llu recovery trials over %llu "
                    "recovery points: %llu violations in %llu trials",
                    is_kv ? "kv: " : "", (ull)points_explored, (ull)total_commit_points,
                    (ull)recovery_trials, (ull)total_recovery_points, (ull)violation_count,
                    (ull)trials_with_violations);
  } else if (schedule == CheckSchedule::kAging) {
    out = StrFormat("aging: %u epochs, %llu ops, %llu pages written (%llu ok): %llu violations, "
                    "%llu undetected corruptions, erase CV %.3f, write amp %.2f, "
                    "miss %.3f -> %.3f, retired %.1f%% (serving at %.1f%%)%s",
                    epochs_run, (ull)ops_executed, (ull)host_pages_written, (ull)ok_writes,
                    (ull)violation_count, (ull)undetected_corruptions, erase_cv, write_amp,
                    first_epoch_miss_rate, last_epoch_miss_rate, max_retired_pct,
                    serving_retired_pct, write_exhausted ? ", write-exhausted" : "");
  } else if (target == CheckTarget::kDisk) {
    out = StrFormat("disk-guard: %u cycles, %llu ops, %llu crashes (%llu in recovery), "
                    "%llu write / %llu read refusals, %llu losses notified, "
                    "%llu rescued reads, %llu parked, %llu scrubbed: %llu violations",
                    cycles_run, (ull)ops_executed, (ull)crashes, (ull)recovery_crashes,
                    (ull)write_errors, (ull)read_errors, (ull)loss_notifications,
                    (ull)manager.rescued_reads, (ull)manager.parked_writebacks,
                    (ull)manager.scrub_repairs, (ull)violation_count);
  } else {
    out = StrFormat("%s: %u cycles, %llu ops, %llu mid-workload + %llu quiescent crashes, "
                    "%llu recovery crashes: %llu violations, %llu budget breaches, "
                    "recovery max %llu us",
                    is_kv ? "kv soak" : "soak", cycles_run, (ull)ops_executed,
                    (ull)mid_workload_crashes, (ull)(crashes - mid_workload_crashes),
                    (ull)recovery_crashes, (ull)violation_count, (ull)budget_exceeded,
                    (ull)max_recovery_us);
  }
  if ((is_kv || schedule == CheckSchedule::kExplore) &&
      (faults.program_failures != 0 || faults.erase_failures != 0 ||
       faults.read_corruptions != 0)) {
    out += StrFormat("\n  faults injected%s: %llu program, %llu erase, %llu read",
                     is_kv ? "" : " per trial", (ull)faults.program_failures,
                     (ull)faults.erase_failures, (ull)faults.read_corruptions);
  }
  for (const std::string& s : samples) {
    out += "\n  " + s;
  }
  if (violation_count > samples.size()) {
    out += "\n  ...";
  }
  return out;
}

std::string FlashCheckReport::ToJson() const {
  JsonLine json;
  if (target == CheckTarget::kKv) {
    json.Open("kv_check")
        .Str("mode", schedule == CheckSchedule::kSoak ? "soak" : "explore")
        .U64("commit_points", total_commit_points)
        .U64("points_explored", points_explored)
        .U64("recovery_points", total_recovery_points)
        .U64("recovery_trials", recovery_trials)
        .U64("cycles", cycles_run)
        .U64("ops", ops_executed)
        .U64("mid_workload_crashes", mid_workload_crashes)
        .U64("quiescent_crashes", crashes - mid_workload_crashes)
        .U64("recovery_crashes", recovery_crashes)
        .U64("violations", violation_count)
        .U64("budget_exceeded", budget_exceeded)
        .U64("max_recovery_us", max_recovery_us)
        .Close()
        .Block("kv", kv)
        .Block("faults", faults);
  } else if (target == CheckTarget::kDisk) {
    json.Open("disk_guard")
        .U64("cycles", cycles_run)
        .U64("ops", ops_executed)
        .U64("write_errors", write_errors)
        .U64("read_errors", read_errors)
        .U64("loss_notifications", loss_notifications)
        .U64("crashes", crashes)
        .U64("recovery_crashes", recovery_crashes)
        .U64("scrub_passes", scrub_passes)
        .U64("violations", violation_count)
        .Close()
        .Block("disk", disk)
        .Block("manager", manager);
  } else if (schedule == CheckSchedule::kAging) {
    json.Open("aging")
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
        .Block("faults", faults);
  } else if (schedule == CheckSchedule::kSoak) {
    json.Open("soak")
        .U64("cycles", cycles_run)
        .U64("ops", ops_executed)
        .U64("mid_workload_crashes", mid_workload_crashes)
        .U64("quiescent_crashes", crashes - mid_workload_crashes)
        .U64("recovery_crashes", recovery_crashes)
        .U64("violations", violation_count)
        .U64("budget_us", budget_us)
        .U64("budget_exceeded", budget_exceeded)
        .U64("max_recovery_us", max_recovery_us)
        .U64("mean_recovery_us", cycles_run != 0 ? total_recovery_us / cycles_run : 0)
        .Close()
        .Block("persist", persist)
        .Block("faults", faults);
  } else {
    return "";
  }
  return json.str();
}

namespace {

std::unique_ptr<Target> MakeTarget(CheckTarget target, const FlashCheckConfig& config) {
  switch (target) {
    case CheckTarget::kDisk:
      return MakeDiskTarget(config);
    case CheckTarget::kKv:
      return MakeKvTarget(config);
    case CheckTarget::kSsc:
      break;
  }
  return MakeSscTarget(config);
}

// The crash step every schedule shares, part one: runs one workload pass
// with a power failure armed `countdown` commit points in (0 = never).
// Commit points — log appends, flush and checkpoint boundaries including
// every checkpoint segment, silent-eviction erase barriers — count across
// every shard in execution order. `kinds`, when given, records each point.
bool RunArmed(Target& t, uint64_t seed, uint32_t ops, uint64_t countdown, uint64_t* points,
              std::vector<CommitPoint>* kinds, bool trace, Violations* out) {
  *points = 0;
  for (SscDevice* ssc : t.sscs()) {
    ssc->persist_for_testing()->set_commit_point_hook_for_testing([&](CommitPoint p) {
      if (trace) {
        std::fprintf(stderr, "flashcheck: point %llu = %s\n", (unsigned long long)*points,
                     CommitPointName(p));
      }
      if (kinds != nullptr) {
        kinds->push_back(p);
      }
      ++*points;
      if (countdown > 0) {
        --countdown;
        if (countdown == 0) {
          throw CrashInjected{};
        }
      }
    });
  }
  const bool crashed = t.RunOps(seed, ops, out);
  for (SscDevice* ssc : t.sscs()) {
    ssc->persist_for_testing()->set_commit_point_hook_for_testing(nullptr);
  }
  return crashed;
}

// Part two: power-fails every shard at once, then recovers, crashing again
// at each recovery-point ordinal in `at`. The ordinal counter keeps running
// across recovery attempts, so two ascending ordinals make a double crash.
// Recovery only reads durable state, so the controller restarts it from the
// top; 4 bounded attempts make a livelocked recovery fail, not hang.
bool CrashAndRecover(Target& t, const std::vector<uint64_t>& at, const FlashCheckConfig& c,
                     uint64_t* points, uint64_t* crashes, Violations* out) {
  *points = 0;
  size_t next = 0;
  for (SscDevice* ssc : t.sscs()) {
    // --break-recovery: recovery drops the log tail.
    ssc->persist_for_testing()->set_skip_log_tail_replay_for_testing(c.break_recovery);
    ssc->persist_for_testing()->set_recovery_point_hook_for_testing([&](RecoveryPoint) {
      const uint64_t ordinal = (*points)++;
      if (next < at.size() && ordinal == at[next]) {
        ++next;
        throw CrashInjected{};
      }
    });
  }
  t.SimulateCrash();
  bool recovered = false;
  for (int attempt = 0; attempt < 4 && !recovered; ++attempt) {
    try {
      if (!IsOk(t.Recover())) {
        // The device refused to come back up: not a crash to retry.
        out->emplace_back("recovery: device Recover returned an error");
        break;
      }
      recovered = true;
    } catch (const CrashInjected&) {
      ++*crashes;
      t.SimulateCrash();
    }
  }
  if (!recovered) {
    out->emplace_back("recovery: did not complete within the retry bound");
  }
  for (SscDevice* ssc : t.sscs()) {
    ssc->persist_for_testing()->set_recovery_point_hook_for_testing(nullptr);
  }
  if (recovered) {
    t.AfterRecovery();
  }
  return recovered;
}

// Explore: a crash-free counting pass (which must itself recover clean from
// a quiescent crash), one trial per (strided) commit point, then 3 trials
// per recovery point. Each trial runs the same deterministic script on a
// fresh target.
void Explore(CheckTarget kind, const FlashCheckConfig& c, FlashCheckReport* report) {
  std::vector<CommitPoint> kinds;
  const auto trial = [&](const std::string& tag, uint64_t countdown,
                         const std::vector<uint64_t>& recovery_at, bool probe) {
    const std::unique_ptr<Target> t = MakeTarget(kind, c);
    Violations found;
    uint64_t points = 0;
    uint64_t recovery_points = 0;
    uint64_t recovery_crashes = 0;
    const bool crashed = RunArmed(*t, c.seed, c.ops, countdown, &points, probe ? &kinds : nullptr,
                                  probe && c.verbose, &found);
    // Checking must not destroy state: pause new fault draws from here on.
    t->PauseFaults(true);
    // A completed script's live state must be sound too: this catches fault-
    // handling bugs a crash would mask (the --break-retry self-test).
    if (!crashed && c.run_invariant_checker) {
      t->Audit("live-state", &found);
    }
    CrashAndRecover(*t, recovery_at, c, &recovery_points, &recovery_crashes, &found);
    if (c.run_invariant_checker) {
      t->Audit("post-recovery", &found);
    }
    t->Verify(/*settle=*/false, &found);
    if (probe) {
      report->total_commit_points = points;
      report->total_recovery_points = recovery_points;
      t->Finish(report);
    }
    report->Record(tag, std::move(found), c.verbose);
  };
  using ull = unsigned long long;

  trial("crash-free", 0, {}, /*probe=*/true);
  const uint32_t stride = std::max<uint32_t>(1, c.stride);
  for (uint64_t point = 0; point < report->total_commit_points; point += stride) {
    if (c.max_points != 0 && report->points_explored >= c.max_points) {
      break;
    }
    trial(StrFormat("point %llu", (ull)point), point + 1, {}, false);
    ++report->points_explored;
  }
  if (!c.explore_recovery_points) {
    return;
  }
  // Prefer mid-checkpoint commit points for the workload crash: a torn
  // segment generation is the hardest durable state a crashed recovery can
  // be asked to re-enter.
  std::vector<uint64_t> ckpt_points;
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == CommitPoint::kCheckpointStart || kinds[i] == CommitPoint::kCheckpointSegment ||
        kinds[i] == CommitPoint::kCheckpointDone) {
      ckpt_points.push_back(i);
    }
  }
  const uint64_t total = report->total_commit_points;
  for (uint64_t r = 0; r < report->total_recovery_points; ++r) {
    const uint64_t c1 = !ckpt_points.empty() ? ckpt_points[r % ckpt_points.size()]
                        : total != 0         ? (r * 13) % total
                                             : ~uint64_t{0};
    trial(StrFormat("crash %llu, recovery crash %llu", (ull)c1, (ull)r), c1 + 1, {r}, false);
    // Double crash: the restarted recovery crashes again a few points in.
    const uint64_t r2 = r + 1 + (r * 7919) % 3;
    trial(StrFormat("crash %llu, double recovery crash %llu+%llu", (ull)c1, (ull)r, (ull)r2),
          c1 + 1, {r, r2}, false);
    trial(StrFormat("quiescent, recovery crash %llu", (ull)r), 0, {r}, false);
    report->recovery_trials += 3;
  }
}

// Soak: one long-lived target survives `cycles` crash -> recover -> verify
// -> resume cycles; nothing is rebuilt between cycles, so corruption that
// survives one recovery is given every chance to compound.
void Soak(Target& t, const FlashCheckConfig& c, FlashCheckReport* report) {
  Rng rng(c.seed);
  const uint64_t shards = t.sscs().size();
  uint64_t observed_points = 0;  // commit points in the last uncrashed cycle
  for (uint32_t cycle = 0; cycle < c.cycles; ++cycle) {
    Violations found;
    // A fair coin decides whether this cycle dies mid-workload (a countdown
    // calibrated to the last uncrashed cycle's point count — a warm device
    // logs far fewer records per op than a filling one) or at quiescence.
    // The first cycle, and any draw past the cycle's point count, lands
    // quiescent.
    uint64_t countdown = 0;
    if (c.crashes && observed_points > 0 && rng.Below(2) == 0) {
      countdown = rng.Below(observed_points) + 1;
    }
    uint64_t points = 0;
    const bool crashed = RunArmed(t, c.seed * 1000003 + cycle, c.ops_per_cycle, countdown, &points,
                                  nullptr, false, &found);
    if (crashed) {
      ++report->mid_workload_crashes;
    } else {
      observed_points = std::max<uint64_t>(points, 1);
    }

    bool recovered = true;
    uint64_t recovery_us = 0;
    if (c.crashes) {
      ++report->crashes;
      // Every period-th cycle also crashes inside recovery, every second
      // such cycle twice.
      std::vector<uint64_t> at;
      const uint32_t period = c.recovery_crash_period;
      if (period != 0 && cycle % period == period - 1) {
        at.push_back(rng.Below(5 * shards));
        if (cycle % (2 * period) == 2 * period - 1) {
          at.push_back(at[0] + 1 + rng.Below(3));
        }
      }
      uint64_t recovery_points = 0;
      recovered = CrashAndRecover(t, at, c, &recovery_points, &report->recovery_crashes, &found);
      // Shards recover in parallel in a real deployment, so a cycle is
      // charged its slowest shard.
      for (SscDevice* ssc : t.sscs()) {
        recovery_us = std::max(recovery_us, ssc->last_recovery_us());
      }
      report->max_recovery_us = std::max(report->max_recovery_us, recovery_us);
      report->total_recovery_us += recovery_us;
      if (c.recovery_budget_us != 0 && recovery_us > c.recovery_budget_us) {
        ++report->budget_exceeded;
        found.push_back(StrFormat("recovery took %llu us (budget %llu us)",
                                  (unsigned long long)recovery_us,
                                  (unsigned long long)c.recovery_budget_us));
      }
    }

    t.PauseFaults(true);
    if (c.run_invariant_checker) {
      t.Audit(c.crashes ? "post-recovery" : "live-state", &found);
    }
    t.Verify(/*settle=*/true, &found);
    t.PauseFaults(false);
    const std::string tag = StrFormat("cycle %u", cycle);
    if (c.verbose) {
      std::fprintf(stderr, "flashcheck: %s: %s crash, recovery %llu us\n", tag.c_str(),
                   crashed ? "mid-workload" : "quiescent", (unsigned long long)recovery_us);
    }
    report->Record(tag, std::move(found), c.verbose);
    ++report->cycles_run;
    if (!recovered) {
      break;  // an unrecoverable device makes further cycles meaningless
    }
  }
  t.Finish(report);
}

// Aging: replays workload rounds until one more device capacity of host
// writes has landed per epoch, with the endurance defenses on their normal
// cadence, then audits (invariants incl. the endurance audits, policies, and
// the shadow of everything acknowledged since the start) and samples the
// lifetime curves. A device whose retirement exhausted every write path
// makes no progress; after 8 write-free rounds the run ends gracefully.
void Age(Target& t, const FlashCheckConfig& c, FlashCheckReport* report) {
  uint64_t round = 0;
  for (uint32_t epoch = 0; epoch < c.aging_multiple; ++epoch) {
    const WearSample start = t.Wear();
    Violations found;
    uint32_t stalled_rounds = 0;
    bool quota_met = false;
    while (!quota_met) {
      const uint64_t before = t.Wear().ftl.host_writes;
      t.RunOps(c.seed * 1000003 + round++, c.ops_per_cycle, &found);
      const uint64_t after = t.Wear().ftl.host_writes;
      stalled_rounds = after == before ? stalled_rounds + 1 : 0;
      if (stalled_rounds >= 8) {
        report->write_exhausted = true;
        break;
      }
      quota_met = after - start.ftl.host_writes >= c.capacity_pages;
    }

    t.PauseFaults(true);
    if (c.run_invariant_checker) {
      t.Audit("live-state", &found);
    }
    t.Verify(/*settle=*/false, &found);
    t.PauseFaults(false);

    const WearSample now = t.Wear();
    const uint64_t reads = now.ftl.host_reads - start.ftl.host_reads;
    const uint64_t misses = now.ftl.host_read_misses - start.ftl.host_read_misses;
    const double miss_rate =
        reads == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(reads);
    if (epoch == 0) {
      report->first_epoch_miss_rate = miss_rate;
    }
    report->last_epoch_miss_rate = miss_rate;
    report->max_retired_pct = std::max(report->max_retired_pct, now.retired_pct);
    if (quota_met) {
      ++report->epochs_run;
      if (now.ok_writes > start.ok_writes) {
        report->serving_retired_pct = now.retired_pct;
      }
    }
    const std::string tag = StrFormat("epoch %u", epoch);
    if (c.verbose) {
      std::fprintf(stderr,
                   "flashcheck: %s: %llu writes, miss %.3f, retired %.1f%%, erase CV %.3f%s\n",
                   tag.c_str(), (unsigned long long)(now.ftl.host_writes - start.ftl.host_writes),
                   miss_rate, now.retired_pct, now.erase_cv,
                   report->write_exhausted ? " (exhausted)" : "");
    }
    report->Record(tag, std::move(found), c.verbose);
    if (report->write_exhausted) {
      break;
    }
  }
  t.Finish(report);
}

}  // namespace

FlashCheckReport RunFlashCheck(CheckTarget target, const FlashCheckConfig& config) {
  FlashCheckReport report;
  report.target = target;
  report.schedule = ScheduleOf(config);
  report.budget_us = config.recovery_budget_us;
  if (report.schedule == CheckSchedule::kExplore) {
    Explore(target, config, &report);
  } else if (report.schedule == CheckSchedule::kSoak) {
    Soak(*MakeTarget(target, config), config, &report);
  } else {
    Age(*MakeTarget(target, config), config, &report);
  }
  return report;
}

}  // namespace flashtier
