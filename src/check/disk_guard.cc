#include "src/check/disk_guard.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/check/invariant_checker.h"
#include "src/ssc/persist.h"
#include "src/ssc/shard.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace flashtier {

namespace {

// Same mechanism as the crash explorer and soak harness: thrown by a
// persistence hook to simulate power failure, unwinding through manager and
// device code whose abandoned state is RAM the crash wipes anyway.
struct CrashInjected {};

// Host-level shadow of one block: what a read is allowed to return.
struct HostShadow {
  uint64_t expected = 0;   // last acknowledged token; 0 = never written
  bool ambiguous = false;  // a failed/interrupted write left two legal values
  uint64_t alt = 0;        // the other legal token while ambiguous
  std::vector<uint64_t> history;  // every token ever acknowledged
};

bool InHistory(const HostShadow& shadow, Lbn lbn, uint64_t token) {
  if (token == DiskModel::OriginalToken(lbn)) {
    return true;  // the block's pre-write disk content
  }
  return std::find(shadow.history.begin(), shadow.history.end(), token) !=
         shadow.history.end();
}

bool IsHonestRefusal(Status s) {
  return s == Status::kIoError || s == Status::kTimeout || s == Status::kNoSpace ||
         s == Status::kBackpressure;
}

}  // namespace

std::string DiskGuardReport::ToString() const {
  char buffer[384];
  std::snprintf(buffer, sizeof(buffer),
                "disk-guard: %u cycles, %llu ops, %llu crashes (%llu in recovery), "
                "%llu write / %llu read refusals, %llu losses notified, "
                "%llu rescued reads, %llu parked, %llu scrubbed: %llu violations",
                cycles_run, (unsigned long long)ops_executed, (unsigned long long)crashes,
                (unsigned long long)recovery_crashes, (unsigned long long)write_errors,
                (unsigned long long)read_errors, (unsigned long long)loss_notifications,
                (unsigned long long)manager.rescued_reads,
                (unsigned long long)manager.parked_writebacks,
                (unsigned long long)manager.scrub_repairs, (unsigned long long)violation_count);
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

std::string DiskGuardReport::ToJson() const {
  return JsonLine()
      .Open("disk_guard")
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
      .Block("manager", manager)
      .str();
}

DiskGuardHarness::DiskGuardHarness(const DiskGuardOptions& options) : options_(options) {}

DiskGuardReport DiskGuardHarness::Run() {
  DiskGuardReport report;
  SimClock clock;
  const uint32_t shard_count = std::max<uint32_t>(1, options_.shards);
  const ShardRouter router{shard_count, /*grain_pages=*/64};

  // One shared disk tier under all shards (the realistic topology: shards
  // partition the cache, not the backing store), with the fault plan armed.
  DiskModel disk(options_.disk, &clock);
  disk.set_fault_plan(options_.disk_faults);
  disk.set_retry_policy(options_.disk_retry);

  // Long-lived SSC shards — like the soak harness, never rebuilt.
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
    config.fault_plan = options_.flash_faults;
    sscs.push_back(std::make_unique<SscDevice>(config, &clock));
  }
  std::vector<std::unique_ptr<AdmissionPolicy>> policies;
  policies.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    policies.push_back(
        MakeAdmissionPolicy(ShardPolicyConfig(options_.admission, shard_count, i), &clock));
  }
  std::vector<const SscDevice*> shard_views;
  shard_views.reserve(sscs.size());
  for (auto& ssc : sscs) {
    shard_views.push_back(ssc.get());
  }

  // The managers are host RAM: rebuilt from the SSCs after every crash.
  // Counters of retired manager generations accumulate here so the report
  // spans the whole storm, not just the last post-crash generation.
  ManagerStats retired_stats;
  std::vector<std::unique_ptr<CacheManager>> managers;
  const auto build_managers = [&](bool after_crash) {
    for (auto& m : managers) {
      retired_stats.Merge(m->stats());
    }
    managers.clear();
    if (after_crash) {
      // The admission policies are host RAM too, and they die with the power.
      // Rebuilding them matters for more than realism: a crash injected
      // between a durable SSC insert and the manager's OnAdmit call would
      // otherwise leave the block stranded in the policy's reject ghost, and
      // the rejected-block-absent audit would flag perfectly sound state.
      for (uint32_t i = 0; i < shard_count; ++i) {
        policies[i] =
            MakeAdmissionPolicy(ShardPolicyConfig(options_.admission, shard_count, i), &clock);
      }
    }
    for (uint32_t i = 0; i < shard_count; ++i) {
      if (options_.write_through) {
        managers.push_back(
            std::make_unique<WriteThroughManager>(sscs[i].get(), &disk, policies[i].get()));
      } else {
        WriteBackManager::Options wopts;
        wopts.admission = policies[i].get();
        auto wb = std::make_unique<WriteBackManager>(sscs[i].get(), &disk, wopts);
        if (after_crash) {
          wb->RecoverDirtyTable();
        }
        managers.push_back(std::move(wb));
      }
    }
  };
  build_managers(/*after_crash=*/false);
  const auto mgr = [&](Lbn lbn) -> CacheManager& { return *managers[router.ShardOf(lbn)]; };

  std::unordered_set<Lbn> lost;
  for (auto& ssc : sscs) {
    ssc->set_data_loss_hook([&lost, &report](Lbn lbn) {
      if (lost.insert(lbn).second) {
        ++report.loss_notifications;
      }
    });
  }

  std::vector<HostShadow> shadow(options_.address_blocks);
  for (Lbn lbn = 0; lbn < options_.address_blocks; ++lbn) {
    shadow[lbn].expected = DiskModel::OriginalToken(lbn);
  }

  const auto pause_faults = [&](bool paused) {
    disk.set_fault_injection_paused(paused);
    for (auto& ssc : sscs) {
      ssc->device_for_testing()->set_fault_injection_paused(paused);
    }
  };

  // Checks one read outcome against the shadow; settles ambiguity and loss
  // on what the stack actually returned (both outcomes were legal).
  const auto check_read = [&](Lbn lbn, Status s, uint64_t token,
                              std::vector<std::string>* violations) {
    HostShadow& sh = shadow[lbn];
    if (!IsOk(s)) {
      if (IsHonestRefusal(s)) {
        ++report.read_errors;  // honest refusal, never silent loss
      } else {
        char buf[96];
        const std::string name(StatusName(s));
        std::snprintf(buf, sizeof(buf), "read lbn %llu: unexpected status %s",
                      (unsigned long long)lbn, name.c_str());
        violations->emplace_back(buf);
      }
      return;
    }
    if (token == sh.expected || (sh.ambiguous && token == sh.alt)) {
      // While a block is torn by an unacknowledged write, either version is
      // legal — and stays legal: the two tiers may hold different versions
      // (cache old / disk new, or vice versa), so reads can flip between
      // them as the cache fills and evicts. Only the next *acknowledged*
      // write collapses the ambiguity.
      return;
    }
    if (lost.count(lbn) != 0 && InHistory(sh, lbn, token)) {
      // The stack notified loss for this block: any previously acknowledged
      // version (or the original disk content) is an honest rollback.
      sh.expected = token;
      sh.ambiguous = false;
      lost.erase(lbn);
      return;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "read lbn %llu returned %llx, expected %llx (no loss notified)",
                  (unsigned long long)lbn, (unsigned long long)token,
                  (unsigned long long)sh.expected);
    violations->emplace_back(buf);
  };

  uint64_t next_token = 1;
  uint64_t observed_points = 0;  // commit points in the last uncrashed cycle
  Rng rng(options_.seed);

  for (uint32_t cycle = 0; cycle < options_.cycles; ++cycle) {
    Rng workload(options_.seed * 1000003 + cycle);
    std::vector<std::string> violations;

    // Arm the crash like the soak harness: a fair coin decides whether this
    // cycle dies mid-workload (a countdown over commit points, calibrated to
    // the last uncrashed cycle's point count) or at quiescence.
    uint64_t countdown = 0;
    if (options_.crashes && observed_points > 0 && rng.Below(2) == 0) {
      countdown = rng.Below(observed_points) + 1;
    }
    uint64_t points_this_cycle = 0;
    if (options_.crashes) {
      for (auto& ssc : sscs) {
        ssc->persist_for_testing()->set_commit_point_hook_for_testing(
            [&countdown, &points_this_cycle](CommitPoint) {
              ++points_this_cycle;
              if (countdown > 0 && --countdown == 0) {
                throw CrashInjected{};
              }
            });
      }
    }

    bool crashed = false;
    for (uint32_t i = 0; i < options_.ops_per_cycle && !crashed; ++i) {
      const Lbn lbn = workload.Below(options_.address_blocks);
      const bool is_write = workload.Below(100) < 45;
      const uint64_t token = is_write ? next_token++ : 0;
      try {
        if (is_write) {
          const Status s = mgr(lbn).Write(lbn, token);
          HostShadow& sh = shadow[lbn];
          if (IsOk(s)) {
            sh.expected = token;
            sh.ambiguous = false;
            sh.history.push_back(token);
          } else if (IsHonestRefusal(s)) {
            // The write was refused, but parts of the stack may have seen
            // it: either the old or the new version may surface later.
            ++report.write_errors;
            sh.ambiguous = true;
            sh.alt = token;
            sh.history.push_back(token);
          } else {
            char buf[96];
            const std::string name(StatusName(s));
            std::snprintf(buf, sizeof(buf), "write lbn %llu: unexpected status %s",
                          (unsigned long long)lbn, name.c_str());
            violations.emplace_back(buf);
          }
        } else {
          uint64_t token_out = 0;
          const Status s = mgr(lbn).Read(lbn, &token_out);
          check_read(lbn, s, token_out, &violations);
        }
        ++report.ops_executed;
        if (options_.scrub_period != 0 && (i + 1) % options_.scrub_period == 0) {
          for (auto& m : managers) {
            m->ScrubDisk(options_.scrub_budget);
          }
          ++report.scrub_passes;
        }
      } catch (const CrashInjected&) {
        crashed = true;
        if (is_write) {
          // The interrupted write may or may not have landed.
          HostShadow& sh = shadow[lbn];
          sh.ambiguous = true;
          sh.alt = token;
          sh.history.push_back(token);
        }
      }
    }
    if (options_.crashes) {
      for (auto& ssc : sscs) {
        ssc->persist_for_testing()->set_commit_point_hook_for_testing(nullptr);
      }
      if (!crashed) {
        observed_points = std::max<uint64_t>(points_this_cycle, 1);
      }
      ++report.crashes;

      // Draw this cycle's recovery-crash schedule (ascending ordinals across
      // retries make double crashes), then crash and recover every shard.
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
        report.violation_count += violations.size();
        for (std::string& v : violations) {
          if (report.samples.size() < DiskGuardReport::kMaxSamples) {
            report.samples.push_back(std::move(v));
          }
        }
        ++report.cycles_run;
        break;  // an unrecoverable device makes further cycles meaningless
      }
      // The managers' host state died with the power; rebuild them on the
      // recovered devices (write-back re-runs its dirty-table exists scan).
      build_managers(/*after_crash=*/true);
    }

    // Verify: structural invariants (including the parked-queue audits),
    // policy audits, then a full host-level shadow sweep. Fault draws are
    // paused so checking cannot mutate the schedule; latent sectors stay
    // unreadable (media damage, not injection).
    pause_faults(true);
    for (auto& m : managers) {
      const CheckReport structural = InvariantChecker::Check(*m);
      for (const InvariantViolation& v : structural.violations) {
        violations.push_back("invariant [" + v.invariant + "] " + v.detail);
      }
    }
    const CheckReport sharded = InvariantChecker::CheckSharded(shard_views, router);
    for (const InvariantViolation& v : sharded.violations) {
      violations.push_back("invariant [" + v.invariant + "] " + v.detail);
    }
    for (uint32_t i = 0; i < shard_count; ++i) {
      const CheckReport pr = InvariantChecker::CheckPolicy(*policies[i], sscs[i].get());
      for (const InvariantViolation& v : pr.violations) {
        violations.push_back("policy [" + v.invariant + "] " + v.detail);
      }
    }
    for (Lbn lbn = 0; lbn < options_.address_blocks; ++lbn) {
      uint64_t token_out = 0;
      const Status s = mgr(lbn).Read(lbn, &token_out);
      check_read(lbn, s, token_out, &violations);
    }
    pause_faults(false);

    report.violation_count += violations.size();
    for (std::string& v : violations) {
      if (options_.verbose) {
        std::fprintf(stderr, "flashcheck: disk-guard cycle %u: %s\n", cycle, v.c_str());
      }
      if (report.samples.size() < DiskGuardReport::kMaxSamples) {
        char prefix[32];
        std::snprintf(prefix, sizeof(prefix), "[cycle %u] ", cycle);
        report.samples.push_back(prefix + std::move(v));
      }
    }
    if (options_.verbose) {
      std::fprintf(stderr,
                   "flashcheck: disk-guard cycle %u: %s, %zu latent sectors, "
                   "%zu blocks parked\n",
                   cycle, crashed ? "mid-workload crash" : "quiescent",
                   disk.latent_count(),
                   options_.write_through
                       ? size_t{0}
                       : static_cast<WriteBackManager*>(managers[0].get())->parked_blocks());
    }
    ++report.cycles_run;
  }

  // Final drain: with fault injection paused the disk answers again, so an
  // orderly shutdown must succeed — every parked run redriven, every dirty
  // block written back. A residue here means a retry queue neither drained
  // nor escalated.
  pause_faults(true);
  if (!options_.write_through) {
    std::vector<std::string> violations;
    for (auto& m : managers) {
      auto* wb = static_cast<WriteBackManager*>(m.get());
      const Status s = wb->FlushAll();
      if (!IsOk(s)) {
        char buf[96];
        const std::string name(StatusName(s));
        std::snprintf(buf, sizeof(buf), "final FlushAll failed with %s on a healthy disk",
                      name.c_str());
        violations.emplace_back(buf);
      }
      if (wb->parked_blocks() != 0 || wb->dirty_blocks() != 0) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "final drain left %llu dirty / %llu parked blocks",
                      (unsigned long long)wb->dirty_blocks(),
                      (unsigned long long)wb->parked_blocks());
        violations.emplace_back(buf);
      }
    }
    report.violation_count += violations.size();
    for (std::string& v : violations) {
      if (options_.verbose) {
        std::fprintf(stderr, "flashcheck: disk-guard drain: %s\n", v.c_str());
      }
      if (report.samples.size() < DiskGuardReport::kMaxSamples) {
        report.samples.push_back("[drain] " + std::move(v));
      }
    }
  }
  pause_faults(false);

  report.disk = disk.stats();
  report.manager = retired_stats;
  for (auto& m : managers) {
    report.manager.Merge(m->stats());
  }
  return report;
}

}  // namespace flashtier
