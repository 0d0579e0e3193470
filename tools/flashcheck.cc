// flashcheck: FlashTier crash-consistency model checker.
//
// Picks a target (--kv, --disk-faults, or the SSC device set) and a schedule
// (--soak=N, --aging=N, or commit-point exploration), fills one
// FlashCheckConfig from the flags and hands it to the runner
// (src/check/runner.h). Exit status is 0 iff no violation was found — or,
// under --break-recovery / --break-retry, iff the broken component WAS
// caught — so the tool can gate CI. Unknown flags, and flags the chosen
// target or schedule would ignore, exit 2 with the usage text below.

#include <cstdio>
#include <string>

#include "src/check/runner.h"
#include "src/util/args.h"
#include "src/util/json.h"

namespace flashtier {
namespace {

constexpr const char* kUsage =
    "usage: flashcheck [target] [schedule] [options]\n"
    "\n"
    "Runs a deterministic workload against a target, injects power failures\n"
    "on a schedule, recovers, and verifies G1-G3 against a shadow model of\n"
    "every acknowledged operation plus the structural invariant audits.\n"
    "\n"
    "targets:\n"
    "  (default)              the SSC device set: scripted write-dirty,\n"
    "                         write-clean, read, clean, evict and GC ops\n"
    "  --kv                   the KvCache (DESIGN.md §5k): tiny-object Set,\n"
    "                         Get, Delete; object G1-G3 + CheckKv audits\n"
    "  --disk-faults          DiskGuard: cache managers over a faulty disk\n"
    "                         tier (latent sectors, transient failures, slow\n"
    "                         IO) with retry/backoff, parked writebacks and\n"
    "                         cache-assisted repair; host-level shadow and a\n"
    "                         final write-back drain\n"
    "\n"
    "schedules:\n"
    "  (default)              explore every commit point: one crash per\n"
    "                         point, then 3 crashes inside recovery per\n"
    "                         recovery point (incl. double crashes); SSC and\n"
    "                         --kv targets\n"
    "  --soak=N               N seeded crash->recover->verify->resume cycles\n"
    "                         on one long-lived target (--disk-faults: 8)\n"
    "  --aging=N              write N x capacity with wear-out, read-disturb\n"
    "                         and retention faults and the endurance defenses\n"
    "                         (wear leveling, patrol scrub, capacity\n"
    "                         degradation) on; audits every 1x epoch; SSC\n"
    "                         target only, no crash injected\n"
    "\n"
    "self-tests (exit 0 means the checker reported the break):\n"
    "  --break-recovery       recovery drops the log tail (not with --aging)\n"
    "  --break-retry          bad-block retirement is disabled (needs --faults)\n"
    "\n"
    "every target and schedule:\n"
    "  --capacity-pages=512 --shards=1 --mode=full|relaxed --seed=42\n"
    "  --admission=admit-all|ghost-lru|freq-sketch|write-limit\n"
    "  --group-commit-ops=16 --checkpoint-interval=250\n"
    "  --log-region-pages=4 --segment-entries=16 --no-invariants --verbose\n"
    "  --stats-json=FILE      append one JSON line (not for SSC exploration)\n"
    "  --faults --fault-seed=1 --program-fail=0.01 --erase-fail=0.05\n"
    "  --read-corrupt=0.005 --wear-limit=0\n"
    "  --read-disturb-limit=0 --read-disturb-prob=0 (reads past the limit\n"
    "  since the block's last erase may corrupt; erase resets the exposure)\n"
    "  --retention-age-us=0 --retention-prob=0 (pages resident longer than\n"
    "  the age may corrupt when read)\n"
    "\n"
    "SSC and disk targets:\n"
    "  --address-blocks=1536 --policy=se-util|se-merge\n"
    "kv target:\n"
    "  --kv-keys=512 --slab-pages=1 --no-packing\n"
    "disk target:\n"
    "  --disk-seed=1 --disk-read-fail=0.01 --disk-write-fail=0.02\n"
    "  --disk-latent=0.002 --disk-slow=0.01\n"
    "  --disk-retry-attempts=4 --disk-deadline-us=250000\n"
    "  --scrub-period=64 --scrub-budget=8 --write-through --no-crashes\n"
    "explore:\n"
    "  --ops=600 --stride=1 --max-points=0 --no-recovery-points\n"
    "soak:\n"
    "  --soak-ops=400 --recovery-crash-period=3 --recovery-budget-us=2400000\n"
    "aging (commit knobs default to SscConfig's; --faults also defaults\n"
    "--wear-limit=6 --read-disturb-limit=64 --read-disturb-prob=0.05\n"
    "--retention-age-us=300000 --retention-prob=0.05):\n"
    "  --soak-ops=512 --wl-interval=32 --wl-max-diff=8\n"
    "  --patrol-interval=64 --patrol-blocks=4\n"
    "\n"
    "A flag the chosen target or schedule does not read exits 2.\n";

int Usage(const std::string& error) {
  std::fprintf(stderr, "flashcheck: %s\n%s", error.c_str(), kUsage);
  return 2;
}

int Run(ArgParser& args) {
  if (!args.ok()) {
    return Usage(args.error());
  }
  if (args.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const auto unknown = args.UnknownFlags({
      "help",          "ops",
      "capacity-pages", "address-blocks",
      "shards",        "policy",
      "mode",          "admission",
      "group-commit-ops", "checkpoint-interval",
      "log-region-pages", "segment-entries",
      "seed",          "stride",
      "max-points",    "no-recovery-points",
      "no-invariants", "verbose",
      "break-recovery", "break-retry",
      "faults",        "fault-seed",
      "program-fail",  "erase-fail",
      "read-corrupt",  "wear-limit",
      "read-disturb-limit", "read-disturb-prob",
      "retention-age-us", "retention-prob",
      "aging",         "wl-interval",
      "wl-max-diff",   "patrol-interval",
      "patrol-blocks", "soak",
      "soak-ops",
      "recovery-crash-period", "recovery-budget-us",
      "stats-json",    "disk-faults",
      "disk-seed",     "disk-read-fail",
      "disk-write-fail", "disk-latent",
      "disk-slow",     "disk-retry-attempts",
      "disk-deadline-us", "scrub-period",
      "scrub-budget",  "write-through",
      "no-crashes",    "kv",
      "kv-keys",       "slab-pages",
      "no-packing",
  });
  if (!unknown.empty()) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "flashcheck: unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const bool kv = args.GetBool("kv", false);
  const bool disk = args.GetBool("disk-faults", false);
  if (kv && disk) {
    return Usage("--kv and --disk-faults pick different targets");
  }
  const CheckTarget target = kv ? CheckTarget::kKv : disk ? CheckTarget::kDisk : CheckTarget::kSsc;
  const auto u32 = [&args](const char* name, uint64_t def) {
    return static_cast<uint32_t>(args.GetInt(name, static_cast<int64_t>(def)));
  };
  const auto u64 = [&args](const char* name, uint64_t def) {
    return static_cast<uint64_t>(args.GetInt(name, static_cast<int64_t>(def)));
  };
  const auto positive = [&args](const char* name, uint64_t def) {
    return static_cast<uint32_t>(args.GetPositiveInt(name, static_cast<int64_t>(def)));
  };

  FlashCheckConfig c = DefaultFlashCheckConfig(target, u32("aging", 0));
  c.capacity_pages = u64("capacity-pages", c.capacity_pages);
  c.shards = positive("shards", c.shards);
  c.group_commit_ops = u32("group-commit-ops", c.group_commit_ops);
  c.checkpoint_interval_writes = u64("checkpoint-interval", c.checkpoint_interval_writes);
  c.log_region_pages = u64("log-region-pages", c.log_region_pages);
  c.checkpoint_segment_entries = positive("segment-entries", c.checkpoint_segment_entries);
  c.faults.enabled = args.GetBool("faults", false);
  c.faults.seed = u64("fault-seed", c.faults.seed);
  c.faults.program_fail_prob = args.GetDouble("program-fail", c.faults.program_fail_prob);
  c.faults.erase_fail_prob = args.GetDouble("erase-fail", c.faults.erase_fail_prob);
  c.faults.read_corrupt_prob = args.GetDouble("read-corrupt", c.faults.read_corrupt_prob);
  c.faults.wear_out_erases = u32("wear-limit", c.faults.wear_out_erases);
  c.faults.read_disturb_limit = u32("read-disturb-limit", c.faults.read_disturb_limit);
  c.faults.read_disturb_prob = args.GetDouble("read-disturb-prob", c.faults.read_disturb_prob);
  c.faults.retention_age_us = u64("retention-age-us", c.faults.retention_age_us);
  c.faults.retention_fail_prob = args.GetDouble("retention-prob", c.faults.retention_fail_prob);

  c.seed = u64("seed", c.seed);
  c.ops = u32("ops", c.ops);
  c.ops_per_cycle = positive("soak-ops", c.ops_per_cycle);
  c.address_blocks = u64("address-blocks", c.address_blocks);
  c.keys = positive("kv-keys", c.keys);
  c.max_points = u32("max-points", c.max_points);
  c.stride = u32("stride", c.stride);
  c.explore_recovery_points = !args.GetBool("no-recovery-points", false);
  c.cycles = u32("soak", c.cycles);
  c.crashes = !args.GetBool("no-crashes", false);
  c.recovery_crash_period = u32("recovery-crash-period", c.recovery_crash_period);
  c.recovery_budget_us = u64("recovery-budget-us", c.recovery_budget_us);
  c.wear_level_interval_writes = u32("wl-interval", c.wear_level_interval_writes);
  c.wear_level_max_diff = u32("wl-max-diff", c.wear_level_max_diff);
  c.patrol_interval_writes = u32("patrol-interval", c.patrol_interval_writes);
  c.patrol_blocks_per_pass = positive("patrol-blocks", c.patrol_blocks_per_pass);
  c.write_through = args.GetBool("write-through", false);
  c.scrub_period = u32("scrub-period", c.scrub_period);
  c.scrub_budget = u32("scrub-budget", c.scrub_budget);
  c.disk_faults.seed = u64("disk-seed", c.disk_faults.seed);
  c.disk_faults.read_fail_prob = args.GetDouble("disk-read-fail", c.disk_faults.read_fail_prob);
  c.disk_faults.write_fail_prob = args.GetDouble("disk-write-fail", c.disk_faults.write_fail_prob);
  c.disk_faults.latent_prob = args.GetDouble("disk-latent", c.disk_faults.latent_prob);
  c.disk_faults.slow_io_prob = args.GetDouble("disk-slow", c.disk_faults.slow_io_prob);
  c.disk_retry.max_attempts = positive("disk-retry-attempts", c.disk_retry.max_attempts);
  c.disk_retry.op_deadline_us = u64("disk-deadline-us", c.disk_retry.op_deadline_us);
  c.packing = !args.GetBool("no-packing", false);
  c.slab_pages = positive("slab-pages", c.slab_pages);
  c.break_recovery = args.GetBool("break-recovery", false);
  c.break_retirement = args.GetBool("break-retry", false);
  c.run_invariant_checker = !args.GetBool("no-invariants", false);
  c.verbose = args.GetBool("verbose", false);
  if (!args.ok()) {
    return Usage(args.error());
  }

  const std::string policy = args.GetString("policy", "se-util");
  if (policy != "se-util" && policy != "se-merge") {
    return Usage("unknown --policy '" + policy + "' (se-util | se-merge)");
  }
  c.policy = policy == "se-util" ? EvictionPolicy::kSeUtil : EvictionPolicy::kSeMerge;
  const std::string mode = args.GetString("mode", "full");
  if (mode != "full" && mode != "relaxed") {
    return Usage("unknown --mode '" + mode + "' (full | relaxed)");
  }
  c.mode = mode == "full" ? ConsistencyMode::kFull : ConsistencyMode::kRelaxedClean;
  const std::string admission = args.GetString("admission", "admit-all");
  if (!ParseAdmissionKind(admission, &c.admission.kind)) {
    return Usage("unknown --admission '" + admission + "' (" + KnownAdmissionNames() + ")");
  }
  if (const char* error = ValidateFlashCheckConfig(target, c)) {
    return Usage(error);
  }
  const std::string stats_json = args.GetString("stats-json", "");
  if (!stats_json.empty() && target == CheckTarget::kSsc &&
      ScheduleOf(c) == CheckSchedule::kExplore) {
    return Usage("--stats-json is only produced by --soak, --aging, --kv and --disk-faults runs");
  }

  const FlashCheckReport report = RunFlashCheck(target, c);
  std::printf("flashcheck: %s\n", report.ToString().c_str());
  if (!stats_json.empty() && !AppendJsonLine(stats_json, report.ToJson())) {
    std::fprintf(stderr, "flashcheck: cannot write --stats-json file '%s'\n", stats_json.c_str());
    return 2;
  }
  if (c.break_recovery || c.break_retirement) {
    // Self-test: the broken component MUST be caught.
    const char* what = c.break_recovery ? "recovery" : "bad-block retirement";
    if (report.ok()) {
      std::printf("flashcheck: FAIL: broken %s went undetected\n", what);
      return 1;
    }
    std::printf("flashcheck: OK: broken %s detected as expected\n", what);
    return 0;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace flashtier

int main(int argc, char** argv) {
  flashtier::ArgParser args(argc, argv);
  return flashtier::Run(args);
}
