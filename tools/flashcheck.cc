// flashcheck: FlashTier crash-consistency model checker.
//
// Default mode runs a deterministic mixed workload against a small SSC,
// injects a simulated power failure at every durability commit point the
// workload crosses (log appends, flush boundaries, checkpoint boundaries —
// including every checkpoint segment — and silent-eviction erase barriers),
// recovers, and verifies the recovered cache against a shadow model of every
// acknowledged operation (guarantees G1, G2, G3 from Section 3.2). Crashes
// are additionally injected *inside* recovery, at every RecoveryPoint phase
// boundary — including double crashes (power failing again inside the
// recovery from the recovery crash). Each recovered device is audited with
// the structural InvariantChecker.
//
// --soak=N switches to the crash-storm soak harness: N seeded
// crash → recover → verify → resume cycles against one long-lived device
// set, with crash points drawn across commit and recovery points, a shadow-
// model equivalence check after every cycle, and a recovery-time budget.
//
// Exit status is 0 iff no violation was found, so the tool can gate CI.
// Unknown flags exit 2 with the usage text below.

#include <cstdio>
#include <string>

#include "src/check/aging.h"
#include "src/check/crash_explorer.h"
#include "src/check/disk_guard.h"
#include "src/check/kv_check.h"
#include "src/check/soak.h"
#include "src/policy/policy_factory.h"
#include "src/util/args.h"
#include "src/util/json.h"

namespace {

constexpr const char* kUsage =
    "usage: flashcheck [mode] [options]\n"
    "\n"
    "modes:\n"
    "  (default)              explore every durability commit point: run the\n"
    "                         scripted workload once per point with a crash\n"
    "                         injected there, recover, verify G1-G3 + the\n"
    "                         structural invariants; then explore crashes\n"
    "                         inside recovery (incl. double crashes)\n"
    "  --soak=N               crash-storm soak: N seeded crash->recover->\n"
    "                         verify->resume cycles on one long-lived device\n"
    "  --aging=N              device-lifetime aging: replay the workload mix\n"
    "                         until N x capacity has been written, with wear-\n"
    "                         out retirement, read-disturb and retention\n"
    "                         faults active and the endurance defenses (wear\n"
    "                         leveling, patrol scrub, capacity degradation)\n"
    "                         on their normal cadence; audits invariants and\n"
    "                         the shadow model at every 1x-capacity epoch;\n"
    "                         composes with --faults, --shards, --admission\n"
    "  --kv                   check the tiny-object KV layer (DESIGN.md §5k):\n"
    "                         explore every commit point a mixed object\n"
    "                         workload crosses (or --soak=N cycles on one\n"
    "                         long-lived KvCache), verify object G1-G3 via a\n"
    "                         shadow sweep + InvariantChecker::CheckKv;\n"
    "                         composes with --faults, --shards, --admission\n"
    "  --disk-faults          DiskGuard: drive cache managers over a faulty\n"
    "                         disk tier (latent sectors, transient failures,\n"
    "                         slow IO) with retry/backoff, parked writebacks,\n"
    "                         cache-assisted repair and a host-level shadow;\n"
    "                         composes with crashes, --shards, --admission,\n"
    "                         --faults and --soak=N (cycle count)\n"
    "  --break-recovery       self-test: recovery drops the log tail, the\n"
    "                         checker MUST report violations\n"
    "  --break-retry          self-test (requires --faults): bad-block\n"
    "                         retirement is disabled, the invariant checker\n"
    "                         MUST report violations\n"
    "\n"
    "workload / device options (shared by all modes):\n"
    "  --ops=600 --capacity-pages=512 --address-blocks=1536 --shards=1\n"
    "  --policy=se-util|se-merge --mode=full|relaxed\n"
    "  --admission=admit-all|ghost-lru|freq-sketch|write-limit\n"
    "  --group-commit-ops=16 --checkpoint-interval=250\n"
    "  --log-region-pages=4 --segment-entries=16 --seed=42\n"
    "\n"
    "exploration options:\n"
    "  --stride=1 --max-points=0 --no-recovery-points --no-invariants\n"
    "  --verbose\n"
    "\n"
    "fault injection (composes with every mode):\n"
    "  --faults --fault-seed=1 --program-fail=0.01 --erase-fail=0.05\n"
    "  --read-corrupt=0.005 --wear-limit=0\n"
    "  --read-disturb-limit=0 --read-disturb-prob=0 (reads past the limit\n"
    "  since the block's last erase may corrupt; erase resets the exposure)\n"
    "  --retention-age-us=0 --retention-prob=0 (pages resident longer than\n"
    "  the age may corrupt when read)\n"
    "\n"
    "aging options (--aging mode; wear/disturb/retention default ON here):\n"
    "  --aging=N --soak-ops=512 --wl-interval=32 --wl-max-diff=8\n"
    "  --patrol-interval=64 --patrol-blocks=4\n"
    "\n"
    "soak options:\n"
    "  --soak=N --soak-ops=400 --recovery-crash-period=3\n"
    "  --recovery-budget-us=2400000\n"
    "\n"
    "kv options (--kv mode):\n"
    "  --kv-keys=512 --slab-pages=1 --no-packing\n"
    "\n"
    "disk-fault options (--disk-faults mode):\n"
    "  --disk-seed=1 --disk-read-fail=0.01 --disk-write-fail=0.02\n"
    "  --disk-latent=0.002 --disk-slow=0.01\n"
    "  --disk-retry-attempts=4 --disk-deadline-us=250000\n"
    "  --scrub-period=64 --scrub-budget=8 --write-through --no-crashes\n"
    "\n"
    "stats output (--soak, --aging, --kv and --disk-faults modes):\n"
    "  --stats-json=FILE      appends one JSON line per run\n";

}  // namespace

int main(int argc, char** argv) {
  flashtier::ArgParser args(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "flashcheck: %s\n%s", args.error().c_str(), kUsage);
    return 2;
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

  flashtier::CrashExplorerOptions options;
  options.ops = static_cast<uint32_t>(args.GetInt("ops", options.ops));
  options.capacity_pages = static_cast<uint64_t>(
      args.GetInt("capacity-pages", static_cast<int64_t>(options.capacity_pages)));
  options.address_blocks = static_cast<uint64_t>(
      args.GetInt("address-blocks", static_cast<int64_t>(options.address_blocks)));
  // --shards=N explores a sharded SSC: capacity is split across N LBN-hash
  // partitioned devices, a crash hits them all at once, and the partition-
  // disjointness invariant is audited next to G1-G3. Default 1 = classic
  // monolithic exploration, byte-for-byte the previous behaviour.
  options.shards = static_cast<uint32_t>(args.GetPositiveInt("shards", options.shards));
  options.group_commit_ops =
      static_cast<uint32_t>(args.GetInt("group-commit-ops", options.group_commit_ops));
  options.checkpoint_interval_writes = static_cast<uint64_t>(
      args.GetInt("checkpoint-interval", static_cast<int64_t>(options.checkpoint_interval_writes)));
  options.log_region_pages = static_cast<uint64_t>(
      args.GetInt("log-region-pages", static_cast<int64_t>(options.log_region_pages)));
  options.checkpoint_segment_entries = static_cast<uint64_t>(args.GetPositiveInt(
      "segment-entries", static_cast<int64_t>(options.checkpoint_segment_entries)));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", static_cast<int64_t>(options.seed)));
  options.stride = static_cast<uint32_t>(args.GetInt("stride", options.stride));
  options.max_points = static_cast<uint32_t>(args.GetInt("max-points", options.max_points));
  options.explore_recovery_points = !args.GetBool("no-recovery-points", false);
  options.break_recovery = args.GetBool("break-recovery", false);
  options.run_invariant_checker = !args.GetBool("no-invariants", false);
  options.verbose = args.GetBool("verbose", false);

  options.faults.enabled = args.GetBool("faults", false);
  options.faults.seed = static_cast<uint64_t>(args.GetInt("fault-seed", 1));
  options.faults.program_fail_prob = args.GetDouble("program-fail", 0.01);
  options.faults.erase_fail_prob = args.GetDouble("erase-fail", 0.05);
  options.faults.read_corrupt_prob = args.GetDouble("read-corrupt", 0.005);
  options.faults.wear_out_erases = static_cast<uint32_t>(args.GetInt("wear-limit", 0));
  options.faults.read_disturb_limit =
      static_cast<uint32_t>(args.GetInt("read-disturb-limit", 0));
  options.faults.read_disturb_prob = args.GetDouble("read-disturb-prob", 0.0);
  options.faults.retention_age_us =
      static_cast<uint64_t>(args.GetInt("retention-age-us", 0));
  options.faults.retention_fail_prob = args.GetDouble("retention-prob", 0.0);
  options.break_retirement = args.GetBool("break-retry", false);
  if (!args.ok()) {
    std::fprintf(stderr, "flashcheck: %s\n", args.error().c_str());
    return 2;
  }
  if (options.break_retirement && !options.faults.enabled) {
    std::fprintf(stderr, "flashcheck: --break-retry requires --faults\n");
    return 2;
  }

  const std::string policy = args.GetString("policy", "se-util");
  if (policy == "se-util") {
    options.policy = flashtier::EvictionPolicy::kSeUtil;
  } else if (policy == "se-merge") {
    options.policy = flashtier::EvictionPolicy::kSeMerge;
  } else {
    std::fprintf(stderr, "flashcheck: unknown --policy '%s' (se-util | se-merge)\n",
                 policy.c_str());
    return 2;
  }

  const std::string admission = args.GetString("admission", "admit-all");
  if (!flashtier::ParseAdmissionKind(admission, &options.admission.kind)) {
    std::fprintf(stderr, "flashcheck: unknown --admission '%s' (%s)\n", admission.c_str(),
                 flashtier::KnownAdmissionNames());
    return 2;
  }

  const std::string mode = args.GetString("mode", "full");
  if (mode == "full") {
    options.mode = flashtier::ConsistencyMode::kFull;
  } else if (mode == "relaxed") {
    options.mode = flashtier::ConsistencyMode::kRelaxedClean;
  } else {
    std::fprintf(stderr, "flashcheck: unknown --mode '%s' (full | relaxed)\n", mode.c_str());
    return 2;
  }

  const std::string stats_json = args.GetString("stats-json", "");
  // Every mode that reports stats appends one JSON line per run.
  const auto write_stats = [&stats_json](const std::string& json) {
    if (stats_json.empty() || flashtier::AppendJsonLine(stats_json, json)) {
      return true;
    }
    std::fprintf(stderr, "flashcheck: cannot write --stats-json file '%s'\n", stats_json.c_str());
    return false;
  };
  const int64_t soak_cycles = args.GetInt("soak", 0);
  const int64_t aging_multiple = args.GetInt("aging", 0);
  if (aging_multiple > 0) {
    flashtier::AgingOptions aopts;
    aopts.aging_multiple = static_cast<uint32_t>(aging_multiple);
    aopts.seed = options.seed;
    aopts.capacity_pages = options.capacity_pages;
    aopts.shards = options.shards;
    aopts.policy = options.policy;
    aopts.mode = options.mode;
    aopts.ops_per_round = static_cast<uint32_t>(args.GetPositiveInt("soak-ops", 512));
    aopts.address_blocks = options.address_blocks;
    aopts.wear_level_interval_writes =
        static_cast<uint32_t>(args.GetInt("wl-interval", 32));
    aopts.wear_level_max_diff = static_cast<uint32_t>(args.GetInt("wl-max-diff", 8));
    aopts.patrol_interval_writes =
        static_cast<uint32_t>(args.GetInt("patrol-interval", 64));
    aopts.patrol_blocks_per_pass =
        static_cast<uint32_t>(args.GetPositiveInt("patrol-blocks", 4));
    aopts.faults = options.faults;
    if (aopts.faults.enabled) {
      // Aging is about wear: under --aging, --faults also turns on wear-out
      // retirement and the disturb/retention decay mechanisms unless each
      // knob is explicitly overridden (=0 keeps one off).
      // The default device is tiny (10 blocks/shard), so blocks only see a
      // handful of erases per capacity written; a single-digit wear limit is
      // the scaled equivalent of real NAND's thousands of P/E cycles.
      aopts.faults.wear_out_erases = static_cast<uint32_t>(args.GetInt("wear-limit", 6));
      aopts.faults.read_disturb_limit =
          static_cast<uint32_t>(args.GetInt("read-disturb-limit", 64));
      aopts.faults.read_disturb_prob = args.GetDouble("read-disturb-prob", 0.05);
      aopts.faults.retention_age_us =
          static_cast<uint64_t>(args.GetInt("retention-age-us", 300'000));
      aopts.faults.retention_fail_prob = args.GetDouble("retention-prob", 0.05);
    }
    aopts.admission = options.admission;
    aopts.verbose = options.verbose;
    if (!args.ok()) {
      std::fprintf(stderr, "flashcheck: %s\n", args.error().c_str());
      return 2;
    }

    flashtier::AgingHarness harness(aopts);
    const flashtier::AgingReport report = harness.Run();
    std::printf("flashcheck: %s\n", report.ToString().c_str());
    if (!write_stats(report.ToJson())) {
      return 2;
    }
    return report.ok() ? 0 : 1;
  }
  if (args.GetBool("kv", false)) {
    flashtier::KvCheckOptions kopts;
    kopts.capacity_pages = options.capacity_pages;
    kopts.shards = options.shards;
    kopts.packing = !args.GetBool("no-packing", false);
    kopts.slab_pages = static_cast<uint32_t>(args.GetPositiveInt("slab-pages", 1));
    kopts.mode = options.mode;
    kopts.group_commit_ops = options.group_commit_ops;
    kopts.checkpoint_interval_writes = options.checkpoint_interval_writes;
    kopts.log_region_pages = options.log_region_pages;
    kopts.checkpoint_segment_entries = options.checkpoint_segment_entries;
    kopts.ops = options.ops;
    kopts.keys = static_cast<uint64_t>(args.GetPositiveInt("kv-keys", 512));
    kopts.seed = options.seed;
    kopts.max_points = options.max_points;
    kopts.stride = options.stride;
    kopts.explore_recovery_points = options.explore_recovery_points;
    if (soak_cycles > 0) {
      kopts.soak_cycles = static_cast<uint32_t>(soak_cycles);
    }
    kopts.soak_ops = static_cast<uint32_t>(args.GetPositiveInt("soak-ops", 400));
    kopts.recovery_crash_period =
        static_cast<uint32_t>(args.GetInt("recovery-crash-period", 3));
    kopts.recovery_budget_us =
        static_cast<uint64_t>(args.GetInt("recovery-budget-us", 2'400'000));
    kopts.faults = options.faults;
    kopts.admission = options.admission;
    kopts.run_invariant_checker = options.run_invariant_checker;
    kopts.verbose = options.verbose;
    if (!args.ok()) {
      std::fprintf(stderr, "flashcheck: %s\n", args.error().c_str());
      return 2;
    }

    flashtier::KvCheckHarness harness(kopts);
    const flashtier::KvCheckReport report = harness.Run();
    std::printf("flashcheck: %s\n", report.ToString().c_str());
    if (!write_stats(report.ToJson())) {
      return 2;
    }
    return report.ok() ? 0 : 1;
  }
  if (args.GetBool("disk-faults", false)) {
    flashtier::DiskGuardOptions dopts;
    if (soak_cycles > 0) {
      dopts.cycles = static_cast<uint32_t>(soak_cycles);
    }
    dopts.seed = options.seed;
    dopts.capacity_pages = options.capacity_pages;
    dopts.shards = options.shards;
    dopts.policy = options.policy;
    dopts.mode = options.mode;
    dopts.group_commit_ops = options.group_commit_ops;
    dopts.checkpoint_interval_writes = options.checkpoint_interval_writes;
    dopts.log_region_pages = options.log_region_pages;
    dopts.checkpoint_segment_entries = options.checkpoint_segment_entries;
    dopts.ops_per_cycle = static_cast<uint32_t>(args.GetPositiveInt("soak-ops", 400));
    dopts.address_blocks = options.address_blocks;
    dopts.write_through = args.GetBool("write-through", false);
    dopts.crashes = !args.GetBool("no-crashes", false);
    dopts.recovery_crash_period =
        static_cast<uint32_t>(args.GetInt("recovery-crash-period", 3));
    dopts.scrub_period = static_cast<uint32_t>(args.GetInt("scrub-period", 64));
    dopts.scrub_budget = static_cast<uint32_t>(args.GetInt("scrub-budget", 8));
    dopts.disk_faults.enabled = true;
    dopts.disk_faults.seed = static_cast<uint64_t>(args.GetInt("disk-seed", 1));
    dopts.disk_faults.read_fail_prob = args.GetDouble("disk-read-fail", 0.01);
    dopts.disk_faults.write_fail_prob = args.GetDouble("disk-write-fail", 0.02);
    dopts.disk_faults.latent_prob = args.GetDouble("disk-latent", 0.002);
    dopts.disk_faults.slow_io_prob = args.GetDouble("disk-slow", 0.01);
    dopts.disk_retry.max_attempts =
        static_cast<uint32_t>(args.GetPositiveInt("disk-retry-attempts", 4));
    dopts.disk_retry.op_deadline_us =
        static_cast<uint64_t>(args.GetInt("disk-deadline-us", 250'000));
    dopts.flash_faults = options.faults;
    dopts.admission = options.admission;
    dopts.verbose = options.verbose;
    if (!args.ok()) {
      std::fprintf(stderr, "flashcheck: %s\n", args.error().c_str());
      return 2;
    }

    flashtier::DiskGuardHarness harness(dopts);
    const flashtier::DiskGuardReport report = harness.Run();
    std::printf("flashcheck: %s\n", report.ToString().c_str());
    if (!write_stats(report.ToJson())) {
      return 2;
    }
    return report.ok() ? 0 : 1;
  }
  if (soak_cycles > 0) {
    flashtier::SoakOptions sopts;
    sopts.cycles = static_cast<uint32_t>(soak_cycles);
    sopts.seed = options.seed;
    sopts.capacity_pages = options.capacity_pages;
    sopts.shards = options.shards;
    sopts.policy = options.policy;
    sopts.mode = options.mode;
    sopts.group_commit_ops = options.group_commit_ops;
    sopts.checkpoint_interval_writes = options.checkpoint_interval_writes;
    sopts.log_region_pages = options.log_region_pages;
    sopts.checkpoint_segment_entries = options.checkpoint_segment_entries;
    sopts.ops_per_cycle = static_cast<uint32_t>(args.GetPositiveInt("soak-ops", 400));
    sopts.address_blocks = options.address_blocks;
    sopts.recovery_crash_period =
        static_cast<uint32_t>(args.GetInt("recovery-crash-period", 3));
    sopts.recovery_budget_us =
        static_cast<uint64_t>(args.GetInt("recovery-budget-us", 2'400'000));
    sopts.faults = options.faults;
    sopts.admission = options.admission;
    sopts.verbose = options.verbose;
    if (!args.ok()) {
      std::fprintf(stderr, "flashcheck: %s\n", args.error().c_str());
      return 2;
    }

    flashtier::SoakHarness harness(sopts);
    const flashtier::SoakReport report = harness.Run();
    std::printf("flashcheck: %s\n", report.ToString().c_str());
    if (!write_stats(report.ToJson(sopts.recovery_budget_us))) {
      return 2;
    }
    return report.ok() ? 0 : 1;
  }
  if (!stats_json.empty()) {
    std::fprintf(stderr,
                 "flashcheck: --stats-json is only produced by --soak, --aging, --kv and "
                 "--disk-faults runs\n");
    return 2;
  }

  flashtier::CrashExplorer explorer(options);
  const flashtier::CrashExplorerReport report = explorer.Explore();
  std::printf("flashcheck: %s\n", report.ToString().c_str());
  if (options.break_recovery) {
    // Self-test mode: a broken recovery path MUST be caught.
    if (report.ok()) {
      std::printf("flashcheck: FAIL: broken recovery went undetected\n");
      return 1;
    }
    std::printf("flashcheck: OK: broken recovery detected as expected\n");
    return 0;
  }
  if (options.break_retirement) {
    // Self-test mode: with retirement disabled, injected erase failures put
    // non-erased blocks back on the free list — the checker MUST notice.
    if (report.ok()) {
      std::printf("flashcheck: FAIL: broken bad-block retirement went undetected\n");
      return 1;
    }
    std::printf("flashcheck: OK: broken bad-block retirement detected as expected\n");
    return 0;
  }
  return report.ok() ? 0 : 1;
}
