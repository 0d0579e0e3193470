// FlashCheck: one scenario runner for the paper's consistency contract.
//
// The paper states FlashTier's contract as three guarantees (Section 3.2):
//   G1  write-dirty data is durable when the request completes,
//   G2  a read after write-clean returns the new data or not-present —
//       never an older version,
//   G3  a read after an acknowledged evict returns not-present,
// and claims a consistent cache recovers within 2.4 s. The runner turns
// those sentences into checked properties: it drives a deterministic
// workload against a *target*, injects simulated power failures on a
// *schedule*, recovers, and verifies the recovered state against a shadow
// model of every acknowledged operation plus the structural InvariantChecker
// audits (DESIGN.md "FlashCheck runner").
//
// Targets (the system under test and its oracle):
//   kSsc   the sharded SSC device set: scripted block ops through per-shard
//          admission policies, checked by the ShadowEntry G1-G3 oracle;
//   kDisk  cache managers over the SSC set and a faulty DiskModel, checked
//          by a host-level shadow and a final write-back drain (DiskGuard);
//   kKv    the KvCache: tiny-object Set/Get/Delete, object-level G1-G3.
// Schedules (derived from the config, see ScheduleOf):
//   explore  a crash-free counting pass, then one fresh-target trial per
//            commit point and 3 per recovery point (crash inside recovery,
//            the double crash, and a crash inside a quiescent recovery);
//   soak     `cycles` crash -> recover -> verify -> resume cycles on one
//            long-lived target, crash points drawn from a seeded RNG;
//   aging    epochs of host writes, each one device capacity, audited at
//            every epoch end with wear-out faults on and no crash injected.
//
// Crashes are injected by PersistenceManager hooks that throw through the
// device code; everything the throw abandons is RAM, which the simulated
// power failure wipes anyway.

#ifndef FLASHTIER_CHECK_RUNNER_H_
#define FLASHTIER_CHECK_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/cache_manager.h"
#include "src/disk/disk_fault_plan.h"
#include "src/disk/disk_model.h"
#include "src/disk/retry_policy.h"
#include "src/kv/kv_stats.h"
#include "src/policy/policy_factory.h"
#include "src/ssc/ssc_device.h"

namespace flashtier {

enum class CheckTarget : uint8_t { kSsc, kDisk, kKv };
enum class CheckSchedule : uint8_t { kExplore, kSoak, kAging };

struct FlashCheckConfig {
  // Device set. `capacity_pages` is the total, split across `shards`
  // (LBN- or key-hash partitioned; a power failure hits every shard). The
  // small device and commit knobs force GC, forced checkpoints and
  // multi-segment checkpoints inside every workload.
  uint64_t capacity_pages = 512;
  uint32_t shards = 1;
  EvictionPolicy policy = EvictionPolicy::kSeUtil;
  ConsistencyMode mode = ConsistencyMode::kFull;
  uint32_t group_commit_ops = 16;
  uint64_t checkpoint_interval_writes = 250;
  uint64_t log_region_pages = 4;
  uint64_t checkpoint_segment_entries = 16;
  // Flash medium faults; each shard draws from its own golden-ratio seed.
  // Data a fault destroys is excused from the shadow check, but may never
  // read stale.
  FaultPlan faults;
  // Per-shard admission policy consulted before every cache insertion.
  PolicyConfig admission;

  // Workload. `ops` is the explore script length; `ops_per_cycle` the soak
  // cycle length and the aging round length. Block targets address
  // `address_blocks` LBNs, the KV target `keys` object keys.
  uint64_t seed = 42;
  uint32_t ops = 600;
  uint32_t ops_per_cycle = 400;
  uint64_t address_blocks = 1536;
  uint64_t keys = 512;

  // Explore: 0 max_points means every commit point.
  uint32_t max_points = 0;
  uint32_t stride = 1;
  bool explore_recovery_points = true;

  // Soak (cycles > 0): every `recovery_crash_period`-th cycle also crashes
  // inside recovery, every second such cycle twice. A cycle whose recovery
  // exceeds the virtual-time budget (default: the paper's 2.4 s) fails;
  // 0 disables the budget. `crashes` = false runs the cycles crash-free.
  uint32_t cycles = 0;
  bool crashes = true;
  uint32_t recovery_crash_period = 3;
  uint64_t recovery_budget_us = 2'400'000;

  // Aging (aging_multiple > 0): endurance defenses, forwarded to SscConfig.
  uint32_t aging_multiple = 0;
  uint32_t wear_level_interval_writes = 0;
  uint32_t wear_level_max_diff = 8;
  uint32_t patrol_interval_writes = 0;
  uint32_t patrol_blocks_per_pass = 4;

  // Disk target: write-through instead of write-back managers, and a
  // background scrubber repairing up to `scrub_budget` latent sectors every
  // `scrub_period` ops (0 disables).
  bool write_through = false;
  uint32_t scrub_period = 64;
  uint32_t scrub_budget = 8;
  DiskParams disk;
  DiskFaultPlan disk_faults;
  RetryPolicy disk_retry;

  // KV target: slab packing and slab span in flash pages.
  bool packing = true;
  uint32_t slab_pages = 1;

  // Self-tests: recovery drops the log tail (--break-recovery), or erase-
  // failed blocks return to the free list (--break-retry); the runner must
  // then report violations.
  bool break_recovery = false;
  bool break_retirement = false;

  bool run_invariant_checker = true;
  bool verbose = false;  // print each violation as it is found
};

// Aging if aging_multiple > 0, else soak if cycles > 0, else explore.
CheckSchedule ScheduleOf(const FlashCheckConfig& config);

// The one place mode-dependent defaults live: flashcheck's fault knobs
// (inert until faults.enabled); for the disk target 8 cycles and an armed
// disk fault plan; for aging 512-op rounds, SscConfig's own commit knobs,
// aggressive endurance defenses and wear-out/disturb/retention faults.
FlashCheckConfig DefaultFlashCheckConfig(CheckTarget target, uint32_t aging_multiple);

// Rejects combinations the runner would silently ignore: a schedule the
// target lacks, or a knob the target or schedule never reads set away from
// its default. Returns nullptr when the config is runnable.
const char* ValidateFlashCheckConfig(CheckTarget target, const FlashCheckConfig& config);

struct FlashCheckReport {
  CheckTarget target = CheckTarget::kSsc;
  CheckSchedule schedule = CheckSchedule::kExplore;

  // Explore.
  uint64_t total_commit_points = 0;    // commit points in the crash-free run
  uint64_t total_recovery_points = 0;  // recovery points in one clean recovery
  uint64_t points_explored = 0;
  uint64_t recovery_trials = 0;

  // Soak.
  uint32_t cycles_run = 0;
  uint64_t crashes = 0;               // cycles that crashed
  uint64_t mid_workload_crashes = 0;  // ... inside an op (the rest: quiescent)
  uint64_t recovery_crashes = 0;      // crashes injected inside recovery
  uint64_t budget_us = 0;
  uint64_t budget_exceeded = 0;
  uint64_t max_recovery_us = 0;  // slowest cycle (max across shards within)
  uint64_t total_recovery_us = 0;

  // Aging.
  uint32_t epochs_run = 0;  // epochs whose full write quota landed
  uint64_t host_pages_written = 0;
  uint64_t ok_writes = 0;
  // kOk reads returning a token the shadow never acknowledged: wear may
  // destroy data, but never silently.
  uint64_t undetected_corruptions = 0;
  double erase_cv = 0.0;   // stddev/mean of per-block erase counts
  double write_amp = 0.0;  // extra writes per block (Table 5 metric)
  double first_epoch_miss_rate = 0.0;
  double last_epoch_miss_rate = 0.0;
  double max_retired_pct = 0.0;
  // Retired share at the end of the last epoch that met its quota with at
  // least one successful write: how far into wear-out the cache served.
  double serving_retired_pct = 0.0;
  bool write_exhausted = false;  // writes stopped landing before the end

  // Disk target.
  uint64_t write_errors = 0;  // honest write refusals surfaced to the host
  uint64_t read_errors = 0;   // honest read refusals surfaced to the host
  uint64_t loss_notifications = 0;
  uint64_t scrub_passes = 0;

  uint64_t ops_executed = 0;
  uint64_t trials_with_violations = 0;
  uint64_t violation_count = 0;
  std::vector<std::string> samples;  // first kMaxSamples, "[tag] violation"
  static constexpr size_t kMaxSamples = 32;

  // Stats blocks, merged across shards; each target fills its own.
  PersistStats persist;
  FaultStats faults;
  FtlStats ftl;
  DiskStats disk;
  ManagerStats manager;
  KvStats kv;

  bool ok() const {
    return violation_count == 0 && budget_exceeded == 0 && undetected_corruptions == 0;
  }
  // The violation sink: counts one trial's (or cycle's) findings under `tag`.
  void Record(const std::string& tag, std::vector<std::string> found, bool verbose);
  std::string ToString() const;
  // One --stats-json line; empty for SSC exploration, which has none.
  std::string ToJson() const;
};

FlashCheckReport RunFlashCheck(CheckTarget target, const FlashCheckConfig& config);

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_RUNNER_H_
