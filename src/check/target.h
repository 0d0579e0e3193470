// FlashCheck targets: the systems the runner (runner.cc) drives. A target
// owns the system under test, its workload generator and its shadow oracle;
// the schedules own the crash points, the audit cadence and the report.

#ifndef FLASHTIER_CHECK_TARGET_H_
#define FLASHTIER_CHECK_TARGET_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/check/runner.h"
#include "src/ssc/shard.h"

namespace flashtier {

// Thrown by the persistence hooks to simulate power failure at that exact
// instant. Unwinding abandons only RAM state, which the crash wipes anyway;
// the medium and the durable log/checkpoint regions keep whatever had been
// committed before the throw.
struct CrashInjected {};

using Violations = std::vector<std::string>;

// Appends one violation per audit finding as "<prefix> [invariant] detail".
void AddAudit(const std::string& prefix, const CheckReport& audit, Violations* out);

// What the aging schedule samples between rounds and epochs.
struct WearSample {
  FtlStats ftl;
  uint64_t ok_writes = 0;
  double retired_pct = 0.0;
  double erase_cv = 0.0;
};

class Target {
 public:
  Target() = default;
  // Targets hand `this` to device hooks, so they never copy or move.
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;
  virtual ~Target() = default;

  // Every SSC of the target in shard order; the crash step arms their
  // persistence hooks, so commit and recovery points count across shards.
  const std::vector<SscDevice*>& sscs() const { return sscs_; }

  // Runs `ops` workload operations generated from `seed`, moving the shadow
  // with every acknowledged one. A CrashInjected ends the run: the target
  // remembers the op in flight and returns true.
  virtual bool RunOps(uint64_t seed, uint32_t ops, Violations* out) = 0;

  // Power-fails / recovers every shard at once.
  virtual void SimulateCrash();
  virtual Status Recover();
  // Rebuilds host RAM state on the recovered devices.
  virtual void AfterRecovery() {}
  // Suspends new fault draws while the checker observes; sticky fault state
  // (bad blocks, corrupt pages, latent sectors) stays in force.
  virtual void PauseFaults(bool paused);

  // Structural and admission-policy audits, violations prefixed by `phase`.
  virtual void Audit(const std::string& phase, Violations* out) = 0;
  // Sweeps the whole address space against the shadow. With `settle`, the
  // op in flight at the crash is then settled to whatever recovered (both
  // outcomes were legal), so a long-lived shadow stays exact.
  virtual void Verify(bool settle, Violations* out) = 0;
  // Fills the target's counters and stats blocks into `report`.
  virtual void Finish(FlashCheckReport* report) = 0;
  // Only the SSC target ages (ValidateFlashCheckConfig).
  virtual WearSample Wear() const { return {}; }

 protected:
  std::vector<SscDevice*> sscs_;
};

// The sharded SSC device set the SSC and disk targets share: one device and
// one admission policy per shard on a shared virtual clock, plus the set of
// blocks whose only copy an injected fault destroyed.
class SscSet : public Target {
 public:
  explicit SscSet(const FlashCheckConfig& config);

  void Audit(const std::string& phase, Violations* out) override;

 protected:
  SscDevice& dev(Lbn lbn) { return *devices_[router_.ShardOf(lbn)]; }
  AdmissionPolicy& pol(Lbn lbn) { return *policies_[router_.ShardOf(lbn)]; }
  void RebuildPolicies();

  const FlashCheckConfig& config_;
  SimClock clock_;
  const ShardRouter router_;
  std::unordered_set<Lbn> lost_;  // outlives the devices whose hooks fill it
  uint64_t loss_notifications_ = 0;
  std::vector<std::unique_ptr<SscDevice>> devices_;
  std::vector<std::unique_ptr<AdmissionPolicy>> policies_;
  uint64_t next_token_ = 1;
  uint64_t ops_ = 0;
};

// Shard `index` of `shards`: the config's device knobs with capacity split
// evenly and a golden-ratio fault seed per shard.
SscConfig ShardSscConfig(const FlashCheckConfig& config, uint32_t shards, uint32_t index);

std::unique_ptr<Target> MakeSscTarget(const FlashCheckConfig& config);
std::unique_ptr<Target> MakeDiskTarget(const FlashCheckConfig& config);
std::unique_ptr<Target> MakeKvTarget(const FlashCheckConfig& config);

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_TARGET_H_
