// The KV target (DESIGN.md §5k): the KvCache extends the SSC's contract from
// 4 KB blocks to packed tiny objects — a dirty Set is durable when it
// returns (G1), a clean Set reads back new-or-miss, never stale (G2), and an
// acknowledged Delete stays deleted (G3). A deterministic object workload
// (dirty/clean sets over skewed keys, gets, deletes, flushes) moves a shadow
// of acknowledged operations, swept key by key, next to the structural
// InvariantChecker::CheckKv audit (key-map bijection, slab occupancy,
// medium agreement). Objects whose slab pages an injected fault destroyed
// may be missing, but must never read stale; a rejected Set's bypass
// eviction must keep G2, and no recently rejected key may resurface.

#include <algorithm>

#include "src/check/target.h"
#include "src/kv/kv_cache.h"
#include "src/util/rng.h"
#include "src/util/str_format.h"

namespace flashtier {

namespace {

enum class KvOpKind : uint8_t { kSetDirty, kSetClean, kGet, kDelete, kFlush };

struct KvOp {
  KvOpKind kind = KvOpKind::kGet;
  uint64_t key = 0;
  uint64_t token = 0;
  uint32_t size = 0;
};

// Half the traffic on a hot eighth of the key space so overwrites, deletes
// of cached keys and slab compaction are exercised, with periodic flushes to
// cross seal commit points.
std::vector<KvOp> BuildKvScript(uint64_t seed, uint32_t ops, uint64_t keys, uint64_t* next_token) {
  static constexpr uint32_t kSizes[] = {64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048};
  Rng rng(seed);
  std::vector<KvOp> script;
  script.reserve(ops);
  const uint64_t hot = std::max<uint64_t>(1, keys / 8);
  for (uint32_t i = 0; i < ops; ++i) {
    KvOp op;
    op.key = rng.Chance(0.5) ? rng.Below(hot) : rng.Below(keys);
    const uint64_t draw = rng.Below(100);
    op.kind = draw < 20   ? KvOpKind::kSetDirty
              : draw < 55 ? KvOpKind::kSetClean
              : draw < 85 ? KvOpKind::kGet
              : draw < 97 ? KvOpKind::kDelete
                          : KvOpKind::kFlush;
    if (op.kind == KvOpKind::kSetDirty || op.kind == KvOpKind::kSetClean) {
      op.size = kSizes[rng.Below(sizeof(kSizes) / sizeof(kSizes[0]))];
      op.token = (*next_token)++;
    }
    script.push_back(op);
  }
  return script;
}

// Last acknowledged state of one object key. kAbsent covers acked deletes
// and policy-rejected sets: the key must read not-present, never any older
// version.
enum class KvShadowState : uint8_t { kNone, kDirty, kClean, kAbsent };

struct KvShadowEntry {
  KvShadowState state = KvShadowState::kNone;
  uint64_t token = 0;
};

KvCacheConfig CacheConfig(const FlashCheckConfig& c) {
  KvCacheConfig config;
  config.shards = c.shards;
  config.packing = c.packing;
  config.slab_pages = c.slab_pages;
  config.admission = c.admission;
  config.ssc = ShardSscConfig(c, /*shards=*/1, /*index=*/0);  // the cache splits it
  return config;
}

class KvTarget final : public Target {
 public:
  explicit KvTarget(const FlashCheckConfig& config)
      : config_(config), cache_(CacheConfig(config)), shadow_(config.keys) {
    for (uint32_t i = 0; i < cache_.shard_count(); ++i) {
      KvShard* shard = &cache_.shard(i);
      sscs_.push_back(&shard->ssc());
      // A fault that destroyed a slab page takes every live object on it.
      shard->ssc().set_data_loss_hook([shard, this](Lbn lbn) {
        const auto it = shard->slabs().find(lbn / std::max<uint32_t>(1, shard->slab_pages()));
        if (it == shard->slabs().end()) {
          return;  // a drop the KV layer itself initiated
        }
        for (const KvSlot& slot : it->second.slots) {
          if (slot.live) {
            lost_.insert(slot.key);
          }
        }
      });
    }
  }

  bool RunOps(uint64_t seed, uint32_t ops, Violations* out) override;
  void SimulateCrash() override { cache_.SimulateCrash(); }
  Status Recover() override { return cache_.Recover(); }
  void Audit(const std::string& phase, Violations* out) override {
    AddAudit(phase + " invariant", InvariantChecker::CheckKv(cache_, config_.faults.enabled), out);
  }
  void Verify(bool settle, Violations* out) override;
  void Finish(FlashCheckReport* report) override {
    report->ops_executed = ops_;
    report->kv = kv_;
    report->faults = faults_;
  }

 private:
  // Whether the op in flight at the crash may have changed `key`.
  bool Pending(uint64_t key) const {
    return pending_.key == key && pending_.kind != KvOpKind::kGet &&
           pending_.kind != KvOpKind::kFlush;
  }

  const FlashCheckConfig& config_;
  std::unordered_set<uint64_t> lost_;  // outlives the cache whose hooks fill it
  KvCache cache_;
  std::vector<KvShadowEntry> shadow_;
  KvOp pending_;  // the op in flight at the crash; a get when there was none
  uint64_t next_token_ = 1;
  uint64_t ops_ = 0;
  // Snapshotted before each sweep, whose gets would pollute the counters.
  KvStats kv_;
  FaultStats faults_;
};

bool KvTarget::RunOps(uint64_t seed, uint32_t ops, Violations* out) {
  pending_ = {};
  const bool faults_on = config_.faults.enabled;
  for (const KvOp& op : BuildKvScript(seed, ops, config_.keys, &next_token_)) {
    KvShadowEntry& entry = shadow_[op.key];
    try {
      switch (op.kind) {
        case KvOpKind::kSetDirty:
        case KvOpKind::kSetClean: {
          const bool dirty = op.kind == KvOpKind::kSetDirty;
          const Status st = cache_.Set(op.key, op.token, op.size, dirty);
          if (IsOk(st)) {
            // kOk covers both the admitted insert and the policy bypass
            // (data went around the cache); the key map tells them apart.
            const bool cached = cache_.shard(cache_.ShardOf(op.key)).key_map().Contains(op.key);
            entry = cached ? KvShadowEntry{dirty ? KvShadowState::kDirty : KvShadowState::kClean,
                                           op.token}
                           : KvShadowEntry{KvShadowState::kAbsent, 0};
          } else if (st != Status::kNoSpace && st != Status::kBackpressure) {
            out->push_back(StrFormat("set key %llu failed: %s", (unsigned long long)op.key,
                                     StatusName(st).data()));
          }
          break;
        }
        case KvOpKind::kGet: {
          uint64_t token = 0;
          const Status st = cache_.Get(op.key, &token);
          const bool cached =
              entry.state == KvShadowState::kDirty || entry.state == KvShadowState::kClean;
          if (IsOk(st) && !cached) {
            out->push_back(
                StrFormat("kv-G3: key %llu hit after delete/reject", (unsigned long long)op.key));
          } else if (IsOk(st) && token != entry.token) {
            out->push_back(StrFormat("kv-G2: live read of key %llu returned a stale token",
                                     (unsigned long long)op.key));
          } else if (st == Status::kNotPresent) {
            if (entry.state == KvShadowState::kDirty && lost_.count(op.key) == 0) {
              out->push_back(
                  StrFormat("kv-G1: live read lost dirty key %llu", (unsigned long long)op.key));
            }
          } else if (!IsOk(st) && faults_on) {
            lost_.insert(op.key);  // the read error retired the object
          } else if (!IsOk(st)) {
            out->push_back(StrFormat("get key %llu failed: %s", (unsigned long long)op.key,
                                     StatusName(st).data()));
          }
          break;
        }
        case KvOpKind::kDelete: {
          const Status st = cache_.Delete(op.key);
          if (st == Status::kNotPresent && entry.state == KvShadowState::kDirty &&
              lost_.count(op.key) == 0) {
            out->push_back(StrFormat("kv-G1: delete found dirty key %llu missing",
                                     (unsigned long long)op.key));
          }
          if (IsOk(st) || st == Status::kNotPresent) {
            entry = {KvShadowState::kAbsent, 0};
          } else if (st != Status::kBackpressure) {
            out->push_back(StrFormat("delete key %llu failed: %s", (unsigned long long)op.key,
                                     StatusName(st).data()));
          }
          break;
        }
        case KvOpKind::kFlush:
          // kNoSpace from an all-dirty device is an honest refusal, and the
          // objects stay readable from the open slab — not a violation.
          (void)cache_.Flush();
          break;
      }
    } catch (const CrashInjected&) {
      pending_ = op;
      // An interrupted Set may still have landed durably while the OnAdmit
      // that clears any old reject record never ran; a real host rebuilds
      // policy state after a crash. Clear it so the rejected-key-absent
      // audit cannot indict a legitimately (re-)admitted key.
      if (op.kind == KvOpKind::kSetDirty || op.kind == KvOpKind::kSetClean) {
        cache_.shard(cache_.ShardOf(op.key)).policy().OnAdmit(op.key);
      }
      return true;
    }
    ++ops_;
  }
  return false;
}

void KvTarget::Verify(bool settle, Violations* out) {
  kv_ = cache_.AggregateStats();
  faults_ = FaultStats{};
  for (SscDevice* ssc : sscs_) {
    faults_.Merge(ssc->device().fault_stats());
  }
  const bool faults_on = config_.faults.enabled;
  for (uint64_t key = 0; key < shadow_.size(); ++key) {
    const KvShadowEntry entry = shadow_[key];
    uint64_t token = 0;
    const Status st = cache_.Get(key, &token);
    const bool is_pending = Pending(key);
    if (IsOk(st)) {
      const bool matches_old =
          (entry.state == KvShadowState::kDirty || entry.state == KvShadowState::kClean) &&
          token == entry.token;
      const bool matches_new =
          is_pending && pending_.kind != KvOpKind::kDelete && token == pending_.token;
      if (matches_old || matches_new) {
        continue;
      }
      if (entry.state == KvShadowState::kAbsent) {
        out->push_back(
            StrFormat("kv-G3: deleted/rejected key %llu resurfaced", (unsigned long long)key));
      } else if (entry.state == KvShadowState::kNone) {
        out->push_back(StrFormat("kv: never-set key %llu reads present", (unsigned long long)key));
      } else {
        out->push_back(StrFormat("kv-G2: key %llu reads a stale token after recovery",
                                 (unsigned long long)key));
      }
    } else if (st == Status::kNotPresent) {
      // A miss is legal for everything except an acknowledged dirty object
      // that was neither in flight nor destroyed by an injected fault (G1).
      if (entry.state == KvShadowState::kDirty && !is_pending && lost_.count(key) == 0) {
        out->push_back(
            StrFormat("kv-G1: dirty key %llu missing after recovery", (unsigned long long)key));
      }
    } else if (!(faults_on && (entry.state != KvShadowState::kDirty || lost_.count(key) != 0 ||
                               is_pending))) {
      out->push_back(StrFormat("get key %llu errored after recovery: %s", (unsigned long long)key,
                               StatusName(st).data()));
    }
  }

  if (!settle || !Pending(pending_.key)) {
    return;
  }
  uint64_t token = 0;
  KvShadowEntry& entry = shadow_[pending_.key];
  if (!IsOk(cache_.Get(pending_.key, &token))) {
    entry = {KvShadowState::kAbsent, 0};
  } else if (token == pending_.token) {
    const bool dirty = pending_.kind == KvOpKind::kSetDirty;
    entry = {dirty ? KvShadowState::kDirty : KvShadowState::kClean, token};
  }  // else: the old version survived; the entry already describes it.
}

}  // namespace

std::unique_ptr<Target> MakeKvTarget(const FlashCheckConfig& config) {
  return std::make_unique<KvTarget>(config);
}

}  // namespace flashtier
