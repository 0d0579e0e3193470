#include "src/check/kv_check.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/kv/kv_cache.h"
#include "src/ssc/persist.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/str_format.h"

namespace flashtier {

// ---------------------------------------------------------------------------
// InvariantChecker::CheckKv (declared in invariant_checker.h)
// ---------------------------------------------------------------------------

void InvariantChecker::SscPageState(const SscDevice& ssc, uint64_t lbn, bool* present,
                                    bool* dirty) {
  *present = false;
  *dirty = false;
  if (const uint64_t* packed = ssc.page_map_.Find(lbn); packed != nullptr) {
    *present = true;
    *dirty = SscDevice::PackedDirty(*packed);
    return;
  }
  const uint32_t ppb = ssc.device_->geometry().pages_per_block;
  if (const SscDevice::BlockEntry* e = ssc.block_map_.Find(lbn / ppb); e != nullptr) {
    const uint32_t off = static_cast<uint32_t>(lbn % ppb);
    if ((e->present_bits >> off) & 1u) {
      *present = true;
      *dirty = ((e->dirty_bits >> off) & 1u) != 0;
    }
  }
}

CheckReport InvariantChecker::CheckKv(const KvShard& shard, bool faults_possible) {
  CheckReport report;
  const auto& slabs = shard.slabs();

  // Exactly the advertised open slab may be unsealed, and sequence numbers
  // never catch up with the allocator.
  uint64_t unsealed = 0;
  uint64_t live_total = 0;
  for (const auto& [seq, slab] : slabs) {
    ++report.checks_run;
    if (!slab.sealed) {
      ++unsealed;
      if (!shard.has_open_slab() || shard.open_slab_seq() != seq) {
        report.Add("kv.open-slab",
                   StrFormat("unsealed slab %llu is not the open slab", (unsigned long long)seq));
      }
    }
    ++report.checks_run;
    if (seq >= shard.next_slab_seq()) {
      report.Add("kv.seq-monotonic",
                 StrFormat("slab %llu >= next seq %llu", (unsigned long long)seq,
                           (unsigned long long)shard.next_slab_seq()));
    }
  }
  ++report.checks_run;
  if (unsealed > 1) {
    report.Add("kv.open-slab", StrFormat("%llu unsealed slabs, at most 1 allowed",
                                         (unsigned long long)unsealed));
  }
  ++report.checks_run;
  if (shard.has_open_slab() && slabs.find(shard.open_slab_seq()) == slabs.end()) {
    report.Add("kv.open-slab", StrFormat("open slab %llu missing from the directory",
                                         (unsigned long long)shard.open_slab_seq()));
  }

  for (const auto& [seq, slab] : slabs) {
    // Recompute the occupancy bookkeeping from the slots themselves.
    uint32_t used = 0;
    uint32_t live_bytes = 0;
    uint32_t live_count = 0;
    uint32_t dirty_live = 0;
    uint32_t prev_end = 0;
    bool overlap = false;
    std::vector<bool> page_holds_live_dirty(slab.sealed ? slab.pages_spanned : 0, false);
    for (uint32_t i = 0; i < slab.slots.size(); ++i) {
      const KvSlot& slot = slab.slots[i];
      if (!slot.live) {
        continue;  // dead slots may be placeholder entries after recovery
      }
      const uint32_t bytes = KvSlotBytes(slot.size);
      if (slot.offset < prev_end) {
        overlap = true;
      }
      prev_end = slot.offset + bytes;
      used = std::max(used, prev_end);
      ++live_total;
      live_bytes += bytes;
      ++live_count;
      if (slot.dirty) {
        ++dirty_live;
        for (uint32_t page = slot.offset / kKvPageBytes;
             page <= (prev_end - 1) / kKvPageBytes; ++page) {
          if (page < page_holds_live_dirty.size()) {
            page_holds_live_dirty[page] = true;
          }
        }
      }
      // Key-map agreement, slot side: every live slot is reachable under its
      // own key at exactly this location.
      ++report.checks_run;
      const uint64_t* loc = shard.key_map().Find(slot.key);
      if (loc == nullptr || KvShard::LocSeq(*loc) != seq || KvShard::LocSlot(*loc) != i) {
        report.Add("kv.slot-unmapped",
                   StrFormat("live slot %u of slab %llu (key %llu) is not mapped back", i,
                             (unsigned long long)seq, (unsigned long long)slot.key));
      }
    }
    ++report.checks_run;
    if (overlap) {
      report.Add("kv.slot-overlap", StrFormat("slab %llu has overlapping slots",
                                              (unsigned long long)seq));
    }
    ++report.checks_run;
    // used_bytes is the append frontier: it covers every live slot but may
    // exceed the live maximum (dead slots keep their space until compaction).
    if (used > slab.used_bytes || live_bytes != slab.live_bytes ||
        live_count != slab.live_count || dirty_live != slab.dirty_live) {
      report.Add("kv.slab-counters",
                 StrFormat("slab %llu counters used=%u/%u live=%u/%u count=%u/%u dirty=%u/%u",
                           (unsigned long long)seq, slab.used_bytes, used, slab.live_bytes,
                           live_bytes, slab.live_count, live_count, slab.dirty_live, dirty_live));
    }
    ++report.checks_run;
    if (slab.used_bytes > shard.slab_capacity_bytes()) {
      report.Add("kv.slab-overflow", StrFormat("slab %llu uses %u of %u bytes",
                                               (unsigned long long)seq, slab.used_bytes,
                                               shard.slab_capacity_bytes()));
    }
    if (!slab.sealed) {
      continue;  // open slab lives in device RAM; no medium to agree with
    }
    ++report.checks_run;
    const uint32_t expect_pages =
        std::max<uint32_t>(1, (slab.used_bytes + kKvPageBytes - 1) / kKvPageBytes);
    if (slab.pages_spanned != expect_pages || slab.pages_spanned > shard.slab_pages()) {
      report.Add("kv.slab-pages", StrFormat("slab %llu spans %u pages, expected %u (max %u)",
                                            (unsigned long long)seq, slab.pages_spanned,
                                            expect_pages, shard.slab_pages()));
    }
    ++report.checks_run;
    if (!faults_possible && slab.dirty_written && dirty_live == 0) {
      // The last dirty object's death hands the slab to silent eviction via
      // Clean; a quiescent dirty-written slab with no dirty slots missed it.
      report.Add("kv.dirty-flag", StrFormat("sealed slab %llu still dirty-written with no "
                                            "live dirty slots",
                                            (unsigned long long)seq));
    }
    // Medium agreement: pages holding live dirty objects must be present and
    // dirty (silent eviction only drops clean data); pages of a clean slab
    // may be gone, but must never show up dirty.
    for (uint32_t page = 0; page < slab.pages_spanned; ++page) {
      bool present = false;
      bool dirty = false;
      SscPageState(shard.ssc(), shard.SlabBaseLbn(seq) + page, &present, &dirty);
      ++report.checks_run;
      if (page < page_holds_live_dirty.size() && page_holds_live_dirty[page]) {
        if (!present) {
          if (!faults_possible) {
            report.Add("kv.dirty-page-missing",
                       StrFormat("slab %llu page %u holds live dirty objects but is absent",
                                 (unsigned long long)seq, page));
          }
        } else if (!dirty) {
          report.Add("kv.dirty-page-clean",
                     StrFormat("slab %llu page %u holds live dirty objects but is clean",
                               (unsigned long long)seq, page));
        }
      } else if (present && dirty && !slab.dirty_written) {
        report.Add("kv.clean-slab-dirty-page",
                   StrFormat("clean slab %llu page %u is dirty on the medium",
                             (unsigned long long)seq, page));
      }
    }
  }

  // Key-map agreement, map side: every mapping points at a live slot that
  // carries the same key, and the map holds exactly the live slots.
  shard.key_map().ForEach([&](uint64_t key, uint64_t loc) {
    ++report.checks_run;
    const uint64_t seq = KvShard::LocSeq(loc);
    const uint32_t idx = KvShard::LocSlot(loc);
    const auto it = slabs.find(seq);
    if (it == slabs.end() || idx >= it->second.slots.size()) {
      report.Add("kv.keymap-dangling", StrFormat("key %llu maps to missing slab %llu slot %u",
                                                 (unsigned long long)key, (unsigned long long)seq,
                                                 idx));
      return;
    }
    const KvSlot& slot = it->second.slots[idx];
    if (!slot.live || slot.key != key) {
      report.Add("kv.keymap-mismatch",
                 StrFormat("key %llu maps to %s slot %u of slab %llu (slot key %llu)",
                           (unsigned long long)key, slot.live ? "live" : "dead", idx,
                           (unsigned long long)seq, (unsigned long long)slot.key));
    }
  });
  ++report.checks_run;
  if (shard.key_map().size() != live_total) {
    report.Add("kv.keymap-count", StrFormat("key map holds %llu keys, slabs hold %llu live slots",
                                            (unsigned long long)shard.key_map().size(),
                                            (unsigned long long)live_total));
  }

  // Admission policy: bounded memory, and no recently rejected key may be
  // cached — the reject path either found nothing or evicted the stale copy.
  const AdmissionPolicy& policy = shard.policy();
  ++report.checks_run;
  if (policy.MemoryUsage() > policy.MemoryBound()) {
    report.Add("kv.policy.memory-bound",
               StrFormat("policy '%.*s' uses %zu bytes, bound %zu",
                         static_cast<int>(policy.name().size()), policy.name().data(),
                         policy.MemoryUsage(), policy.MemoryBound()));
  }
  policy.recent_rejects().ForEach([&](uint64_t key, uint32_t) {
    ++report.checks_run;
    if (shard.key_map().Contains(key)) {
      report.Add("kv.policy.rejected-present",
                 StrFormat("rejected key %llu is cached", (unsigned long long)key));
    }
  });

  // The device the slabs live on must itself be sound.
  report.Merge(Check(shard.ssc()));
  return report;
}

CheckReport InvariantChecker::CheckKv(const KvCache& cache, bool faults_possible) {
  CheckReport report;
  for (uint32_t i = 0; i < cache.shard_count(); ++i) {
    CheckReport r = CheckKv(cache.shard(i), faults_possible);
    report.checks_run += r.checks_run;
    report.violation_count += r.violation_count;
    for (InvariantViolation& v : r.violations) {
      if (report.violations.size() >= CheckReport::kMaxRecorded) {
        break;
      }
      report.violations.push_back(
          {std::move(v.invariant), StrFormat("shard %u: ", i) + v.detail});
    }
    // Cross-shard partition: a shard may only cache keys the router assigns
    // to it, so no object can be cached (or go stale) in two shards at once.
    cache.shard(i).key_map().ForEach([&](uint64_t key, uint64_t) {
      ++report.checks_run;
      if (cache.ShardOf(key) != i) {
        report.Add("kv.shard-partition",
                   StrFormat("key %llu cached in shard %u but routed to %u",
                             (unsigned long long)key, i, cache.ShardOf(key)));
      }
    });
  }
  return report;
}

// ---------------------------------------------------------------------------
// KV crash exploration and soak
// ---------------------------------------------------------------------------

namespace {

// Thrown by the persistence hooks to simulate power failure at that exact
// instant; unwinding abandons only device-RAM state, which SimulateCrash
// wipes anyway.
struct CrashInjected {};

enum class KvCheckOpKind : uint8_t { kSetDirty, kSetClean, kGet, kDelete, kFlush };

struct KvCheckOp {
  KvCheckOpKind kind = KvCheckOpKind::kGet;
  uint64_t key = 0;
  uint64_t token = 0;
  uint32_t size = 0;
};

// Deterministic mixed object workload: half the traffic on a hot eighth of
// the key space so overwrites, deletes of cached keys and slab compaction
// are exercised, with periodic flushes to cross seal commit points.
std::vector<KvCheckOp> BuildKvScript(uint64_t seed, uint32_t ops, uint64_t keys,
                                     uint64_t* next_token) {
  static constexpr uint32_t kSizes[] = {64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048};
  Rng rng(seed);
  std::vector<KvCheckOp> script;
  script.reserve(ops);
  const uint64_t hot = std::max<uint64_t>(1, keys / 8);
  for (uint32_t i = 0; i < ops; ++i) {
    KvCheckOp op;
    op.key = rng.Chance(0.5) ? rng.Below(hot) : rng.Below(keys);
    const uint64_t draw = rng.Below(100);
    if (draw < 20) {
      op.kind = KvCheckOpKind::kSetDirty;
    } else if (draw < 55) {
      op.kind = KvCheckOpKind::kSetClean;
    } else if (draw < 85) {
      op.kind = KvCheckOpKind::kGet;
    } else if (draw < 97) {
      op.kind = KvCheckOpKind::kDelete;
    } else {
      op.kind = KvCheckOpKind::kFlush;
    }
    if (op.kind == KvCheckOpKind::kSetDirty || op.kind == KvCheckOpKind::kSetClean) {
      op.size = kSizes[rng.Below(sizeof(kSizes) / sizeof(kSizes[0]))];
      op.token = (*next_token)++;
    }
    script.push_back(op);
  }
  return script;
}

// Last acknowledged state of one object key — the paper's guarantees mapped
// to objects. kAbsent covers acked deletes and policy-rejected sets: the
// key must read not-present, never any older version.
enum class KvShadowState : uint8_t { kNone, kDirty, kClean, kAbsent };

struct KvShadowEntry {
  KvShadowState state = KvShadowState::kNone;
  uint64_t token = 0;
};

// The operation in flight when power failed: both its before- and
// after-states are legal for that one key.
struct KvPending {
  bool active = false;
  KvCheckOpKind kind = KvCheckOpKind::kGet;
  uint64_t key = 0;
  uint64_t token = 0;
};

KvCacheConfig CacheConfig(const KvCheckOptions& o) {
  KvCacheConfig config;
  config.shards = o.shards;
  config.packing = o.packing;
  config.slab_pages = o.slab_pages;
  config.admission = o.admission;
  config.ssc.capacity_pages = o.capacity_pages;
  config.ssc.mode = o.mode;
  config.ssc.group_commit_ops = o.group_commit_ops;
  config.ssc.checkpoint_interval_writes = o.checkpoint_interval_writes;
  config.ssc.log_region_pages = o.log_region_pages;
  config.ssc.checkpoint_segment_entries = o.checkpoint_segment_entries;
  config.ssc.fault_plan = o.faults;
  return config;
}

// Drives one KvCache through the scripted workload, the crash, the recovery
// and the shadow sweep. The shadow, lost-key set and violation sink live
// outside so the soak harness can carry them across cycles.
class KvCheckDriver {
 public:
  KvCheckDriver(const KvCheckOptions& options, KvCache* cache,
                std::vector<KvShadowEntry>* shadow, std::unordered_set<uint64_t>* lost,
                std::vector<std::string>* violations)
      : options_(options),
        cache_(cache),
        shadow_(shadow),
        lost_(lost),
        violations_(violations) {}

  // Objects whose slab pages an injected medium fault destroyed may
  // legitimately be missing afterwards — but must never read stale.
  void InstallLossHooks() {
    for (uint32_t i = 0; i < cache_->shard_count(); ++i) {
      KvShard* shard = &cache_->shard(i);
      std::unordered_set<uint64_t>* lost = lost_;
      shard->ssc().set_data_loss_hook([shard, lost](Lbn lbn) {
        const uint64_t seq = lbn / std::max<uint32_t>(1, shard->slab_pages());
        const auto it = shard->slabs().find(seq);
        if (it == shard->slabs().end()) {
          return;  // a drop the KV layer itself initiated
        }
        for (const KvSlot& slot : it->second.slots) {
          if (slot.live) {
            lost->insert(slot.key);
          }
        }
      });
    }
  }

  void PauseFaults(bool paused) {
    for (uint32_t i = 0; i < cache_->shard_count(); ++i) {
      cache_->shard(i).ssc().device_for_testing()->set_fault_injection_paused(paused);
    }
  }

  struct OpsResult {
    bool crashed = false;
    uint64_t points = 0;  // commit points crossed before the crash (or all)
    uint64_t ops_run = 0;
    KvPending pending;
  };

  // Runs the script with a crash injected at global commit point
  // `crash_point` (counted across every shard in execution order;
  // UINT64_MAX = run to quiescence). Acknowledged operations move the
  // shadow; pre-crash read-backs are verified on the way.
  OpsResult RunOps(const std::vector<KvCheckOp>& script, uint64_t crash_point) {
    OpsResult result;
    uint64_t* points = &result.points;
    const bool trace = options_.verbose;
    for (uint32_t i = 0; i < cache_->shard_count(); ++i) {
      cache_->shard(i).ssc().persist_for_testing()->set_commit_point_hook_for_testing(
          [points, crash_point, trace](CommitPoint p) {
            if (trace) {
              std::fprintf(stderr, "flashcheck: kv point %llu = %s\n",
                           (unsigned long long)*points, CommitPointName(p));
            }
            if ((*points)++ == crash_point) {
              throw CrashInjected{};
            }
          });
    }
    const bool faults_on = options_.faults.enabled;
    for (const KvCheckOp& op : script) {
      KvShadowEntry& entry = (*shadow_)[op.key];
      try {
        switch (op.kind) {
          case KvCheckOpKind::kSetDirty:
          case KvCheckOpKind::kSetClean: {
            const bool dirty = op.kind == KvCheckOpKind::kSetDirty;
            const Status st = cache_->Set(op.key, op.token, op.size, dirty);
            if (IsOk(st)) {
              // kOk covers both the admitted insert and the policy bypass
              // (data went around the cache); the key map tells them apart.
              const bool cached =
                  cache_->shard(cache_->ShardOf(op.key)).key_map().Contains(op.key);
              entry = cached ? KvShadowEntry{dirty ? KvShadowState::kDirty
                                                   : KvShadowState::kClean,
                                             op.token}
                             : KvShadowEntry{KvShadowState::kAbsent, 0};
            } else if (st != Status::kNoSpace && st != Status::kBackpressure) {
              violations_->push_back(StrFormat("set key %llu failed: %s",
                                               (unsigned long long)op.key, StatusName(st).data()));
            }
            break;
          }
          case KvCheckOpKind::kGet: {
            uint64_t token = 0;
            const Status st = cache_->Get(op.key, &token);
            if (IsOk(st)) {
              if (entry.state == KvShadowState::kDirty ||
                  entry.state == KvShadowState::kClean) {
                if (token != entry.token) {
                  violations_->push_back(StrFormat("kv-G2: live read of key %llu returned a "
                                                   "stale token",
                                                   (unsigned long long)op.key));
                }
              } else {
                violations_->push_back(StrFormat("kv-G3: key %llu hit after delete/reject",
                                                 (unsigned long long)op.key));
              }
            } else if (st == Status::kNotPresent) {
              if (entry.state == KvShadowState::kDirty && lost_->count(op.key) == 0) {
                violations_->push_back(StrFormat("kv-G1: live read lost dirty key %llu",
                                                 (unsigned long long)op.key));
              }
            } else if (faults_on) {
              lost_->insert(op.key);  // the read error retired the object
            } else {
              violations_->push_back(StrFormat("get key %llu failed: %s",
                                               (unsigned long long)op.key, StatusName(st).data()));
            }
            break;
          }
          case KvCheckOpKind::kDelete: {
            const Status st = cache_->Delete(op.key);
            if (IsOk(st)) {
              entry = {KvShadowState::kAbsent, 0};
            } else if (st == Status::kNotPresent) {
              if (entry.state == KvShadowState::kDirty && lost_->count(op.key) == 0) {
                violations_->push_back(StrFormat("kv-G1: delete found dirty key %llu missing",
                                                 (unsigned long long)op.key));
              }
              entry = {KvShadowState::kAbsent, 0};
            } else if (st != Status::kBackpressure) {
              violations_->push_back(StrFormat("delete key %llu failed: %s",
                                               (unsigned long long)op.key, StatusName(st).data()));
            }
            break;
          }
          case KvCheckOpKind::kFlush:
            // kNoSpace from an all-dirty device is an honest refusal, and the
            // objects stay readable from the open slab — not a violation.
            (void)cache_->Flush();
            break;
        }
      } catch (const CrashInjected&) {
        result.crashed = true;
        result.pending = {true, op.kind, op.key, op.token};
        // An interrupted Set may still have landed durably while the OnAdmit
        // that clears any old reject record never ran; a real host rebuilds
        // policy state after a crash. Clear it so the rejected-key-absent
        // audit cannot indict a legitimately (re-)admitted key.
        if (op.kind == KvCheckOpKind::kSetDirty || op.kind == KvCheckOpKind::kSetClean) {
          cache_->shard(cache_->ShardOf(op.key)).policy().OnAdmit(op.key);
        }
        break;
      }
      ++result.ops_run;
    }
    for (uint32_t i = 0; i < cache_->shard_count(); ++i) {
      cache_->shard(i).ssc().persist_for_testing()->set_commit_point_hook_for_testing(nullptr);
    }
    return result;
  }

  // Power-fails every shard at once, then recovers, optionally crashing
  // again at the listed recovery-point ordinals (counted globally across
  // shards and attempts — two ascending ordinals produce a double crash).
  void CrashAndRecover(const std::vector<uint64_t>& recovery_crash_points,
                       uint64_t* recovery_points, uint64_t* recovery_crashes) {
    uint64_t ordinal = 0;
    size_t next_crash = 0;
    const bool trace = options_.verbose;
    for (uint32_t i = 0; i < cache_->shard_count(); ++i) {
      cache_->shard(i).ssc().persist_for_testing()->set_recovery_point_hook_for_testing(
          [&ordinal, &next_crash, &recovery_crash_points, recovery_crashes,
           trace](RecoveryPoint p) {
            if (trace) {
              std::fprintf(stderr, "flashcheck: kv recovery point %llu = %s\n",
                           (unsigned long long)ordinal, RecoveryPointName(p));
            }
            const uint64_t o = ordinal++;
            if (next_crash < recovery_crash_points.size() &&
                o == recovery_crash_points[next_crash]) {
              ++next_crash;
              if (recovery_crashes != nullptr) {
                ++*recovery_crashes;
              }
              throw CrashInjected{};
            }
          });
    }
    cache_->SimulateCrash();
    bool recovered = false;
    bool refused = false;
    for (int attempt = 0; attempt < 4 && !recovered && !refused; ++attempt) {
      try {
        if (!IsOk(cache_->Recover())) {
          violations_->push_back("recovery: KvCache Recover returned an error");
          refused = true;
          break;
        }
        recovered = true;
      } catch (const CrashInjected&) {
        cache_->SimulateCrash();
      }
    }
    if (!recovered && !refused) {
      violations_->push_back("recovery: did not complete within the retry bound");
    }
    for (uint32_t i = 0; i < cache_->shard_count(); ++i) {
      cache_->shard(i).ssc().persist_for_testing()->set_recovery_point_hook_for_testing(
          nullptr);
    }
    if (recovery_points != nullptr) {
      *recovery_points = ordinal;
    }
  }

  void Audit(const char* tag) {
    if (!options_.run_invariant_checker) {
      return;
    }
    const CheckReport r = InvariantChecker::CheckKv(*cache_, options_.faults.enabled);
    for (const InvariantViolation& v : r.violations) {
      violations_->push_back(std::string(tag) + " invariant [" + v.invariant + "] " + v.detail);
    }
    if (r.violation_count > r.violations.size()) {
      violations_->push_back(
          StrFormat("%s invariant: %llu further violations truncated", tag,
                    (unsigned long long)(r.violation_count - r.violations.size())));
    }
  }

  // Reads every key back from the recovered cache and verifies G1-G3 for
  // objects against the shadow of acknowledged operations.
  void Sweep(const KvPending& pending) {
    const bool faults_on = options_.faults.enabled;
    for (uint64_t key = 0; key < options_.keys; ++key) {
      const KvShadowEntry entry = (*shadow_)[key];
      uint64_t token = 0;
      const Status st = cache_->Get(key, &token);
      const bool is_pending =
          pending.active && pending.key == key && pending.kind != KvCheckOpKind::kGet &&
          pending.kind != KvCheckOpKind::kFlush;
      const bool pending_set = is_pending && pending.kind != KvCheckOpKind::kDelete;
      if (IsOk(st)) {
        const bool matches_old = (entry.state == KvShadowState::kDirty ||
                                  entry.state == KvShadowState::kClean) &&
                                 token == entry.token;
        const bool matches_new = pending_set && token == pending.token;
        if (!matches_old && !matches_new) {
          if (entry.state == KvShadowState::kAbsent) {
            violations_->push_back(StrFormat("kv-G3: deleted/rejected key %llu resurfaced",
                                             (unsigned long long)key));
          } else if (entry.state == KvShadowState::kNone) {
            violations_->push_back(StrFormat("kv: never-set key %llu reads present",
                                             (unsigned long long)key));
          } else {
            violations_->push_back(StrFormat("kv-G2: key %llu reads a stale token after "
                                             "recovery",
                                             (unsigned long long)key));
          }
        }
      } else if (st == Status::kNotPresent) {
        // A miss is legal for everything except an acknowledged dirty object
        // that was neither in flight nor destroyed by an injected fault (G1).
        if (entry.state == KvShadowState::kDirty && !is_pending &&
            lost_->count(key) == 0) {
          violations_->push_back(StrFormat("kv-G1: dirty key %llu missing after recovery",
                                           (unsigned long long)key));
        }
      } else if (!(faults_on && (entry.state != KvShadowState::kDirty ||
                                 lost_->count(key) != 0 || is_pending))) {
        violations_->push_back(StrFormat("get key %llu errored after recovery: %s",
                                         (unsigned long long)key, StatusName(st).data()));
      }
    }
  }

  // Soak only: both outcomes of the in-flight op were legal across the
  // crash; settle its shadow entry to what the cache actually recovered so
  // the ambiguity does not leak into the next cycle's expectations.
  void SettlePending(const KvPending& pending) {
    if (!pending.active || pending.kind == KvCheckOpKind::kGet ||
        pending.kind == KvCheckOpKind::kFlush) {
      return;
    }
    uint64_t token = 0;
    const Status st = cache_->Get(pending.key, &token);
    KvShadowEntry& entry = (*shadow_)[pending.key];
    if (IsOk(st)) {
      if (token == pending.token) {
        entry = {pending.kind == KvCheckOpKind::kSetDirty ? KvShadowState::kDirty
                                                          : KvShadowState::kClean,
                 token};
      }
      // else: the old version survived; the entry already describes it.
    } else {
      entry = {KvShadowState::kAbsent, 0};
    }
  }

 private:
  const KvCheckOptions& options_;
  KvCache* cache_;
  std::vector<KvShadowEntry>* shadow_;
  std::unordered_set<uint64_t>* lost_;
  std::vector<std::string>* violations_;
};

struct KvTrialProbe {
  uint64_t commit_points = 0;
  uint64_t recovery_points = 0;
  uint64_t ops_run = 0;
  KvStats kv;
  FaultStats faults;
};

// One explorer trial: fresh cache, scripted workload with a crash at
// `crash_point`, recovery (optionally crashing at `recovery_crash_points`),
// audits and the shadow sweep. Returns the violations found.
std::vector<std::string> RunKvTrial(const KvCheckOptions& options,
                                    const std::vector<KvCheckOp>& script, uint64_t crash_point,
                                    const std::vector<uint64_t>& recovery_crash_points,
                                    KvTrialProbe* probe) {
  KvCache cache(CacheConfig(options));
  std::vector<KvShadowEntry> shadow(options.keys);
  std::unordered_set<uint64_t> lost;
  std::vector<std::string> violations;
  KvCheckDriver driver(options, &cache, &shadow, &lost, &violations);
  driver.InstallLossHooks();

  const KvCheckDriver::OpsResult result = driver.RunOps(script, crash_point);

  // The workload is over: suspend new fault draws so the act of checking
  // cannot itself destroy state; sticky fault state remains in force and
  // recovery must still handle it.
  driver.PauseFaults(true);
  if (!result.crashed) {
    driver.Audit("live-state");
  }
  uint64_t recovery_points = 0;
  driver.CrashAndRecover(recovery_crash_points, &recovery_points, nullptr);
  driver.Audit("post-recovery");
  if (probe != nullptr) {
    probe->commit_points = result.points;
    probe->recovery_points = recovery_points;
    probe->ops_run = result.ops_run;
    probe->kv = cache.AggregateStats();  // before the sweep pollutes get counters
    for (uint32_t i = 0; i < cache.shard_count(); ++i) {
      probe->faults.Merge(cache.shard(i).ssc().device().fault_stats());
    }
  }
  driver.Sweep(result.pending);
  return violations;
}

}  // namespace

std::string KvCheckReport::ToString() const {
  char buffer[320];
  if (soak) {
    std::snprintf(buffer, sizeof(buffer),
                  "kv soak: %u cycles, %llu ops, %llu mid-workload + %llu quiescent crashes, "
                  "%llu recovery crashes: %llu violations, %llu budget breaches, "
                  "recovery max %llu us",
                  cycles_run, (unsigned long long)ops_executed,
                  (unsigned long long)mid_workload_crashes,
                  (unsigned long long)quiescent_crashes, (unsigned long long)recovery_crashes,
                  (unsigned long long)violation_count, (unsigned long long)budget_exceeded,
                  (unsigned long long)max_recovery_us);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "kv: explored %llu of %llu commit points + %llu recovery trials over %llu "
                  "recovery points: %llu violations in %llu trials",
                  (unsigned long long)points_explored, (unsigned long long)total_commit_points,
                  (unsigned long long)recovery_trials, (unsigned long long)total_recovery_points,
                  (unsigned long long)violation_count,
                  (unsigned long long)trials_with_violations);
  }
  std::string out(buffer);
  if (faults.program_failures != 0 || faults.erase_failures != 0 ||
      faults.read_corruptions != 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "\n  faults injected: %llu program, %llu erase, %llu read",
                  (unsigned long long)faults.program_failures,
                  (unsigned long long)faults.erase_failures,
                  (unsigned long long)faults.read_corruptions);
    out += buffer;
  }
  for (const std::string& s : samples) {
    out += "\n  ";
    out += s;
  }
  if (violation_count > samples.size() && !samples.empty()) {
    out += "\n  ...";
  }
  return out;
}

std::string KvCheckReport::ToJson() const {
  return JsonLine()
      .Open("kv_check")
      .Str("mode", soak ? "soak" : "explore")
      .U64("commit_points", total_commit_points)
      .U64("points_explored", points_explored)
      .U64("recovery_points", total_recovery_points)
      .U64("recovery_trials", recovery_trials)
      .U64("cycles", cycles_run)
      .U64("ops", ops_executed)
      .U64("mid_workload_crashes", mid_workload_crashes)
      .U64("quiescent_crashes", quiescent_crashes)
      .U64("recovery_crashes", recovery_crashes)
      .U64("violations", violation_count)
      .U64("budget_exceeded", budget_exceeded)
      .U64("max_recovery_us", max_recovery_us)
      .Close()
      .Block("kv", kv)
      .Block("faults", faults)
      .str();
}

KvCheckHarness::KvCheckHarness(const KvCheckOptions& options) : options_(options) {}

KvCheckReport KvCheckHarness::Run() {
  return options_.soak_cycles > 0 ? Soak() : Explore();
}

KvCheckReport KvCheckHarness::Explore() {
  KvCheckReport report;
  report.soak = false;
  uint64_t next_token = 1;
  const std::vector<KvCheckOp> script =
      BuildKvScript(options_.seed, options_.ops, options_.keys, &next_token);

  const auto record = [&](const char* tag, std::vector<std::string> found) {
    if (found.empty()) {
      return;
    }
    ++report.trials_with_violations;
    report.violation_count += found.size();
    for (std::string& v : found) {
      if (options_.verbose) {
        std::fprintf(stderr, "flashcheck: %s: %s\n", tag, v.c_str());
      }
      if (report.samples.size() < KvCheckReport::kMaxSamples) {
        report.samples.push_back(std::string("[") + tag + "] " + std::move(v));
      }
    }
  };

  // Crash-free pass: count the commit and recovery points this workload
  // crosses (the script is deterministic, so every trial sees the same
  // sequence). The trial still ends with a quiescent crash + recovery,
  // which must be clean.
  KvTrialProbe probe;
  record("crash-free", RunKvTrial(options_, script, ~uint64_t{0}, {}, &probe));
  report.total_commit_points = probe.commit_points;
  report.total_recovery_points = probe.recovery_points;
  report.kv = probe.kv;
  report.faults = probe.faults;
  report.ops_executed += probe.ops_run;

  const uint32_t stride = std::max<uint32_t>(1, options_.stride);
  char tag[80];
  for (uint64_t point = 0; point < report.total_commit_points; point += stride) {
    if (options_.max_points != 0 && report.points_explored >= options_.max_points) {
      break;
    }
    std::snprintf(tag, sizeof(tag), "point %llu", (unsigned long long)point);
    record(tag, RunKvTrial(options_, script, point, {}, nullptr));
    ++report.points_explored;
  }

  if (options_.explore_recovery_points) {
    for (uint64_t r = 0; r < report.total_recovery_points; ++r) {
      const uint64_t c1 = report.total_commit_points != 0
                              ? (r * 13) % report.total_commit_points
                              : ~uint64_t{0};
      std::snprintf(tag, sizeof(tag), "crash %llu, recovery crash %llu",
                    (unsigned long long)c1, (unsigned long long)r);
      record(tag, RunKvTrial(options_, script, c1, {r}, nullptr));
      // Double crash: the restarted recovery crashes again a few points in
      // (the ordinal counter keeps running across attempts).
      const uint64_t r2 = r + 1 + (r * 7919) % 3;
      std::snprintf(tag, sizeof(tag), "crash %llu, double recovery crash %llu+%llu",
                    (unsigned long long)c1, (unsigned long long)r, (unsigned long long)r2);
      record(tag, RunKvTrial(options_, script, c1, {r, r2}, nullptr));
      std::snprintf(tag, sizeof(tag), "quiescent, recovery crash %llu",
                    (unsigned long long)r);
      record(tag, RunKvTrial(options_, script, ~uint64_t{0}, {r}, nullptr));
      report.recovery_trials += 3;
    }
  }
  return report;
}

KvCheckReport KvCheckHarness::Soak() {
  KvCheckReport report;
  report.soak = true;

  // The long-lived cache: built once, never rebuilt — each cycle's recovery
  // must hand the same shards back in a consistent state, and the shadow of
  // acknowledged operations is carried across cycles.
  KvCache cache(CacheConfig(options_));
  std::vector<KvShadowEntry> shadow(options_.keys);
  std::unordered_set<uint64_t> lost;
  uint64_t next_token = 1;
  Rng crash_rng(options_.seed ^ 0x6b76736f616bull);  // "kvsoak"

  uint64_t prev_points = 0;
  uint64_t prev_recovery_points = 0;
  char tag[48];
  for (uint32_t cycle = 0; cycle < options_.soak_cycles; ++cycle) {
    std::vector<std::string> violations;
    KvCheckDriver driver(options_, &cache, &shadow, &lost, &violations);
    driver.InstallLossHooks();

    const std::vector<KvCheckOp> script = BuildKvScript(
        options_.seed + cycle * 1000003ull, options_.soak_ops, options_.keys, &next_token);
    // First cycle runs to quiescence to calibrate the commit-point count;
    // later cycles draw the crash point across (and slightly past) it, so
    // some cycles crash mid-workload and some at quiescence.
    const uint64_t target = cycle == 0
                                ? ~uint64_t{0}
                                : crash_rng.Below(prev_points + prev_points / 4 + 8);
    const KvCheckDriver::OpsResult result = driver.RunOps(script, target);
    report.ops_executed += result.ops_run;
    if (result.crashed) {
      ++report.mid_workload_crashes;
    } else {
      ++report.quiescent_crashes;
    }
    // Monotone max: a cycle that crashed early still crossed few points, and
    // letting that shrink the draw range would trap every later cycle near
    // point zero. The quiescent cycles keep the ceiling honest.
    prev_points = std::max({prev_points, result.points, uint64_t{1}});

    std::vector<uint64_t> recovery_crash_points;
    if (options_.recovery_crash_period != 0 && prev_recovery_points != 0 &&
        (cycle + 1) % options_.recovery_crash_period == 0) {
      const uint64_t r = crash_rng.Below(prev_recovery_points);
      recovery_crash_points.push_back(r);
      if ((cycle + 1) % (2 * options_.recovery_crash_period) == 0) {
        recovery_crash_points.push_back(r + 1 + crash_rng.Below(3));
      }
    }

    driver.PauseFaults(true);
    uint64_t recovery_points = 0;
    driver.CrashAndRecover(recovery_crash_points, &recovery_points,
                           &report.recovery_crashes);
    prev_recovery_points = std::max<uint64_t>(1, recovery_points);

    uint64_t recovery_us = 0;
    for (uint32_t i = 0; i < cache.shard_count(); ++i) {
      recovery_us = std::max(recovery_us, cache.shard(i).ssc().last_recovery_us());
    }
    report.max_recovery_us = std::max(report.max_recovery_us, recovery_us);
    if (options_.recovery_budget_us != 0 && recovery_us > options_.recovery_budget_us) {
      ++report.budget_exceeded;
      if (options_.verbose) {
        std::fprintf(stderr, "flashcheck: cycle %u recovery took %llu us (budget %llu)\n",
                     cycle, (unsigned long long)recovery_us,
                     (unsigned long long)options_.recovery_budget_us);
      }
    }

    driver.Audit("post-recovery");
    report.kv = cache.AggregateStats();  // before the sweep pollutes get counters
    driver.Sweep(result.pending);
    driver.SettlePending(result.pending);
    driver.PauseFaults(false);

    report.violation_count += violations.size();
    if (!violations.empty()) {
      ++report.trials_with_violations;
    }
    std::snprintf(tag, sizeof(tag), "cycle %u", cycle);
    for (std::string& v : violations) {
      if (options_.verbose) {
        std::fprintf(stderr, "flashcheck: %s: %s\n", tag, v.c_str());
      }
      if (report.samples.size() < KvCheckReport::kMaxSamples) {
        report.samples.push_back(std::string("[") + tag + "] " + std::move(v));
      }
    }
    ++report.cycles_run;
  }

  for (uint32_t i = 0; i < cache.shard_count(); ++i) {
    report.faults.Merge(cache.shard(i).ssc().device().fault_stats());
  }
  return report;
}

}  // namespace flashtier
