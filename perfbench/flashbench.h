// FlashBench: the repository's end-to-end benchmark.
//
// One repetition ("rep") of a workload generates the workload's trace from a
// seed, builds the system, replays the trace with correctness checks, then
// crashes and recovers the system and checks what survived. A rep yields two
// kinds of number:
//
//   * virtual: simulated time and simulator state (virtual IOPS, response
//     percentiles, counters). These are a pure function of (workload, seed)
//     and must repeat bit for bit across reps, thread counts and traced vs
//     untraced drivers;
//   * host: real time on the machine running the simulator (set-up time,
//     replayed requests per second, per-call host latency, host-time shares).
//
// The untraced block driver is the library's own ReplayEngine (with its
// stale-read oracle on). The traced driver issues the same per-request calls
// itself so it can bracket each FlashTierSystem::Read/Write, KvCache
// Get/Set/Delete, log flush and checkpoint with a span; it must reproduce the
// engine's virtual metrics exactly, which flashbench_test asserts.

#ifndef FLASHBENCH_FLASHBENCH_H_
#define FLASHBENCH_FLASHBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/flashtier.h"
#include "src/kv/kv_cache.h"
#include "src/trace/workload.h"

namespace flashbench {

struct Workload {
  std::string name;
  std::string why;
  bool kv = false;
  // Block workloads: a synthetic paper trace replayed against one system.
  std::string trace;  // "homes" | "usr"
  double scale = 0.0;
  flashtier::SystemType system = flashtier::SystemType::kSscWriteBack;
  uint32_t shards = 1;
  uint32_t depth = 1;    // host requests in flight per shard (1 = closed loop)
  uint32_t threads = 1;  // replay worker threads
  // KV workload: kv-zipf objects against a KvCache.
  uint64_t kv_keys = 0;
  uint64_t kv_ops = 0;
  uint64_t kv_cache_pages = 0;
};

const std::vector<Workload>& Workloads();
// Null when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

struct RepOptions {
  uint64_t seed = 1;
  bool traced = false;   // drive the calls ourselves and record spans
  uint32_t threads = 0;  // 0 = the workload's own thread count
};

struct NamedValue {
  std::string name;
  double value = 0.0;

  friend bool operator==(const NamedValue&, const NamedValue&) = default;
};
using Values = std::vector<NamedValue>;

// Looks `name` up in `values`; NaN when absent.
double Get(const Values& values, const std::string& name);

enum class SpanKind : uint8_t {
  kRead,        // FlashTierSystem::Read
  kWrite,       // FlashTierSystem::Write
  kGet,         // KvCache::Get
  kSet,         // KvCache::Set
  kDelete,      // KvCache::Delete
  kFlush,       // log flush: CommitPoint kFlushStart -> kFlushDone
  kCheckpoint,  // CommitPoint kCheckpointStart -> kCheckpointDone
  kCrash,       // SimulateCrash
  kRecover,     // Recover (block write-back: plus the dirty-table rebuild)
};

inline constexpr uint32_t kNoParent = ~uint32_t{0};

// One timed call. Spans live in per-shard buffers; `parent` indexes the same
// buffer (a flush or checkpoint points at the request that triggered it).
struct Span {
  uint64_t start_ns = 0;  // host time since the rep's epoch
  uint32_t host_ns = 0;
  uint32_t virt_us = 0;   // requests: response time; others: shard-clock delta
  uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::kRead;
  bool hit = false;       // reads and gets: served from the cache
};

struct RepResult {
  // Virtual metrics and counters; identical for every rep of a seed.
  Values virt;
  // Traced reps only: virtual per-layer metrics split by request span.
  Values layer_virt;
  // Host-time metrics of this rep.
  Values host;
  // Virtual recovery time of every crash probe (one for the native system,
  // whose Fig. 5 reload time is an estimate, not a simulated crash).
  std::vector<uint64_t> recovery_us;
  // FNV-1a over the generated trace records.
  uint64_t trace_digest = 0;
  // Correctness.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t stale_reads = 0;          // replay reads that returned old data
  uint64_t lost = 0;                 // lost dirty blocks or KV objects
  uint64_t recovery_mismatches = 0;  // post-recovery reads that returned old data
  bool recovered = true;             // Recover() returned kOk
  // Traced reps only: spans per shard, then the crash/recover spans.
  std::vector<std::vector<Span>> spans;

  bool Correct() const {
    return stale_reads == 0 && lost == 0 && recovery_mismatches == 0 && recovered;
  }
};

RepResult RunRep(const Workload& workload, const RepOptions& options);

// The kv-zipf trace profile and cache configuration a rep uses.
flashtier::KvWorkloadProfile KvProfileFor(const Workload& workload, uint64_t seed);
flashtier::KvCacheConfig KvConfigFor(const Workload& workload);

// Host-time set-up alone (trace generation plus system construction), in
// seconds, for taking extra set-up samples cheaply.
double MeasureSetup(const Workload& workload, uint64_t seed);

// Writes `spans` in the binary layout documented in README.md.
bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<std::vector<Span>>& spans);

}  // namespace flashbench

#endif  // FLASHBENCH_FLASHBENCH_H_
