#include "flashbench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/core/open_loop.h"
#include "src/core/replay.h"
#include "src/kv/kv_cache.h"
#include "src/trace/workload.h"

namespace flashbench {

using flashtier::CommitPoint;
using flashtier::FlashTierSystem;
using flashtier::IsOk;
using flashtier::KvCache;
using flashtier::KvOp;
using flashtier::KvTraceRecord;
using flashtier::LatencyHistogram;
using flashtier::Lbn;
using flashtier::PersistenceManager;
using flashtier::ReplayEngine;
using flashtier::ReplayMetrics;
using flashtier::SimClock;
using flashtier::Status;
using flashtier::SystemType;
using flashtier::TraceOp;
using flashtier::TraceRecord;
using flashtier::VectorTrace;
using flashtier::WorkloadProfile;

namespace {

using HostClock = std::chrono::steady_clock;

// The paper's benches replay 15% of each trace before measuring.
constexpr double kWarmupFraction = 0.15;
constexpr uint64_t kDeleted = ~uint64_t{0};

double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

uint64_t NsSince(HostClock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(HostClock::now() - t0).count());
}

uint32_t Clamp32(uint64_t v) {
  return v > 0xffffffffull ? 0xffffffffu : static_cast<uint32_t>(v);
}

// Per-workload seed: the profile's own base plus a golden-ratio stride, so
// --seed 0 is not the profile default and neighbouring seeds are unrelated.
uint64_t SeedFor(uint64_t base, uint64_t seed) { return base + seed * 0x9e3779b97f4a7c15ull; }

double PerK(uint64_t count, uint64_t base) {
  return base == 0 ? 0.0 : 1000.0 * static_cast<double>(count) / static_cast<double>(base);
}

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Exact order statistic of host durations (nearest rank).
double Percentile(std::vector<uint32_t> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<size_t>(
      std::min<double>(static_cast<double>(samples.size() - 1),
                       std::ceil(p / 100.0 * static_cast<double>(samples.size())) - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

class SpanRecorder {
 public:
  struct Open {
    uint32_t id = kNoParent;
    uint64_t virt_start = 0;
    HostClock::time_point t0;
  };

  SpanRecorder(std::vector<Span>* spans, const SimClock* clock, HostClock::time_point epoch)
      : spans_(spans), clock_(clock), epoch_(epoch) {}

  Open Begin(SpanKind kind, uint32_t parent) {
    Open open;
    open.t0 = HostClock::now();
    open.virt_start = clock_->now_us();
    open.id = static_cast<uint32_t>(spans_->size());
    Span span;
    span.kind = kind;
    span.parent = parent;
    span.start_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(open.t0 - epoch_).count());
    spans_->push_back(span);
    return open;
  }

  // Closes with the shard-clock delta as the span's virtual time.
  void End(const Open& open) { End(open, clock_->now_us() - open.virt_start, false); }

  void End(const Open& open, uint64_t virt_us, bool hit) {
    Span& span = (*spans_)[open.id];
    span.host_ns = Clamp32(NsSince(open.t0));
    span.virt_us = Clamp32(virt_us);
    span.hit = hit;
  }

 private:
  std::vector<Span>* spans_;
  const SimClock* clock_;
  HostClock::time_point epoch_;
};

// Brackets log flushes and checkpoints through the persistence commit-point
// hook, parenting each to the request span in progress. Removes the hook on
// destruction.
class CommitTracer {
 public:
  CommitTracer(PersistenceManager* persist, SpanRecorder* recorder)
      : persist_(persist), recorder_(recorder) {
    if (persist_ != nullptr) {
      persist_->set_commit_point_hook_for_testing([this](CommitPoint p) { OnCommitPoint(p); });
    }
  }
  ~CommitTracer() {
    if (persist_ != nullptr) {
      persist_->set_commit_point_hook_for_testing(nullptr);
    }
  }
  CommitTracer(const CommitTracer&) = delete;
  CommitTracer& operator=(const CommitTracer&) = delete;

  void set_request(uint32_t id) { request_ = id; }

 private:
  void OnCommitPoint(CommitPoint p) {
    switch (p) {
      case CommitPoint::kFlushStart:
        flush_ = recorder_->Begin(SpanKind::kFlush, request_);
        break;
      case CommitPoint::kFlushDone:
        recorder_->End(flush_);
        break;
      case CommitPoint::kCheckpointStart:
        checkpoint_ = recorder_->Begin(SpanKind::kCheckpoint, request_);
        break;
      case CommitPoint::kCheckpointDone:
        recorder_->End(checkpoint_);
        break;
      default:
        break;
    }
  }

  PersistenceManager* persist_;
  SpanRecorder* recorder_;
  uint32_t request_ = kNoParent;
  SpanRecorder::Open flush_;
  SpanRecorder::Open checkpoint_;
};

// Runs body(i) for every shard i on `threads` workers with the replay
// engines' static assignment (shard i on worker i % threads), rethrowing the
// first worker exception after every worker has joined.
void ForEachShard(uint32_t shards, uint32_t threads, const std::function<void(uint32_t)>& body) {
  threads = std::min(std::max<uint32_t>(1, threads), shards);
  if (threads <= 1) {
    for (uint32_t i = 0; i < shards; ++i) {
      body(i);
    }
    return;
  }
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (uint32_t i = w; i < shards; i += threads) {
          body(i);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

// ---------------------------------------------------------------------------
// Block workloads
// ---------------------------------------------------------------------------

WorkloadProfile ProfileFor(const Workload& w, uint64_t seed) {
  WorkloadProfile p =
      w.trace == "homes" ? flashtier::HomesProfile(w.scale) : flashtier::UsrProfile(w.scale);
  p.seed = SeedFor(p.seed, seed);
  return p;
}

// The paper sizes each cache at 25% of the full trace's unique blocks.
flashtier::SystemConfig ConfigFor(const Workload& w, const WorkloadProfile& profile) {
  flashtier::SystemConfig config;
  config.type = w.system;
  const uint64_t base =
      profile.full_unique_blocks != 0 ? profile.full_unique_blocks : profile.unique_blocks;
  config.cache_pages = std::max<uint64_t>(1024, base / 4);
  config.consistency = flashtier::ConsistencyMode::kFull;
  config.shards = w.shards;
  return config;
}

std::vector<TraceRecord> GenerateBlockTrace(const WorkloadProfile& profile) {
  flashtier::SyntheticWorkload generator(profile);
  std::vector<TraceRecord> records;
  records.reserve(profile.total_ops);
  TraceRecord r;
  while (generator.Next(&r)) {
    records.push_back(r);
  }
  return records;
}

struct ShardRequest {
  TraceRecord record;
  uint64_t seq = 0;
};

struct TracedShard {
  ReplayMetrics metrics;
  std::unordered_map<Lbn, uint64_t> oracle;
  std::unordered_set<Lbn> lost_blocks;
  std::vector<Span> spans;
  uint64_t replay_ns = 0;
};

// The traced driver for one shard: the same calls, tokens, oracle and
// metric accounting as ReplayEngine's per-shard replay, with a span around
// every FlashTierSystem::Read/Write.
void TracedReplayShard(FlashTierSystem* system, uint32_t shard_index,
                       const std::vector<ShardRequest>& queue, uint64_t warmup, uint32_t depth,
                       HostClock::time_point epoch, TracedShard* run) {
  FlashTierSystem::Shard& shard = system->shard(shard_index);
  run->spans.reserve(queue.size() * 2);
  SpanRecorder recorder(&run->spans, &shard.clock, epoch);
  CommitTracer tracer(shard.ssc != nullptr ? shard.ssc->persist() : nullptr, &recorder);
  const bool open_loop = depth > 1;
  flashtier::OpenLoopQueue loop(&shard.clock, depth);
  uint64_t first_submit = ~uint64_t{0};
  uint64_t last_done = 0;
  bool any_measured = false;
  ReplayMetrics& m = run->metrics;
  const auto t0 = HostClock::now();
  for (const ShardRequest& req : queue) {
    const Lbn lbn = req.record.lbn;
    const bool measured = req.seq >= warmup;
    const uint64_t start_us = open_loop ? loop.Begin() : shard.clock.now_us();
    bool hit = false;
    SpanRecorder::Open span;
    if (req.record.op == TraceOp::kWrite) {
      const uint64_t token = (lbn << 20) ^ req.seq;
      span = recorder.Begin(SpanKind::kWrite, kNoParent);
      tracer.set_request(span.id);
      const Status st = system->Write(lbn, token);
      if (!IsOk(st)) {
        ++m.failed_requests;
      } else {
        run->oracle[lbn] = token;
        run->lost_blocks.erase(lbn);
      }
      if (measured) {
        ++m.writes;
      }
    } else {
      const uint64_t hits_before = shard.manager->stats().read_hits;
      uint64_t token = 0;
      span = recorder.Begin(SpanKind::kRead, kNoParent);
      tracer.set_request(span.id);
      const Status st = system->Read(lbn, &token);
      hit = shard.manager->stats().read_hits != hits_before;
      if (!IsOk(st)) {
        ++m.failed_requests;
        ++m.read_errors;
        run->oracle.erase(lbn);
        run->lost_blocks.insert(lbn);
      } else if (run->lost_blocks.count(lbn) == 0) {
        const auto it = run->oracle.find(lbn);
        const uint64_t expected =
            it != run->oracle.end() ? it->second : flashtier::DiskModel::OriginalToken(lbn);
        if (token != expected) {
          ++m.stale_reads;
        }
      }
      if (measured) {
        ++m.reads;
      }
    }
    tracer.set_request(kNoParent);
    const uint64_t latency_us =
        open_loop ? loop.End(start_us) : shard.clock.now_us() - start_us;
    recorder.End(span, latency_us, hit);
    if (!measured) {
      ++m.warmup_requests;
      continue;
    }
    ++m.requests;
    m.response_us.Add(latency_us);
    if (open_loop) {
      any_measured = true;
      first_submit = std::min(first_submit, start_us);
      last_done = std::max(last_done, start_us + latency_us);
    } else {
      m.elapsed_us += latency_us;
    }
  }
  if (open_loop) {
    loop.Drain();
    m.elapsed_us = any_measured ? last_done - first_submit : 0;
  }
  run->replay_ns = NsSince(t0);
}

struct BlockReplay {
  ReplayMetrics metrics;
  std::unordered_map<Lbn, uint64_t> oracle;
  std::vector<std::vector<Span>> spans;  // per shard (traced only)
  double replay_s = 0.0;
  double shard_replay_s = 0.0;  // traced: summed per-shard replay time
};

BlockReplay TracedBlockReplay(FlashTierSystem* system, const std::vector<TraceRecord>& trace,
                              uint32_t depth, uint32_t threads) {
  const auto t0 = HostClock::now();
  const uint32_t shards = system->shard_count();
  const auto warmup =
      static_cast<uint64_t>(static_cast<double>(trace.size()) * kWarmupFraction);
  std::vector<std::vector<ShardRequest>> queues(shards);
  for (uint64_t seq = 0; seq < trace.size(); ++seq) {
    queues[system->ShardOf(trace[seq].lbn)].push_back(ShardRequest{trace[seq], seq});
  }
  std::vector<TracedShard> runs(shards);
  ForEachShard(shards, threads, [&](uint32_t i) {
    TracedReplayShard(system, i, queues[i], warmup, depth, t0, &runs[i]);
  });
  BlockReplay out;
  for (TracedShard& run : runs) {
    const ReplayMetrics& m = run.metrics;
    out.metrics.requests += m.requests;
    out.metrics.reads += m.reads;
    out.metrics.writes += m.writes;
    out.metrics.warmup_requests += m.warmup_requests;
    out.metrics.stale_reads += m.stale_reads;
    out.metrics.failed_requests += m.failed_requests;
    out.metrics.read_errors += m.read_errors;
    out.metrics.elapsed_us = std::max(out.metrics.elapsed_us, m.elapsed_us);
    out.metrics.response_us.Merge(m.response_us);
    out.oracle.insert(run.oracle.begin(), run.oracle.end());
    out.spans.push_back(std::move(run.spans));
    out.shard_replay_s += static_cast<double>(run.replay_ns) / 1e9;
  }
  out.replay_s = SecondsSince(t0);
  return out;
}

BlockReplay EngineBlockReplay(FlashTierSystem* system, const std::vector<TraceRecord>& trace,
                              uint32_t depth, uint32_t threads) {
  VectorTrace source(trace);
  ReplayEngine::Options options;
  options.warmup_fraction = kWarmupFraction;
  options.verify = true;
  options.threads = threads;
  options.queue_depth = depth;
  ReplayEngine engine(system, options);
  BlockReplay out;
  out.metrics = engine.Run(source);
  out.oracle = engine.ExportVerificationState().oracle;
  out.replay_s = static_cast<double>(out.metrics.wall_clock_us) / 1e6;
  out.shard_replay_s = out.replay_s;
  return out;
}

// Virtual response-time percentiles of the request spans that match.
LatencyHistogram SpanHistogram(const std::vector<std::vector<Span>>& spans, SpanKind kind,
                               int hit) {
  LatencyHistogram h;
  for (const std::vector<Span>& shard : spans) {
    for (const Span& s : shard) {
      if (s.kind == kind && (hit < 0 || s.hit == (hit == 1))) {
        h.Add(s.virt_us);
      }
    }
  }
  return h;
}

std::vector<uint32_t> HostSamples(const std::vector<std::vector<Span>>& spans, SpanKind kind) {
  std::vector<uint32_t> out;
  for (const std::vector<Span>& shard : spans) {
    for (const Span& s : shard) {
      if (s.kind == kind) {
        out.push_back(s.host_ns);
      }
    }
  }
  return out;
}

double HostShare(const std::vector<std::vector<Span>>& spans, SpanKind kind, double total_s) {
  double ns = 0.0;
  for (const std::vector<Span>& shard : spans) {
    for (const Span& s : shard) {
      if (s.kind == kind) {
        ns += s.host_ns;
      }
    }
  }
  return total_s <= 0.0 ? 0.0 : 100.0 * ns / (total_s * 1e9);
}

void AddHostLayerMetrics(const std::vector<std::vector<Span>>& spans, double replay_s,
                         Values* host) {
  const auto add = [host](const char* name, double v) { host->push_back({name, v}); };
  const std::vector<uint32_t> reads = HostSamples(spans, SpanKind::kRead);
  const std::vector<uint32_t> writes = HostSamples(spans, SpanKind::kWrite);
  const std::vector<uint32_t> gets = HostSamples(spans, SpanKind::kGet);
  const std::vector<uint32_t> sets = HostSamples(spans, SpanKind::kSet);
  add("cache.read_host_ns_p50", Percentile(reads, 50));
  add("cache.read_host_ns_p99", Percentile(reads, 99));
  add("cache.write_host_ns_p50", Percentile(writes, 50));
  add("cache.write_host_ns_p99", Percentile(writes, 99));
  add("kv.get_host_ns_p50", Percentile(gets, 50));
  add("kv.get_host_ns_p99", Percentile(gets, 99));
  add("kv.set_host_ns_p50", Percentile(sets, 50));
  add("kv.set_host_ns_p99", Percentile(sets, 99));
  add("persist.checkpoint_host_share_pct", HostShare(spans, SpanKind::kCheckpoint, replay_s));
  add("persist.flush_host_share_pct", HostShare(spans, SpanKind::kFlush, replay_s));
}

// Per-layer virtual metrics only the traced driver can split out.
void AddVirtualLayerMetrics(const std::vector<std::vector<Span>>& spans, Values* layer) {
  layer->push_back({"cache.read_hit_virt_us_p50",
                    SpanHistogram(spans, SpanKind::kRead, 1).PercentileUs(50)});
  layer->push_back({"cache.read_miss_virt_us_p50",
                    SpanHistogram(spans, SpanKind::kRead, 0).PercentileUs(50)});
  const LatencyHistogram writes = SpanHistogram(spans, SpanKind::kWrite, -1);
  layer->push_back({"cache.write_virt_us_p50", writes.PercentileUs(50)});
  layer->push_back({"cache.write_virt_us_p99", writes.PercentileUs(99)});
}

// Virtual metrics common to both drivers' outputs.
struct Counters {
  uint64_t replayed = 0;  // measured + warmup requests
  uint64_t cache_pages = 0;
  uint64_t virt_total_us = 0;  // summed shard clocks at the end of replay
  flashtier::ManagerStats manager;
  flashtier::FtlStats ftl;
  flashtier::FlashStats flash;
  flashtier::PersistStats persist;
  flashtier::DiskStats disk;
  flashtier::KvStats kv;
  bool ssc = false;  // ftl counters come from an SSC, else from the SSD
  uint64_t map_entries = 0;
  double host_mem_bytes = 0.0;
  double device_mem_bytes = 0.0;
};

void AddCounterMetrics(const Counters& c, Values* v) {
  const auto add = [v](const char* name, double x) { v->push_back({name, x}); };
  const uint64_t n = c.replayed;
  const uint64_t programs = c.flash.page_writes + c.flash.gc_copies + c.persist.log_page_writes;
  add("flash_writes_per_req", Ratio(programs, n));
  add("device_mem_bytes_per_block", c.device_mem_bytes / static_cast<double>(c.cache_pages));

  add("cache.writebacks_per_kreq", PerK(c.manager.writebacks, n));
  add("cache.metadata_writes_per_kreq", PerK(c.manager.metadata_writes, n));
  add("cache.evicts_per_kreq", PerK(c.manager.evicts, n));
  add("cache.host_mem_bytes_per_block", c.host_mem_bytes / static_cast<double>(c.cache_pages));

  const flashtier::FtlStats none;
  const flashtier::FtlStats& ssc = c.ssc ? c.ftl : none;
  const flashtier::FtlStats& ssd = c.ssc ? none : c.ftl;
  add("ssc.gc_invocations_per_kreq", PerK(ssc.gc_invocations, n));
  add("ssc.silently_evicted_pages_per_kreq", PerK(ssc.silently_evicted_pages, n));
  add("ssc.switch_merges_per_kreq", PerK(ssc.switch_merges, n));
  add("ssc.full_merges_per_kreq", PerK(ssc.full_merges, n));
  add("ssc.map_entries", static_cast<double>(c.map_entries));
  add("ssd.full_merges_per_kreq", PerK(ssd.full_merges, n));
  add("ssd.partial_merges_per_kreq", PerK(ssd.partial_merges, n));
  add("ssd.switch_merges_per_kreq", PerK(ssd.switch_merges, n));
  add("ssd.gc_invocations_per_kreq", PerK(ssd.gc_invocations, n));

  const flashtier::PersistStats& p = c.persist;
  add("persist.sync_commits_per_kreq", PerK(p.sync_commits, n));
  add("persist.group_commits_per_kreq", PerK(p.group_commits, n));
  add("persist.records_per_log_page",
      Ratio(p.records_logged, p.log_page_writes - p.checkpoint_page_writes));
  add("persist.checkpoints_per_kreq", PerK(p.checkpoints, n));
  add("persist.checkpoint_pages_per_kreq", PerK(p.checkpoint_page_writes, n));

  add("flash.page_reads_per_kreq", PerK(c.flash.page_reads, n));
  add("flash.page_writes_per_kreq", PerK(c.flash.page_writes, n));
  add("flash.erases_per_kreq", PerK(c.flash.erases, n));
  add("flash.gc_copies_per_kreq", PerK(c.flash.gc_copies, n));
  add("flash.busy_pct", Pct(c.flash.busy_us, c.virt_total_us));

  add("disk.reads_per_kreq", PerK(c.disk.reads, n));
  add("disk.writes_per_kreq", PerK(c.disk.writes, n));
  add("disk.busy_pct", Pct(c.disk.busy_us, c.virt_total_us));

  add("kv.hit_pct", Pct(c.kv.hits, c.kv.gets));
  add("kv.open_slab_hit_pct", Pct(c.kv.open_slab_hits, c.kv.hits));
  add("kv.slab_page_writes_per_kset", PerK(c.kv.slab_page_writes, c.kv.sets));
  add("kv.compactions_per_kreq", PerK(c.kv.compactions, n));
  add("kv.compaction_reclaim_ratio",
      Ratio(c.kv.slots_reclaimed, c.kv.slots_moved + c.kv.slots_reclaimed));
}

void AddResponseMetrics(const LatencyHistogram& response, uint64_t requests, uint64_t elapsed_us,
                        Values* v) {
  v->push_back({"virt_iops", elapsed_us == 0 ? 0.0
                                             : static_cast<double>(requests) * 1e6 /
                                                   static_cast<double>(elapsed_us)});
  v->push_back({"virt_p50_us", response.PercentileUs(50)});
  v->push_back({"virt_p99_us", response.PercentileUs(99)});
  v->push_back({"virt_p999_us", response.PercentileUs(99.9)});
  v->push_back({"virt_mean_us", response.mean()});
  v->push_back({"measured_requests", static_cast<double>(requests)});
}

// Recovery time depends on how much log a crash leaves behind, that is on
// where in the checkpoint cycle it lands. So recovery is probed kProbes
// times: each probe replays kProbeRequests more requests (cycling through
// the trace) and then crashes and recovers.
constexpr uint32_t kProbes = 16;
constexpr uint64_t kProbeRequests = 1999;

struct RecoveryProbe {
  std::vector<uint64_t> recovery_us;  // per probe
  double worst_ms = 0.0;
  double log_records = 0.0;  // means per probe, summed over shards
  double checkpoint_entries = 0.0;
};

RecoveryProbe ProbeRecovery(const std::function<void(uint64_t)>& issue,
                            const std::function<void()>& crash_and_recover,
                            const std::function<flashtier::PersistStats()>& persist_stats) {
  RecoveryProbe out;
  uint64_t next = 0;
  for (uint32_t k = 0; k < kProbes; ++k) {
    for (uint64_t j = 0; j < kProbeRequests; ++j) {
      issue(next++);
    }
    crash_and_recover();
    // The recovery fields describe the most recent recovery (the time is
    // the slowest shard's, the counts are summed over shards).
    const flashtier::PersistStats after = persist_stats();
    out.recovery_us.push_back(after.last_recovery_us);
    out.worst_ms = std::max(out.worst_ms, static_cast<double>(after.last_recovery_us) / 1000.0);
    out.log_records += static_cast<double>(after.replayed_log_records) / kProbes;
    out.checkpoint_entries += static_cast<double>(after.recovered_checkpoint_entries) / kProbes;
  }
  return out;
}

void AddRecoveryMetrics(RecoveryProbe recovery, RepResult* result) {
  result->virt.push_back({"persist.recovery_virt_ms_max", recovery.worst_ms});
  result->virt.push_back({"persist.recovery_log_records", recovery.log_records});
  result->virt.push_back({"persist.recovery_checkpoint_entries", recovery.checkpoint_entries});
  result->recovery_us = std::move(recovery.recovery_us);
}

RepResult RunBlockRep(const Workload& w, const RepOptions& o) {
  RepResult result;
  const auto t0 = HostClock::now();
  const WorkloadProfile profile = ProfileFor(w, o.seed);
  const std::vector<TraceRecord> trace = GenerateBlockTrace(profile);
  const double gen_s = SecondsSince(t0);
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const TraceRecord& r : trace) {
    digest = Fnv1a(digest, (r.lbn << 1) | static_cast<uint64_t>(r.op));
  }
  result.trace_digest = digest;
  const uint64_t ops = trace.size();

  const auto t1 = HostClock::now();
  const flashtier::SystemConfig config = ConfigFor(w, profile);
  FlashTierSystem system(config);
  const double build_s = SecondsSince(t1);

  const uint32_t threads = o.threads != 0 ? o.threads : w.threads;
  BlockReplay replay = o.traced ? TracedBlockReplay(&system, trace, w.depth, threads)
                                : EngineBlockReplay(&system, trace, w.depth, threads);
  const ReplayMetrics& m = replay.metrics;

  Counters c;
  c.replayed = m.requests + m.warmup_requests;
  c.cache_pages = config.cache_pages;
  c.manager = system.AggregateManagerStats();
  c.ftl = system.AggregateFtlStats();
  c.flash = system.AggregateFlashStats();
  c.persist = system.AggregatePersistStats();
  c.disk = system.AggregateDiskStats();
  c.ssc = flashtier::SystemUsesSsc(config.type);
  for (uint32_t i = 0; i < system.shard_count(); ++i) {
    const FlashTierSystem::Shard& shard = system.shard(i);
    c.virt_total_us += shard.clock.now_us();
    if (shard.ssc != nullptr) {
      c.map_entries += shard.ssc->page_map_entries() + shard.ssc->data_block_entries();
    }
  }
  c.host_mem_bytes = static_cast<double>(system.HostMemoryUsage());
  c.device_mem_bytes = static_cast<double>(system.DeviceMemoryUsage());

  AddResponseMetrics(m.response_us, m.requests, m.elapsed_us, &result.virt);
  result.virt.push_back({"read_miss_pct", c.manager.MissRatePercent()});
  AddCounterMetrics(c, &result.virt);

  result.attempted = c.replayed;
  result.failed = m.failed_requests;
  result.stale_reads = m.stale_reads;
  result.lost = c.manager.lost_dirty;

  // Crash and recover. FlashTier: power-fail every shard's SSC, recover it,
  // then rebuild the write-back dirty table (the exists scan, which overlaps
  // normal activity and is not part of the Fig. 5 start-up time). Native:
  // Fig. 5's FlashCache table reload from the SSD's metadata region.
  std::vector<Span> crash_spans;
  RecoveryProbe recovery;
  if (c.ssc) {
    const auto issue = [&](uint64_t i) {
      const TraceRecord& r = trace[i % trace.size()];
      ++result.attempted;
      if (r.op == TraceOp::kWrite) {
        const uint64_t token = (r.lbn << 20) ^ (trace.size() + i);
        if (IsOk(system.Write(r.lbn, token))) {
          replay.oracle[r.lbn] = token;
        } else {
          ++result.failed;
        }
        return;
      }
      const auto it = replay.oracle.find(r.lbn);
      const uint64_t expected =
          it != replay.oracle.end() ? it->second : flashtier::DiskModel::OriginalToken(r.lbn);
      uint64_t got = 0;
      if (!IsOk(system.Read(r.lbn, &got)) || got != expected) {
        ++result.recovery_mismatches;
      }
    };
    const auto crash_and_recover = [&] {
      for (uint32_t i = 0; i < system.shard_count(); ++i) {
        FlashTierSystem::Shard& shard = system.shard(i);
        SpanRecorder recorder(&crash_spans, &shard.clock, t0);
        const SpanRecorder::Open crash = recorder.Begin(SpanKind::kCrash, kNoParent);
        shard.ssc->SimulateCrash();
        recorder.End(crash);
      }
      for (uint32_t i = 0; i < system.shard_count(); ++i) {
        FlashTierSystem::Shard& shard = system.shard(i);
        SpanRecorder recorder(&crash_spans, &shard.clock, t0);
        const SpanRecorder::Open recover = recorder.Begin(SpanKind::kRecover, kNoParent);
        result.recovered = result.recovered && IsOk(shard.ssc->Recover());
        if (shard.wb_manager != nullptr) {
          (void)shard.wb_manager->RecoverDirtyTable();  // time is on the virtual clock
        }
        recorder.End(recover);
      }
    };
    recovery = ProbeRecovery(issue, crash_and_recover,
                             [&system] { return system.AggregatePersistStats(); });
    // Durability: after the last recovery every block reads back its newest
    // data — dirty blocks from the cache, clean ones from the cache or disk.
    for (const auto& [lbn, token] : replay.oracle) {
      uint64_t got = 0;
      if (!IsOk(system.Read(lbn, &got)) || got != token) {
        ++result.recovery_mismatches;
      }
    }
  } else {
    uint64_t native_us = 0;
    for (uint32_t i = 0; i < system.shard_count(); ++i) {
      FlashTierSystem::Shard& shard = system.shard(i);
      SpanRecorder recorder(&crash_spans, &shard.clock, t0);
      const SpanRecorder::Open span = recorder.Begin(SpanKind::kRecover, kNoParent);
      native_us = std::max(native_us, shard.native_manager->RecoveryEstimateUs());
      recorder.End(span);
    }
    recovery.recovery_us.push_back(native_us);
  }
  AddRecoveryMetrics(std::move(recovery), &result);

  result.host.push_back({"setup_s", gen_s + build_s});
  result.host.push_back({"trace.gen_ns_per_req", gen_s * 1e9 / static_cast<double>(ops)});
  result.host.push_back({"replay_ops_per_s", static_cast<double>(c.replayed) / replay.replay_s});
  if (o.traced) {
    AddHostLayerMetrics(replay.spans, replay.shard_replay_s, &result.host);
    AddVirtualLayerMetrics(replay.spans, &result.layer_virt);
    result.spans = std::move(replay.spans);
    result.spans.push_back(std::move(crash_spans));
  }
  return result;
}

// ---------------------------------------------------------------------------
// KV workload
// ---------------------------------------------------------------------------

std::vector<KvTraceRecord> GenerateKvTrace(const flashtier::KvWorkloadProfile& profile) {
  flashtier::KvZipfWorkload generator(profile);
  std::vector<KvTraceRecord> records;
  records.reserve(profile.total_ops);
  KvTraceRecord r;
  while (generator.Next(&r)) {
    records.push_back(r);
  }
  return records;
}

// KvReplayEngine's value token for the seq-th record's Set.
uint64_t KvSetToken(uint64_t key, uint64_t seq) {
  return flashtier::MixHash64(key ^ (seq * 0x9e3779b97f4a7c15ull) ^ 0x6b76746f6bull);
}

struct KvReplay {
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t stale = 0;
  uint64_t elapsed_us = 0;
  LatencyHistogram response_us;
  std::unordered_map<uint64_t, uint64_t> shadow;  // key -> newest token or kDeleted
  std::vector<std::vector<Span>> spans;
  double replay_s = 0.0;
};

// Drives the KvCache with KvReplayEngine's accounting (shards in order, the
// same open-loop bracketing at depth > 1, a Flush of the open slabs at the
// end) while checking every Get hit against a shadow of the newest Set.
// Look-aside Sets are clean: the backing store already holds the value, so
// the shadow takes the new token whether or not the cache admitted it.
KvReplay DriveKv(KvCache* cache, const std::vector<KvTraceRecord>& trace, uint32_t depth,
                 bool traced) {
  KvReplay out;
  const auto t0 = HostClock::now();
  const uint32_t shards = cache->shard_count();
  std::vector<std::vector<uint64_t>> queues(shards);
  for (uint64_t seq = 0; seq < trace.size(); ++seq) {
    queues[cache->ShardOf(trace[seq].key)].push_back(seq);
  }
  out.spans.resize(traced ? shards : 0);
  for (uint32_t i = 0; i < shards; ++i) {
    flashtier::KvShard& shard = cache->shard(i);
    SimClock& clock = shard.clock();
    std::vector<Span> scratch;
    std::vector<Span>& spans = traced ? out.spans[i] : scratch;
    spans.reserve(traced ? queues[i].size() * 2 : 0);
    SpanRecorder recorder(&spans, &clock, t0);
    CommitTracer tracer(traced ? shard.ssc().persist() : nullptr, &recorder);
    const bool open_loop = depth > 1;
    flashtier::OpenLoopQueue loop(&clock, depth);
    const uint64_t epoch = clock.now_us();
    uint64_t first_submit = ~uint64_t{0};
    uint64_t last_done = 0;
    for (const uint64_t seq : queues[i]) {
      const KvTraceRecord& r = trace[seq];
      const uint64_t start_us = open_loop ? loop.Begin() : clock.now_us();
      SpanRecorder::Open span;
      bool hit = false;
      Status st = Status::kOk;
      switch (r.op) {
        case KvOp::kGet: {
          uint64_t token = 0;
          if (traced) {
            span = recorder.Begin(SpanKind::kGet, kNoParent);
            tracer.set_request(span.id);
          }
          st = cache->Get(r.key, &token);
          hit = IsOk(st);
          const auto it = out.shadow.find(r.key);
          if (hit && (it == out.shadow.end() || it->second != token)) {
            ++out.stale;
          }
          break;
        }
        case KvOp::kSet: {
          const uint64_t token = KvSetToken(r.key, seq);
          if (traced) {
            span = recorder.Begin(SpanKind::kSet, kNoParent);
            tracer.set_request(span.id);
          }
          st = cache->Set(r.key, token, r.size, /*dirty=*/false);
          out.shadow[r.key] = token;
          break;
        }
        case KvOp::kDelete:
          if (traced) {
            span = recorder.Begin(SpanKind::kDelete, kNoParent);
            tracer.set_request(span.id);
          }
          st = cache->Delete(r.key);
          out.shadow[r.key] = kDeleted;
          break;
      }
      const uint64_t latency_us = open_loop ? loop.End(start_us) : clock.now_us() - start_us;
      if (traced) {
        tracer.set_request(kNoParent);
        recorder.End(span, latency_us, hit);
      }
      if (!IsOk(st) && st != Status::kNotPresent) {
        ++out.failed;
      }
      ++out.requests;
      out.response_us.Add(latency_us);
      first_submit = std::min(first_submit, start_us);
      last_done = std::max(last_done, start_us + latency_us);
    }
    uint64_t elapsed = clock.now_us() - epoch;
    if (open_loop) {
      loop.Drain();
      elapsed = last_done >= first_submit ? last_done - first_submit : 0;
    }
    out.elapsed_us = std::max(out.elapsed_us, elapsed);
  }
  const Status flushed = cache->Flush();
  if (!IsOk(flushed) && flushed != Status::kNotPresent) {
    ++out.failed;
  }
  out.replay_s = SecondsSince(t0);
  return out;
}

// A Get of `key` may miss; a hit must return the shadow's newest token.
bool KvReadBack(KvCache* cache, const std::unordered_map<uint64_t, uint64_t>& shadow,
                uint64_t key) {
  uint64_t got = 0;
  const Status st = cache->Get(key, &got);
  if (st == Status::kNotPresent) {
    return true;
  }
  const auto it = shadow.find(key);
  return IsOk(st) && it != shadow.end() && it->second != kDeleted && it->second == got;
}

RepResult RunKvRep(const Workload& w, const RepOptions& o) {
  RepResult result;
  const auto t0 = HostClock::now();
  const flashtier::KvWorkloadProfile profile = KvProfileFor(w, o.seed);
  const std::vector<KvTraceRecord> trace = GenerateKvTrace(profile);
  const double gen_s = SecondsSince(t0);
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const KvTraceRecord& r : trace) {
    digest = Fnv1a(Fnv1a(digest, r.key), (static_cast<uint64_t>(r.size) << 2) |
                                             static_cast<uint64_t>(r.op));
  }
  result.trace_digest = digest;

  const auto t1 = HostClock::now();
  const flashtier::KvCacheConfig config = KvConfigFor(w);
  KvCache cache(config);
  const double build_s = SecondsSince(t1);

  KvReplay replay = DriveKv(&cache, trace, w.depth, o.traced);

  Counters c;
  c.replayed = replay.requests;
  c.cache_pages = config.ssc.capacity_pages;
  c.kv = cache.AggregateStats();
  c.flash = cache.AggregateFlashStats();
  c.persist = cache.AggregatePersistStats();
  c.ssc = true;
  double host_mem = 0.0;
  double device_mem = 0.0;
  for (uint32_t i = 0; i < cache.shard_count(); ++i) {
    const flashtier::KvShard& shard = cache.shard(i);
    c.ftl.Merge(shard.ssc().ftl_stats());
    c.virt_total_us += shard.clock().now_us();
    c.map_entries += shard.ssc().page_map_entries() + shard.ssc().data_block_entries();
    host_mem += static_cast<double>(shard.key_map().MemoryUsage());
    device_mem += static_cast<double>(shard.ssc().DeviceMemoryUsage());
  }
  c.host_mem_bytes = host_mem;
  c.device_mem_bytes = device_mem;

  AddResponseMetrics(replay.response_us, replay.requests, replay.elapsed_us, &result.virt);
  result.virt.push_back({"read_miss_pct", Pct(c.kv.misses, c.kv.gets)});
  AddCounterMetrics(c, &result.virt);

  result.attempted = replay.requests;
  result.failed = replay.failed;
  result.stale_reads = replay.stale;
  result.lost = c.kv.lost_objects;

  std::vector<Span> crash_spans;
  const auto issue = [&](uint64_t i) {
    const KvTraceRecord& r = trace[i % trace.size()];
    ++result.attempted;
    Status st = Status::kOk;
    if (r.op == KvOp::kSet) {
      const uint64_t token = KvSetToken(r.key, trace.size() + i);
      st = cache.Set(r.key, token, r.size, /*dirty=*/false);
      replay.shadow[r.key] = token;
    } else if (r.op == KvOp::kDelete) {
      st = cache.Delete(r.key);
      replay.shadow[r.key] = kDeleted;
    } else if (!KvReadBack(&cache, replay.shadow, r.key)) {
      ++result.recovery_mismatches;
    }
    if (!IsOk(st) && st != Status::kNotPresent) {
      ++result.failed;
    }
  };
  const auto crash_and_recover = [&] {
    SpanRecorder recorder(&crash_spans, &cache.shard(0).clock(), t0);
    const SpanRecorder::Open crash = recorder.Begin(SpanKind::kCrash, kNoParent);
    cache.SimulateCrash();
    recorder.End(crash);
    const SpanRecorder::Open recover = recorder.Begin(SpanKind::kRecover, kNoParent);
    result.recovered = result.recovered && IsOk(cache.Recover());
    recorder.End(recover);
  };
  RecoveryProbe recovery = ProbeRecovery(
      issue, crash_and_recover, [&cache] { return cache.AggregatePersistStats(); });
  AddRecoveryMetrics(std::move(recovery), &result);

  // Durability: after the last recovery a cached object is its newest value
  // (G1/G2) and a deleted one stays deleted (G3).
  for (const auto& entry : replay.shadow) {
    if (!KvReadBack(&cache, replay.shadow, entry.first)) {
      ++result.recovery_mismatches;
    }
  }

  result.host.push_back({"setup_s", gen_s + build_s});
  result.host.push_back(
      {"trace.gen_ns_per_req", gen_s * 1e9 / static_cast<double>(trace.size())});
  result.host.push_back(
      {"replay_ops_per_s", static_cast<double>(replay.requests) / replay.replay_s});
  if (o.traced) {
    AddHostLayerMetrics(replay.spans, replay.replay_s, &result.host);
    AddVirtualLayerMetrics(replay.spans, &result.layer_virt);
    result.spans = std::move(replay.spans);
    result.spans.push_back(std::move(crash_spans));
  }
  return result;
}

}  // namespace

flashtier::KvWorkloadProfile KvProfileFor(const Workload& w, uint64_t seed) {
  flashtier::KvWorkloadProfile p;
  p.unique_keys = w.kv_keys;
  p.total_ops = w.kv_ops;
  p.seed = SeedFor(p.seed, seed);
  return p;
}

flashtier::KvCacheConfig KvConfigFor(const Workload& w) {
  flashtier::KvCacheConfig config;
  config.ssc.capacity_pages = w.kv_cache_pages;
  return config;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> out;
    Workload homes_wb;
    homes_wb.name = "homes-wb";
    homes_wb.why = "write-heavy homes on SSC-R write-back: sync commits, checkpoints, "
                   "SE-Merge GC and dirty cleaning run hot";
    homes_wb.trace = "homes";
    homes_wb.scale = 0.10;
    homes_wb.system = SystemType::kSscRWriteBack;
    out.push_back(homes_wb);

    Workload usr;
    usr.name = "usr-wt-qd32";
    usr.why = "read-heavy usr on 8-shard SSC write-through at depth 32: read-miss path, "
              "sparse-map lookups, plane/channel contention";
    usr.trace = "usr";
    usr.scale = 0.012;
    usr.system = SystemType::kSscWriteThrough;
    usr.shards = 8;
    usr.depth = 32;
    usr.threads = 2;
    out.push_back(usr);

    Workload native = homes_wb;
    native.name = "homes-native";
    native.why = "homes on the native FlashCache manager over the hybrid-FTL SSD: the "
                 "paper's baseline, where no SSC code runs";
    native.system = SystemType::kNativeWriteBack;
    out.push_back(native);

    Workload kv;
    kv.name = "kv-zipf";
    kv.why = "tiny-object KvCache Get/Set/Delete under Zipf keys at depth 4: slab "
             "packing, compaction and the key map";
    kv.kv = true;
    kv.kv_keys = 100'000;
    kv.kv_ops = 1'000'000;
    kv.kv_cache_pages = 5'000;
    kv.depth = 4;
    out.push_back(kv);
    return out;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

double Get(const Values& values, const std::string& name) {
  for (const NamedValue& v : values) {
    if (v.name == name) {
      return v.value;
    }
  }
  return std::nan("");
}

RepResult RunRep(const Workload& workload, const RepOptions& options) {
  return workload.kv ? RunKvRep(workload, options) : RunBlockRep(workload, options);
}

double MeasureSetup(const Workload& workload, uint64_t seed) {
  const auto t0 = HostClock::now();
  if (workload.kv) {
    const std::vector<KvTraceRecord> trace = GenerateKvTrace(KvProfileFor(workload, seed));
    const KvCache cache(KvConfigFor(workload));
  } else {
    const WorkloadProfile profile = ProfileFor(workload, seed);
    const std::vector<TraceRecord> trace = GenerateBlockTrace(profile);
    const FlashTierSystem system(ConfigFor(workload, profile));
  }
  return SecondsSince(t0);
}

bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<std::vector<Span>>& spans) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  // Header: magic, workload name, buffer count; then per buffer a count and
  // packed records (see README.md).
  bool ok = std::fputs("FBSPANS1\n", f) >= 0 && std::fprintf(f, "%s\n", workload.c_str()) > 0;
  const auto buffers = static_cast<uint32_t>(spans.size());
  ok = ok && std::fwrite(&buffers, sizeof(buffers), 1, f) == 1;
  constexpr size_t kRecordBytes = 22;
  std::vector<uint8_t> packed;
  for (const std::vector<Span>& buffer : spans) {
    const uint64_t count = buffer.size();
    ok = ok && std::fwrite(&count, sizeof(count), 1, f) == 1;
    packed.resize(buffer.size() * kRecordBytes);
    uint8_t* out = packed.data();
    for (const Span& s : buffer) {
      std::memcpy(out, &s.start_ns, 8);
      std::memcpy(out + 8, &s.host_ns, 4);
      std::memcpy(out + 12, &s.virt_us, 4);
      std::memcpy(out + 16, &s.parent, 4);
      out[20] = static_cast<uint8_t>(s.kind);
      out[21] = s.hit ? 1 : 0;
      out += kRecordBytes;
    }
    ok = ok && std::fwrite(packed.data(), 1, packed.size(), f) == packed.size();
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace flashbench
