// FlashBench determinism self-tests. Each runs full-size reps of the real
// workloads, so the suite takes about a minute:
//
//   python3 perfbench/run.py --selftest      (or ctest in the build tree)
//
//   * the same seed twice gives bit-identical virtual metrics and counters;
//   * usr-wt-qd32 at 1 and 2 replay threads gives identical virtual metrics,
//     through the library's engine and through the traced driver;
//   * traced and untraced reps give identical virtual metrics, so the traced
//     block driver reproduces ReplayEngine and the commit-point hook leaves
//     the simulation untouched;
//   * the kv driver reproduces KvReplayEngine;
//   * a different seed changes the trace;
//   * every rep passes its correctness checks and the traced spans nest.

#include <cstdio>
#include <string>

#include "flashbench.h"
#include "src/kv/kv_replay.h"

namespace flashbench {
namespace {

int g_failures = 0;

#define CHECK(cond)                                                               \
  do {                                                                            \
    if (!(cond)) {                                                                \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                               \
    }                                                                             \
  } while (0)

// Reports the first differing virtual metric, if any.
bool SameValues(const Values& a, const Values& b) {
  if (a.size() != b.size()) {
    std::fprintf(stderr, "  value lists differ in length: %zu vs %zu\n", a.size(), b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      std::fprintf(stderr, "  %s: %.17g vs %s: %.17g\n", a[i].name.c_str(), a[i].value,
                   b[i].name.c_str(), b[i].value);
      return false;
    }
  }
  return true;
}

RepResult Rep(const std::string& name, uint64_t seed, bool traced, uint32_t threads = 0) {
  RepOptions options;
  options.seed = seed;
  options.traced = traced;
  options.threads = threads;
  RepResult r = RunRep(*FindWorkload(name), options);
  CHECK(r.Correct());
  CHECK(r.failed == 0);
  return r;
}

// Flush and checkpoint spans point at an earlier request span of their shard.
bool SpansNest(const RepResult& r) {
  bool any_request = false;
  for (const std::vector<Span>& shard : r.spans) {
    for (size_t i = 0; i < shard.size(); ++i) {
      const Span& s = shard[i];
      any_request = any_request || s.kind == SpanKind::kRead || s.kind == SpanKind::kWrite ||
                    s.kind == SpanKind::kGet;
      if (s.parent == kNoParent) {
        continue;
      }
      const SpanKind pk = shard[s.parent].kind;
      if (s.parent >= i || (s.kind != SpanKind::kFlush && s.kind != SpanKind::kCheckpoint) ||
          pk == SpanKind::kFlush || pk == SpanKind::kCheckpoint) {
        return false;
      }
    }
  }
  return any_request;
}

void TestWorkload(const std::string& name) {
  std::printf("[ RUN  ] %s\n", name.c_str());
  const RepResult a = Rep(name, 7, false);
  const RepResult again = Rep(name, 7, false);
  const RepResult traced = Rep(name, 7, true);
  const RepResult other = Rep(name, 8, false);
  CHECK(SameValues(a.virt, again.virt));
  CHECK(a.trace_digest == again.trace_digest);
  CHECK(SameValues(a.virt, traced.virt));
  CHECK(!traced.layer_virt.empty());
  CHECK(SpansNest(traced));
  CHECK(a.trace_digest != other.trace_digest);
  CHECK(Get(a.virt, "virt_iops") != Get(other.virt, "virt_iops"));
}

void TestThreadIndependence() {
  std::printf("[ RUN  ] usr-wt-qd32 threads\n");
  const RepResult one = Rep("usr-wt-qd32", 3, false, 1);
  const RepResult two = Rep("usr-wt-qd32", 3, false, 2);
  const RepResult traced_one = Rep("usr-wt-qd32", 3, true, 1);
  const RepResult traced_two = Rep("usr-wt-qd32", 3, true, 2);
  CHECK(SameValues(one.virt, two.virt));
  CHECK(SameValues(one.virt, traced_two.virt));
  CHECK(SameValues(traced_one.virt, traced_two.virt));
  CHECK(SameValues(traced_one.layer_virt, traced_two.layer_virt));
}

void TestKvMatchesEngine() {
  std::printf("[ RUN  ] kv-zipf vs KvReplayEngine\n");
  const Workload& w = *FindWorkload("kv-zipf");
  const RepResult ours = Rep(w.name, 5, false);
  flashtier::KvCache cache(KvConfigFor(w));
  flashtier::KvZipfWorkload trace(KvProfileFor(w, 5));
  flashtier::KvReplayEngine::Options options;
  options.queue_depth = w.depth;
  flashtier::KvReplayEngine engine(&cache, options);
  const flashtier::KvReplayMetrics m = engine.Run(trace);
  CHECK(Get(ours.virt, "virt_iops") == m.Iops());
  CHECK(Get(ours.virt, "virt_p50_us") == m.response_us.PercentileUs(50));
  CHECK(Get(ours.virt, "virt_p99_us") == m.response_us.PercentileUs(99));
  CHECK(Get(ours.virt, "virt_p999_us") == m.response_us.PercentileUs(99.9));
  CHECK(Get(ours.virt, "virt_mean_us") == m.response_us.mean());
  CHECK(Get(ours.virt, "kv.hit_pct") ==
        100.0 * static_cast<double>(m.kv.hits) / static_cast<double>(m.kv.gets));
  CHECK(Get(ours.virt, "kv.compactions_per_kreq") ==
        1000.0 * static_cast<double>(m.kv.compactions) / static_cast<double>(m.requests));
  CHECK(m.failed_requests == 0);
}

}  // namespace
}  // namespace flashbench

int main() {
  for (const flashbench::Workload& w : flashbench::Workloads()) {
    flashbench::TestWorkload(w.name);
  }
  flashbench::TestThreadIndependence();
  flashbench::TestKvMatchesEngine();
  if (flashbench::g_failures != 0) {
    std::printf("FAILED: %d check(s)\n", flashbench::g_failures);
    return 1;
  }
  std::printf("PASSED\n");
  return 0;
}
