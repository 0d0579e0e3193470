// The field lists behind every stats struct: each list covers its struct
// exactly, Merge and == follow the per-field rules, and every listed field
// reaches the --stats-json line.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "src/util/json.h"
#include "tests/stats_printer.h"

namespace flashtier {
namespace {

template <class T>
class StatFieldsTest : public ::testing::Test {};

using StatsTypes = ::testing::Types<FlashStats, FaultStats, DiskStats, PolicyStats, ManagerStats,
                                    FtlStats, PersistStats, KvStats>;
TYPED_TEST_SUITE(StatFieldsTest, StatsTypes);

// Fills every listed field with a distinct value derived from its position.
template <class T>
T Numbered(uint64_t scale) {
  T stats;
  uint64_t i = 0;
  T::Fields([&](const char*, uint64_t T::*field, MergeRule) { stats.*field = ++i * scale; });
  return stats;
}

// Each member is listed exactly once: numbering the list must write every
// 8-byte slot of the struct with a distinct value (a duplicated entry would
// leave its twin's slot at zero even when the count matches).
TYPED_TEST(StatFieldsTest, ListCoversEveryMemberOnce) {
  using T = TypeParam;
  static_assert(FieldCount<T>() * sizeof(uint64_t) == sizeof(T));
  const T stats = Numbered<T>(1);
  std::vector<uint64_t> slots(sizeof(T) / sizeof(uint64_t));
  std::memcpy(slots.data(), &stats, sizeof(T));
  std::sort(slots.begin(), slots.end());
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], i + 1);
  }
  std::set<std::string> names;
  T::Fields([&](const char* name, uint64_t T::*, MergeRule) {
    EXPECT_NE(std::string(name), "");
    EXPECT_TRUE(names.insert(name).second) << "duplicate field name " << name;
  });
}

// Merge sums counters and keeps the larger value of kMax fields, whichever
// side holds it.
TYPED_TEST(StatFieldsTest, MergeFollowsEachFieldsRule) {
  using T = TypeParam;
  const T small = Numbered<T>(1);
  const T large = Numbered<T>(10);
  T a = small;
  a.Merge(large);
  T b = large;
  b.Merge(small);
  EXPECT_EQ(a, b);
  T::Fields([&](const char* name, uint64_t T::*field, MergeRule rule) {
    const uint64_t want = rule == MergeRule::kSum ? small.*field + large.*field : large.*field;
    EXPECT_EQ(a.*field, want) << name;
  });
}

// == compares every listed field: changing any one breaks equality.
TYPED_TEST(StatFieldsTest, EqualityCoversEveryField) {
  using T = TypeParam;
  const T base = Numbered<T>(1);
  EXPECT_EQ(base, Numbered<T>(1));
  T::Fields([&](const char* name, uint64_t T::*field, MergeRule) {
    T changed = base;
    ++(changed.*field);
    EXPECT_FALSE(changed == base) << name;
  });
}

// Only the recovery-time breakdown keeps the slowest shard; everything else
// in the tree is a plain per-shard sum.
TEST(StatFieldsMergeTest, PersistRecoveryTimesKeepTheSlowestShard) {
  std::set<std::string> kmax;
  PersistStats::Fields([&](const char* name, uint64_t PersistStats::*, MergeRule rule) {
    if (rule == MergeRule::kMax) {
      kmax.insert(name);
    }
  });
  EXPECT_EQ(kmax, (std::set<std::string>{"last_recovery_us", "checkpoint_load_us",
                                         "log_replay_us", "rebuild_us"}));

  PersistStats a;
  a.records_logged = 5;
  a.log_page_writes = 2;
  a.last_recovery_us = 900;
  a.checkpoint_load_us = 100;
  a.log_replay_us = 700;
  a.rebuild_us = 100;
  PersistStats b;
  b.records_logged = 7;
  b.log_page_writes = 3;
  b.last_recovery_us = 800;
  b.checkpoint_load_us = 300;
  b.log_replay_us = 200;
  b.rebuild_us = 300;
  a.Merge(b);
  EXPECT_EQ(a.records_logged, 12u);
  EXPECT_EQ(a.log_page_writes, 5u);
  EXPECT_EQ(a.last_recovery_us, 900u);
  EXPECT_EQ(a.checkpoint_load_us, 300u);
  EXPECT_EQ(a.log_replay_us, 700u);
  EXPECT_EQ(a.rebuild_us, 300u);

  FtlStats f;
  f.full_merges = 4;
  FtlStats g;
  g.full_merges = 6;
  f.Merge(g);
  EXPECT_EQ(f.full_merges, 10u);
}

TEST(JsonLineTest, FormatsEveryValueKind) {
  JsonLine json;
  json.Str("name", "a\"b\\c")
      .U64("big", 18446744073709551615ull)
      .Bool("yes", true)
      .Bool("no", false)
      .Double("x", 2.0 / 3.0, 4)
      .Double("neg", -0.8744, 3)
      .Open("inner")
      .U64("n", 0)
      .Close()
      .Open("tail")
      .Double("y", 1.5, 1);
  EXPECT_EQ(json.str(),
            "{\"name\":\"a\\\"b\\\\c\",\"big\":18446744073709551615,\"yes\":true,"
            "\"no\":false,\"x\":0.6667,\"neg\":-0.874,\"inner\":{\"n\":0},\"tail\":{\"y\":1.5}}");
}

TEST(JsonLineTest, AppendsOneLinePerCall) {
  const std::string path = ::testing::TempDir() + "json_line_append_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(JsonLine().U64("run", 1).AppendTo(path));
  ASSERT_TRUE(JsonLine().U64("run", 2).AppendTo(path));
  std::ifstream in(path);
  std::string first;
  std::string second;
  std::string third;
  std::getline(in, first);
  std::getline(in, second);
  EXPECT_EQ(first, "{\"run\":1}");
  EXPECT_EQ(second, "{\"run\":2}");
  EXPECT_FALSE(std::getline(in, third));
  std::remove(path.c_str());
}

// The text of block "key":{...} in a stats line (blocks hold no nested
// objects), or "" when the line has no such block.
std::string BlockOf(const std::string& line, const std::string& key) {
  const std::string open = "\"" + key + "\":{";
  const size_t start = line.find(open);
  if (start == std::string::npos) {
    return "";
  }
  const size_t end = line.find('}', start);
  return line.substr(start + open.size(), end - start - open.size());
}

template <class T>
void ExpectEveryField(const std::string& line, const std::string& key) {
  const std::string block = BlockOf(line, key);
  ASSERT_FALSE(block.empty()) << "no \"" << key << "\" block in " << line;
  T::Fields([&](const char* name, uint64_t T::*, MergeRule) {
    EXPECT_NE(block.find("\"" + std::string(name) + "\":"), std::string::npos)
        << key << "." << name << " missing from " << block;
  });
}

// One SSC write-back run through the benches' --stats-json writer carries
// every counter of every struct the system has.
TEST(StatsJsonTest, SscWriteBackLineCarriesEveryField) {
  WorkloadProfile profile;
  profile.name = "stats-json-test";
  profile.range_blocks = 40'000;
  profile.unique_blocks = 3'000;
  profile.full_unique_blocks = 3'000;
  profile.total_ops = 4'000;
  profile.write_fraction = 0.6;
  profile.seed = 3;
  SystemConfig config;
  config.type = SystemType::kSscWriteBack;
  config.cache_pages = 1024;
  FlashTierSystem system(config);
  const bench::RunResult result = bench::ReplayWorkload(profile, config, &system);

  const std::string path = ::testing::TempDir() + "stats_fields_test.json";
  std::remove(path.c_str());
  bench::AppendStatsJson(path, "stats_fields_test", profile, config, &system, result);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::remove(path.c_str());

  ExpectEveryField<ManagerStats>(line, "manager");
  ExpectEveryField<DiskStats>(line, "disk");
  ExpectEveryField<PolicyStats>(line, "policy_stats");
  ExpectEveryField<PersistStats>(line, "persist");
  ExpectEveryField<FlashStats>(line, "flash");
  ExpectEveryField<FtlStats>(line, "ftl");
  ExpectEveryField<FaultStats>(line, "faults");
  ExpectEveryField<KvStats>(line, "kv");
  EXPECT_NE(line.find("\"ftl\":{\"host_reads\":"), std::string::npos);  // declaration order
  EXPECT_GT(system.AggregatePersistStats().log_page_writes, 0u);
}

}  // namespace
}  // namespace flashtier
