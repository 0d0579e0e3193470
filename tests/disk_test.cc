// Tests for the analytic disk model.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/disk/disk_model.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

DiskParams SingleDisk() {
  DiskParams p;
  p.spindles = 1;
  return p;
}

class DiskModelTest : public ::testing::Test {
 protected:
  DiskModelTest() : disk_(SingleDisk(), &clock_) {}
  SimClock clock_;
  DiskModel disk_;
};

TEST_F(DiskModelTest, RandomAccessPaysSeekAndRotation) {
  const DiskParams p;
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.Read(1'000'000), Status::kOk);
  const uint64_t cost = clock_.now_us() - t0;
  EXPECT_EQ(cost, p.avg_seek_us + p.avg_rotation_us + p.transfer_us_per_4k);
}

TEST_F(DiskModelTest, SequentialAccessIsMuchCheaper) {
  ASSERT_EQ(disk_.Read(500), Status::kOk);
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.Read(501), Status::kOk);  // next block: sequential
  const uint64_t seq_cost = clock_.now_us() - t0;
  const uint64_t t1 = clock_.now_us();
  ASSERT_EQ(disk_.Read(99'999'999), Status::kOk);  // far away: random
  const uint64_t rand_cost = clock_.now_us() - t1;
  EXPECT_LT(seq_cost * 10, rand_cost);
}

TEST_F(DiskModelTest, RandomIopsInDiskClass) {
  // Section 2's motivating number: a disk system in the ~hundreds of IOPS.
  const uint64_t ops = 1000;
  Lbn lbn = 1;
  for (uint64_t i = 0; i < ops; ++i) {
    ASSERT_EQ(disk_.Read(lbn), Status::kOk);
    lbn = lbn * 2'654'435'761 % 100'000'000;  // scattered
  }
  const double iops = static_cast<double>(ops) * 1e6 / static_cast<double>(clock_.now_us());
  EXPECT_GT(iops, 50.0);
  EXPECT_LT(iops, 500.0);
}

TEST_F(DiskModelTest, TokensRoundTrip) {
  ASSERT_EQ(disk_.Write(42, 0xbeef), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(disk_.Read(42, &token), Status::kOk);
  EXPECT_EQ(token, 0xbeefu);
}

TEST_F(DiskModelTest, UnwrittenBlocksReturnOriginalToken) {
  uint64_t token = 0;
  ASSERT_EQ(disk_.Read(777, &token), Status::kOk);
  EXPECT_EQ(token, DiskModel::OriginalToken(777));
}

TEST_F(DiskModelTest, WriteRunStoresAllTokensWithOneSeek) {
  const std::vector<uint64_t> tokens = {10, 11, 12, 13};
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.WriteRun(100, tokens), Status::kOk);
  const uint64_t run_cost = clock_.now_us() - t0;

  SimClock clock2;
  DiskModel disk2(SingleDisk(), &clock2);
  for (size_t i = 0; i < tokens.size(); ++i) {
    // Force scattered singles for comparison.
    ASSERT_EQ(disk2.Write(100 + i * 1'000'000, tokens[i]), Status::kOk);
  }
  EXPECT_LT(run_cost * 2, clock2.now_us());

  for (size_t i = 0; i < tokens.size(); ++i) {
    uint64_t token = 0;
    ASSERT_EQ(disk_.Read(100 + i, &token), Status::kOk);
    EXPECT_EQ(token, tokens[i]);
  }
}

TEST_F(DiskModelTest, WriteRunRejectsEmpty) {
  EXPECT_EQ(disk_.WriteRun(0, {}), Status::kInvalidArgument);
}

TEST_F(DiskModelTest, StatsAccumulate) {
  ASSERT_EQ(disk_.Read(1), Status::kOk);
  ASSERT_EQ(disk_.Write(2, 0), Status::kOk);
  ASSERT_EQ(disk_.WriteRun(10, {1, 2, 3}), Status::kOk);
  EXPECT_EQ(disk_.stats().reads, 1u);
  EXPECT_EQ(disk_.stats().writes, 2u);  // WriteRun counts as one access
  EXPECT_EQ(disk_.stats().busy_us, clock_.now_us());
}

// ---- EstimateUs vs. actually-charged time (satellite: timing contract) ----

TEST_F(DiskModelTest, EstimateMatchesChargedTimeForRandomRead) {
  const uint64_t est = disk_.EstimateUs(1'000'000, 1, /*sequential_hint=*/false);
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.Read(1'000'000), Status::kOk);
  EXPECT_EQ(clock_.now_us() - t0, est);
}

TEST_F(DiskModelTest, EstimateMatchesChargedTimeForWriteAndRun) {
  const uint64_t est_write = disk_.EstimateUs(42, 1, /*sequential_hint=*/false);
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.Write(42, 7), Status::kOk);
  EXPECT_EQ(clock_.now_us() - t0, est_write);

  const uint64_t est_run = disk_.EstimateUs(9'000'000, 8, /*sequential_hint=*/false);
  const uint64_t t1 = clock_.now_us();
  ASSERT_EQ(disk_.WriteRun(9'000'000, std::vector<uint64_t>(8, 1)), Status::kOk);
  EXPECT_EQ(clock_.now_us() - t1, est_run);
}

TEST_F(DiskModelTest, EstimateMatchesChargedTimeForSequentialAccess) {
  ASSERT_EQ(disk_.Read(500), Status::kOk);
  // The estimate must see the live sequential window, and the hint must
  // predict the same cost for an access that is not (yet) in the window.
  const uint64_t est = disk_.EstimateUs(501, 1, /*sequential_hint=*/false);
  EXPECT_EQ(est, disk_.EstimateUs(77'000'000, 1, /*sequential_hint=*/true));
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.Read(501), Status::kOk);
  EXPECT_EQ(clock_.now_us() - t0, est);
  EXPECT_LT(est, SingleDisk().avg_seek_us);  // settle + transfer only
}

TEST_F(DiskModelTest, EstimateDividesAcrossSpindles) {
  SimClock clock8;
  DiskParams striped;  // default: 8 spindles
  DiskModel disk8(striped, &clock8);
  const uint64_t est8 = disk8.EstimateUs(1'000'000, 1, /*sequential_hint=*/false);
  const uint64_t est1 = disk_.EstimateUs(1'000'000, 1, /*sequential_hint=*/false);
  EXPECT_EQ(est8, est1 / striped.spindles + 1);
  const uint64_t t0 = clock8.now_us();
  ASSERT_EQ(disk8.Read(1'000'000), Status::kOk);
  EXPECT_EQ(clock8.now_us() - t0, est8);
}

// ---- Sequential-window accounting across WriteRun (satellite: regression) ----

TEST_F(DiskModelTest, SequentialWindowCarriesAcrossWriteRunBoundary) {
  ASSERT_EQ(disk_.WriteRun(200, {1, 2, 3, 4}), Status::kOk);
  // The run ends at block 204; the next access there is sequential.
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.Write(204, 9), Status::kOk);
  const uint64_t seq_cost = clock_.now_us() - t0;
  EXPECT_LT(seq_cost, SingleDisk().avg_seek_us);
  // Re-visiting the middle of the run is behind the head: random again.
  const uint64_t t1 = clock_.now_us();
  ASSERT_EQ(disk_.Read(201), Status::kOk);
  EXPECT_GT(clock_.now_us() - t1, SingleDisk().avg_seek_us);
}

TEST_F(DiskModelTest, FailedWriteRunStillMovesTheHead) {
  DiskFaultPlan plan;
  plan.enabled = true;
  plan.write_fail_at = {1};
  disk_.set_fault_plan(plan);
  ASSERT_EQ(disk_.WriteRun(300, {1, 2}), Status::kIoError);
  // The seek and transfer happened even though the write was rejected, so
  // the sequential window sits after the failed run.
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.Read(302), Status::kOk);
  EXPECT_LT(clock_.now_us() - t0, SingleDisk().avg_seek_us);
}

// ---- DiskGuard fault plan ----

class DiskFaultTest : public ::testing::Test {
 protected:
  DiskFaultTest() : disk_(SingleDisk(), &clock_) {}

  void Arm(const DiskFaultPlan& extra) {
    DiskFaultPlan plan = extra;
    plan.enabled = true;
    disk_.set_fault_plan(plan);
  }

  SimClock clock_;
  DiskModel disk_;
};

TEST_F(DiskFaultTest, ScriptedReadFaultFiresAtExactOrdinal) {
  DiskFaultPlan plan;
  plan.read_fail_at = {2};
  Arm(plan);
  EXPECT_EQ(disk_.Read(10), Status::kOk);
  EXPECT_EQ(disk_.Read(11), Status::kIoError);
  EXPECT_EQ(disk_.Read(12), Status::kOk);
  EXPECT_EQ(disk_.stats().read_faults, 1u);
  // Transient: the same block reads fine afterwards.
  EXPECT_EQ(disk_.Read(11), Status::kOk);
}

TEST_F(DiskFaultTest, TransientWriteFaultLeavesContentUntouched) {
  ASSERT_EQ(disk_.Write(5, 0xaaa), Status::kOk);
  DiskFaultPlan plan;
  plan.write_fail_at = {1};
  Arm(plan);
  EXPECT_EQ(disk_.Write(5, 0xbbb), Status::kIoError);
  EXPECT_EQ(disk_.stats().write_faults, 1u);
  uint64_t token = 0;
  ASSERT_EQ(disk_.Read(5, &token), Status::kOk);
  EXPECT_EQ(token, 0xaaau);  // failure atomicity
}

TEST_F(DiskFaultTest, WriteRunFailsAtomically) {
  DiskFaultPlan plan;
  plan.write_fail_at = {1};
  Arm(plan);
  EXPECT_EQ(disk_.WriteRun(100, {1, 2, 3}), Status::kIoError);
  EXPECT_EQ(disk_.stats().write_faults, 1u);
  for (Lbn lbn = 100; lbn < 103; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(disk_.Read(lbn, &token), Status::kOk);
    EXPECT_EQ(token, DiskModel::OriginalToken(lbn));  // nothing landed
  }
}

// The content store grows through many table resizes while single writes,
// runs and overwrites land; scripted write faults reject a few of them, at
// sizes before and after resizes. Every read returns the newest acknowledged
// token, or the original content of a block never written.
TEST_F(DiskFaultTest, ContentStoreSurvivesGrowthOverwritesAndRejectedRuns) {
  DiskFaultPlan plan;
  plan.write_fail_at = {7, 20'001, 45'000, 60'003};
  Arm(plan);
  Rng rng(41);
  std::unordered_map<Lbn, uint64_t> shadow;
  std::vector<Lbn> written;
  uint64_t version = 0;
  std::vector<Lbn> rejected;  // first blocks of rejected writes
  const auto land = [&](Lbn start, size_t n) {
    std::vector<uint64_t> tokens(n);
    for (uint64_t& t : tokens) {
      t = ++version;
    }
    const Status s = n == 1 ? disk_.Write(start, tokens[0]) : disk_.WriteRun(start, tokens);
    if (s == Status::kIoError) {
      rejected.push_back(start);  // it must leave every block it covers untouched
      return;
    }
    ASSERT_EQ(s, Status::kOk);
    for (size_t i = 0; i < n; ++i) {
      if (shadow.emplace(start + i, tokens[i]).second) {
        written.push_back(start + i);
      } else {
        shadow[start + i] = tokens[i];
      }
    }
  };
  // Distinct extents scattered over a sparse address space.
  Lbn next = 0;
  while (shadow.size() < 150'000) {
    next += 1 + rng.Below(1u << 20);
    const size_t n = rng.Chance(0.5) ? 1 : 2 + rng.Below(15);
    land(next, n);
    next += n;
  }
  for (int i = 0; i < 30'000; ++i) {
    const Lbn lbn = written[rng.Below(written.size())];
    land(lbn, rng.Chance(0.5) ? 1 : 2 + rng.Below(4));
  }
  ASSERT_EQ(rejected.size(), 4u);
  EXPECT_EQ(disk_.stats().write_faults, 4u);
  // The first rejection hit a fresh extent, before any resize.
  uint64_t token = 0;
  ASSERT_EQ(disk_.Read(rejected[0], &token), Status::kOk);
  EXPECT_EQ(shadow.count(rejected[0]), 0u);
  EXPECT_EQ(token, DiskModel::OriginalToken(rejected[0]));
  for (const auto& [lbn, want] : shadow) {
    ASSERT_EQ(disk_.Read(lbn, &token), Status::kOk);
    ASSERT_EQ(token, want) << "lbn " << lbn;
  }
  for (int i = 0; i < 10'000; ++i) {
    const Lbn lbn = rng.Below(next + 1000);
    if (shadow.count(lbn) == 0) {
      ASSERT_EQ(disk_.Read(lbn, &token), Status::kOk);
      ASSERT_EQ(token, DiskModel::OriginalToken(lbn)) << "lbn " << lbn;
    }
  }
}

TEST_F(DiskFaultTest, LatentSectorIsStickyUntilAWriteHealsIt) {
  DiskFaultPlan plan;
  plan.latent_at = {1};
  Arm(plan);
  EXPECT_EQ(disk_.Read(7), Status::kIoError);  // the read that went latent
  EXPECT_EQ(disk_.Read(7), Status::kIoError);  // sticky
  EXPECT_TRUE(disk_.IsLatent(7));
  EXPECT_EQ(disk_.latent_count(), 1u);
  EXPECT_EQ(disk_.stats().latent_sectors, 1u);
  EXPECT_EQ(disk_.stats().latent_errors, 2u);
  EXPECT_EQ(disk_.LatentSectors(), std::vector<Lbn>{7});

  // A successful write remaps the sector: readable again, repair counted.
  ASSERT_EQ(disk_.Write(7, 0xcafe), Status::kOk);
  EXPECT_FALSE(disk_.IsLatent(7));
  EXPECT_EQ(disk_.stats().sector_repairs, 1u);
  uint64_t token = 0;
  EXPECT_EQ(disk_.Read(7, &token), Status::kOk);
  EXPECT_EQ(token, 0xcafeu);
}

TEST_F(DiskFaultTest, WriteRunHealsEveryLatentSectorItCovers) {
  DiskFaultPlan plan;
  plan.latent_at = {1, 2};
  Arm(plan);
  EXPECT_EQ(disk_.Read(50), Status::kIoError);
  EXPECT_EQ(disk_.Read(52), Status::kIoError);
  EXPECT_EQ(disk_.latent_count(), 2u);
  ASSERT_EQ(disk_.WriteRun(50, {1, 2, 3}), Status::kOk);
  EXPECT_EQ(disk_.latent_count(), 0u);
  EXPECT_EQ(disk_.stats().sector_repairs, 2u);
}

TEST_F(DiskFaultTest, SlowIoChargesExtraServiceTime) {
  DiskFaultPlan plan;
  plan.slow_at = {1};
  plan.slow_io_extra_us = 123'456;
  Arm(plan);
  const uint64_t est = disk_.EstimateUs(9, 1, /*sequential_hint=*/false);
  const uint64_t t0 = clock_.now_us();
  ASSERT_EQ(disk_.Read(9), Status::kOk);  // slow, but it succeeds
  EXPECT_EQ(clock_.now_us() - t0, est + plan.slow_io_extra_us);
  EXPECT_EQ(disk_.stats().slow_ios, 1u);
}

TEST_F(DiskFaultTest, PauseStopsNewDrawsButLatentSectorsStayBad) {
  DiskFaultPlan plan;
  plan.latent_at = {1};
  plan.read_fail_prob = 1.0;  // every unpaused read would fail
  Arm(plan);
  EXPECT_EQ(disk_.Read(3), Status::kIoError);  // sector 3 goes latent

  disk_.set_fault_injection_paused(true);
  EXPECT_EQ(disk_.Read(4), Status::kOk);       // no new transient draws
  EXPECT_EQ(disk_.Read(3), Status::kIoError);  // media damage persists
  disk_.set_fault_injection_paused(false);
  EXPECT_EQ(disk_.Read(4), Status::kIoError);  // draws resume
}

TEST_F(DiskFaultTest, FaultStreamReplaysBitIdenticallyFromSeed) {
  DiskFaultPlan plan;
  plan.seed = 99;
  plan.read_fail_prob = 0.1;
  plan.write_fail_prob = 0.1;
  plan.latent_prob = 0.05;
  plan.slow_io_prob = 0.1;
  plan.enabled = true;

  auto run = [&plan](uint64_t seed) {
    SimClock clock;
    DiskModel disk(SingleDisk(), &clock);
    DiskFaultPlan p = plan;
    p.seed = seed;
    disk.set_fault_plan(p);
    std::vector<Status> statuses;
    Lbn lbn = 1;
    for (int i = 0; i < 400; ++i) {
      statuses.push_back(i % 3 == 0 ? disk.Write(lbn, i) : disk.Read(lbn));
      lbn = lbn * 2'654'435'761 % 1'000'000;
    }
    return std::make_pair(statuses, disk.stats());
  };

  const auto a = run(99);
  const auto b = run(99);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.read_faults, b.second.read_faults);
  EXPECT_EQ(a.second.write_faults, b.second.write_faults);
  EXPECT_EQ(a.second.latent_sectors, b.second.latent_sectors);
  EXPECT_EQ(a.second.latent_errors, b.second.latent_errors);
  EXPECT_EQ(a.second.slow_ios, b.second.slow_ios);
  EXPECT_EQ(a.second.busy_us, b.second.busy_us);

  const auto c = run(100);  // a different seed draws a different schedule
  EXPECT_NE(a.first, c.first);
}

// ---- Guarded retry discipline ----

TEST_F(DiskFaultTest, GuardedReadRetriesPastATransientFault) {
  DiskFaultPlan plan;
  plan.read_fail_at = {1};
  Arm(plan);
  uint64_t token = 0;
  EXPECT_EQ(disk_.GuardedRead(123, &token), Status::kOk);
  EXPECT_EQ(token, DiskModel::OriginalToken(123));
  EXPECT_EQ(disk_.stats().retries, 1u);
  EXPECT_EQ(disk_.stats().read_faults, 1u);
  EXPECT_EQ(disk_.stats().timeouts, 0u);
}

TEST_F(DiskFaultTest, GuardedWriteRetriesAndLandsTheContent) {
  DiskFaultPlan plan;
  plan.write_fail_at = {1};
  Arm(plan);
  EXPECT_EQ(disk_.GuardedWrite(8, 0xdead), Status::kOk);
  EXPECT_EQ(disk_.stats().retries, 1u);
  uint64_t token = 0;
  ASSERT_EQ(disk_.Read(8, &token), Status::kOk);
  EXPECT_EQ(token, 0xdeadu);
}

TEST_F(DiskFaultTest, GuardedReadExhaustsAttemptsOnALatentSector) {
  DiskFaultPlan plan;
  plan.latent_at = {1};
  Arm(plan);
  // Every attempt hits the sticky sector; the attempt bound (4) stops the
  // loop well before the 250 ms deadline, so the disk's own error surfaces.
  EXPECT_EQ(disk_.GuardedRead(66), Status::kIoError);
  EXPECT_EQ(disk_.stats().retries, disk_.retry_policy().max_attempts - 1);
  EXPECT_EQ(disk_.stats().timeouts, 0u);
  EXPECT_EQ(disk_.stats().latent_errors, disk_.retry_policy().max_attempts);
}

TEST_F(DiskFaultTest, GuardedReadDeadlineSurfacesAsTimeout) {
  DiskFaultPlan plan;
  plan.latent_at = {1};
  Arm(plan);
  RetryPolicy tight;
  tight.op_deadline_us = 1;  // the first attempt alone blows the budget
  disk_.set_retry_policy(tight);
  EXPECT_EQ(disk_.GuardedRead(66), Status::kTimeout);
  EXPECT_EQ(disk_.stats().timeouts, 1u);
  EXPECT_EQ(disk_.stats().retries, 0u);
}

TEST_F(DiskFaultTest, GuardedWriteRunRetriesAtomically) {
  DiskFaultPlan plan;
  plan.write_fail_at = {1};
  Arm(plan);
  EXPECT_EQ(disk_.GuardedWriteRun(40, {1, 2}), Status::kOk);
  EXPECT_EQ(disk_.stats().retries, 1u);
  uint64_t token = 0;
  ASSERT_EQ(disk_.Read(41, &token), Status::kOk);
  EXPECT_EQ(token, 2u);
}

TEST(RetrySessionTest, BackoffDoublesUpToTheCap) {
  RetryPolicy policy;
  policy.initial_backoff_us = 500;
  policy.max_backoff_us = 1500;
  EXPECT_EQ(policy.BackoffUs(1), 500u);
  EXPECT_EQ(policy.BackoffUs(2), 1000u);
  EXPECT_EQ(policy.BackoffUs(3), 1500u);  // capped, not 2000
  EXPECT_EQ(policy.BackoffUs(9), 1500u);

  SimClock clock;
  RetrySession session(policy, &clock);
  EXPECT_TRUE(session.BackoffBeforeRetry());
  EXPECT_EQ(clock.now_us(), 500u);
  EXPECT_TRUE(session.BackoffBeforeRetry());
  EXPECT_EQ(clock.now_us(), 1500u);
  EXPECT_TRUE(session.BackoffBeforeRetry());
  EXPECT_EQ(clock.now_us(), 3000u);
  EXPECT_FALSE(session.BackoffBeforeRetry());  // attempt bound: 4 total tries
  EXPECT_EQ(session.retries(), 3u);
  EXPECT_FALSE(session.deadline_exceeded());
}

TEST(RetrySessionTest, DeadlineStopsTheLoopBeforeTheAttemptBound) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.op_deadline_us = 1200;  // allows one 500 us backoff, not two
  SimClock clock;
  RetrySession session(policy, &clock);
  EXPECT_TRUE(session.BackoffBeforeRetry());
  EXPECT_FALSE(session.BackoffBeforeRetry());
  EXPECT_TRUE(session.deadline_exceeded());
  EXPECT_EQ(session.retries(), 1u);
}

}  // namespace
}  // namespace flashtier
