// Tests of the benchmark's own logic: release attribution, the
// order-independent result digest, percentiles with sample counts, span
// self time, the forked oracle and its cache key, and one small
// in-process repetition checked end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "bench.h"
#include "digest.h"
#include "isolate.h"
#include "release.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(ReleaseSchedule, FirstWatermarkStrictlyPastTheWindowEndReleases) {
  ReleaseSchedule s;
  s.Add(100, 1'000);
  s.Add(200, 2'000);
  s.Add(300, 3'000);
  s.SetFinishDue(9'000);
  EXPECT_EQ(s.ReleaseDueNs(50), 1'000);
  EXPECT_EQ(s.ReleaseDueNs(99), 1'000);
  // The engines finalize strictly below the punctuation: W = 100 still
  // admits a tuple with ts == 100, so a window ending at 100 waits.
  EXPECT_EQ(s.ReleaseDueNs(100), 2'000);
  EXPECT_EQ(s.ReleaseDueNs(250), 3'000);
}

TEST(ReleaseSchedule, ResultNoWatermarkPassesIsReleasedByFinish) {
  ReleaseSchedule s;
  s.Add(100, 1'000);
  s.SetFinishDue(9'000);
  EXPECT_EQ(s.ReleaseDueNs(100), 9'000);
  EXPECT_EQ(s.ReleaseDueNs(1'000'000), 9'000);

  ReleaseSchedule empty;
  empty.SetFinishDue(42);
  EXPECT_EQ(empty.ReleaseDueNs(0), 42);
}

TEST(ReleaseSchedule, CoalescedWatermarksKeepTheirOwnDueTimes) {
  // Three watermarks went out in one flush (one write, one batch), but
  // each was due when its block's last tuple was due. A result is charged
  // from the due time of the first one that passes it, not the flush.
  ReleaseSchedule s;
  s.Add(400, 4'000);
  s.Add(500, 4'100);
  s.Add(600, 4'200);
  s.SetFinishDue(5'000);
  EXPECT_EQ(s.ReleaseDueNs(450), 4'100);
  EXPECT_EQ(s.ReleaseDueNs(599), 4'200);

  const std::vector<DelaySample> samples = {{450, 4'600, 0}, {399, 4'600, 0}};
  const std::vector<double> ms = DelaysMs(samples, s);
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_DOUBLE_EQ(ms[0], 500.0 / 1e6);
  EXPECT_DOUBLE_EQ(ms[1], 600.0 / 1e6);
}

TEST(ReleaseSchedule, RepeatedOrRegressingWatermarksReleaseNothingNew) {
  ReleaseSchedule s;
  s.Add(200, 1'000);
  s.Add(200, 2'000);  // duplicate: the first already released everything
  s.Add(150, 3'000);  // behind the reach: releases nothing
  s.Add(300, 4'000);
  s.SetFinishDue(9'000);
  EXPECT_EQ(s.ReleaseDueNs(199), 1'000);
  EXPECT_EQ(s.ReleaseDueNs(200), 4'000);
}

std::vector<oij::JoinResult> SomeResults(size_t n) {
  std::mt19937_64 rng(7);
  std::vector<oij::JoinResult> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].base = {static_cast<oij::Timestamp>(i * 3), rng() % 17,
                   static_cast<double>(rng() % 1000) / 7.0};
    out[i].match_count = rng() % 50;
    out[i].aggregate = static_cast<double>(rng() % 100000) / 3.0;
  }
  return out;
}

ResultDigest DigestOf(const std::vector<oij::JoinResult>& results) {
  ResultDigest d;
  for (const oij::JoinResult& r : results) {
    d.Add(r.base, r.match_count, r.aggregate);
  }
  return d;
}

TEST(ResultDigest, IsIndependentOfOrderAndThreadSplit) {
  const std::vector<oij::JoinResult> results = SomeResults(20'000);
  const ResultDigest expected = DigestOf(results);

  std::vector<oij::JoinResult> shuffled = results;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(11));
  ResultDigest per_thread[3];
  for (size_t i = 0; i < shuffled.size(); ++i) {
    const oij::JoinResult& r = shuffled[i];
    per_thread[i % 3].Add(r.base, r.match_count, r.aggregate);
  }
  ResultDigest merged;
  merged.Merge(per_thread[2]);
  merged.Merge(per_thread[0]);
  merged.Merge(per_thread[1]);

  const DigestDiff diff = CompareDigests(expected, merged);
  EXPECT_TRUE(diff.exact());
  EXPECT_EQ(diff.expected, 20'000u);
  EXPECT_EQ(diff.delivered, 20'000u);
  EXPECT_EQ(diff.error_ratio(), 0.0);
}

TEST(ResultDigest, CountsMissingDuplicatedAndWrongResults) {
  const std::vector<oij::JoinResult> results = SomeResults(1'000);
  const ResultDigest expected = DigestOf(results);

  std::vector<oij::JoinResult> missing(results.begin() + 3, results.end());
  EXPECT_EQ(CompareDigests(expected, DigestOf(missing)).missing, 3u);

  std::vector<oij::JoinResult> duplicated = results;
  duplicated.push_back(results[10]);
  const DigestDiff dup = CompareDigests(expected, DigestOf(duplicated));
  EXPECT_EQ(dup.extra, 1u);
  EXPECT_DOUBLE_EQ(dup.error_ratio(), 1.0 / 1'000.0);

  std::vector<oij::JoinResult> wrong_agg = results;
  wrong_agg[5].aggregate += 1e-3;
  EXPECT_EQ(CompareDigests(expected, DigestOf(wrong_agg)).wrong, 1u);

  std::vector<oij::JoinResult> wrong_count = results;
  wrong_count[6].match_count += 1;
  EXPECT_EQ(CompareDigests(expected, DigestOf(wrong_count)).wrong, 1u);

  std::vector<oij::JoinResult> wrong_base = results;
  wrong_base[7].base.payload += 1.0;
  EXPECT_FALSE(CompareDigests(expected, DigestOf(wrong_base)).exact());

  // Within the differential tests' tolerance: still exact.
  std::vector<oij::JoinResult> rounded = results;
  rounded[8].aggregate += 1e-9;
  EXPECT_TRUE(CompareDigests(expected, DigestOf(rounded)).exact());
}

TEST(ResultDigest, SurvivesTheCacheRoundTrip) {
  const ResultDigest d = DigestOf(SomeResults(500));
  const std::string path = ::testing::TempDir() + "/perfbench_digest.bin";
  ASSERT_TRUE(d.Save(path));
  ResultDigest loaded;
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_TRUE(CompareDigests(d, loaded).exact());
  EXPECT_FALSE(loaded.Load(path + ".missing"));
}

TEST(Percentile, ReportsValueWithSampleCount) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  std::vector<double> copy = v;
  const Percentile p50 = PercentileOf(&v, 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  const Percentile p99 = PercentileOf(&copy, 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.samples, 100u);

  std::vector<double> one = {3.5};
  EXPECT_EQ(PercentileOf(&one, 0.99).value, 3.5);
  EXPECT_EQ(PercentileOf(&one, 0.99).samples, 1u);

  std::vector<double> none;
  const Percentile empty = PercentileOf(&none, 0.5);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0.0);
}

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  std::vector<Span> spans = {
      {"run", 0, 0, 100},      {"push", 0, 10, 40},
      {"inner", 0, 15, 25},    {"watermark", 0, 50, 60},
      {"finish", 0, 70, 95},   {"other-thread", 1, 0, 1000},
  };
  const auto times = SelfTimes(spans);
  EXPECT_EQ(times.at("run").total_ns, 100);
  EXPECT_EQ(times.at("run").self_ns, 100 - 30 - 10 - 25);
  EXPECT_EQ(times.at("push").self_ns, 30 - 10);
  EXPECT_EQ(times.at("inner").self_ns, 10);
  EXPECT_EQ(times.at("other-thread").self_ns, 1000);
  EXPECT_DOUBLE_EQ(ChildCoverage(spans, 0, "run"), 0.65);
  EXPECT_EQ(ChildCoverage(spans, 1, "run"), 0.0);
}

TEST(RunIsolated, HandsBackWhatTheChildReturned) {
  const ResultDigest d = DigestOf(SomeResults(300));
  std::string bytes;
  std::string error;
  ASSERT_TRUE(RunIsolated([&d] { return d.Encode(); }, &bytes, &error))
      << error;
  ResultDigest back;
  ASSERT_TRUE(back.Decode(bytes));
  EXPECT_TRUE(CompareDigests(d, back).exact());
  EXPECT_FALSE(back.Decode(std::string_view(bytes).substr(1)));
}

TEST(RunIsolated, ReportsAFailedChild) {
  std::string bytes;
  std::string error;
  EXPECT_FALSE(RunIsolated(
      []() -> std::string { throw std::runtime_error("boom"); }, &bytes,
      &error));
  EXPECT_FALSE(error.empty());
}

TEST(PrepareInput, InputHashKeysTheOracleCache) {
  const WorkloadPlan plan{"tiny", "default", 5'000, 1, Path::kInProcess, 0};
  const std::string cache = ::testing::TempDir() + "/perfbench_hash_cache";
  std::filesystem::remove_all(cache);
  std::string error;
  PreparedInput a;
  PreparedInput again;
  PreparedInput other_seed;
  ASSERT_TRUE(PrepareInput(plan, 11, cache, &a, &error)) << error;
  ASSERT_TRUE(PrepareInput(plan, 11, cache, &again, &error)) << error;
  ASSERT_TRUE(PrepareInput(plan, 12, cache, &other_seed, &error)) << error;
  EXPECT_EQ(a.input_hash, again.input_hash);
  EXPECT_TRUE(again.oracle_cached);
  EXPECT_TRUE(CompareDigests(a.expected, again.expected).exact());
  EXPECT_NE(a.input_hash, other_seed.input_hash);
  EXPECT_FALSE(other_seed.oracle_cached);

  // The same arrivals under another query must not reuse the digest.
  oij::QuerySpec wider = a.query;
  wider.window.pre += 1;
  EXPECT_NE(InputHash(a.events, wider), a.input_hash);
}

TEST(InProcessRep, SmallRunMatchesTheOracle) {
  WorkloadPlan plan{"tiny", "default", 40'000, 2, Path::kInProcess, 0};
  PreparedInput input;
  std::string error;
  ASSERT_TRUE(PrepareInput(plan, 3, ::testing::TempDir() + "/perfbench_cache",
                           &input, &error))
      << error;
  RepOptions opt;
  opt.joiners = plan.joiners;
  opt.trace = true;
  const RepResult rep = RunInProcessRep(input, opt);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.diff.exact());
  EXPECT_EQ(rep.diff.expected, input.expected.count());
  EXPECT_GT(rep.diff.expected, 0u);
  ASSERT_FALSE(rep.delays_ms.empty());
  EXPECT_GE(*std::min_element(rep.delays_ms.begin(), rep.delays_ms.end()),
            0.0);
  EXPECT_GE(rep.layers.at("trace.span_coverage"), 0.9);
}

}  // namespace
}  // namespace perfbench
