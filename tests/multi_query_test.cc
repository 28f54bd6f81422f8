// Multi-query shared-index tests (the standing-query catalog): N
// QuerySpecs with different windows, aggregates and lateness policies
// share one engine — one insert per tuple, many window reads — and
// every query's result stream is diffed against the policy-aware
// reference oracle, including queries added and removed mid-stream.
//
// Semantics under test (DESIGN.md §5g):
//   * a query added at arrival index P serves every base pushed after
//     its kAddQuery barrier, and those bases join against the *retained
//     history* already in the shared index — so the oracle for an added
//     query is the full-stream reference filtered to bases at index >= P
//     (its windows must fit inside the eviction reach, which the specs
//     here guarantee);
//   * a removed query drains: bases registered before the kRemoveQuery
//     barrier still finalize, no base after it does;
//   * lateness is gated once (the shared bound) but disposed per query:
//     drop/side-channel queries stay exact on the on-time subset while
//     best-effort queries also scan the late annex;
//   * the catalog is WAL-logged, so a crashed engine recovers its
//     standing queries — active and removed — and every query's
//     pre+post-crash union stays exact.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "core/engine_factory.h"
#include "join/late_gate.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "stream/generator.h"

namespace oij {
namespace {

constexpr uint64_t kWmEvery = 256;

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/oij_multi_query_test_XXXXXX";
    char* p = mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path_ = p;
  }
  ~TempDir() {
    if (path_.empty()) return;
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Unique integer-us timestamps so a base tuple is identified by
/// (ts, key, payload) and arrival indices map one-to-one onto bases.
WorkloadSpec TestWorkload(uint64_t seed, Timestamp disorder = 50) {
  WorkloadSpec w;
  w.num_keys = 12;
  w.window = IntervalWindow{400, 0};
  w.lateness_us = disorder;
  w.disorder_bound_us = disorder;
  w.event_rate_per_sec = 1'000'000;
  w.total_tuples = 30'000;
  w.probe_fraction = 0.5;
  w.seed = seed;
  return w;
}

QuerySpec MakeSpec(IntervalWindow window, AggKind agg,
                   Timestamp lateness = 50,
                   LatePolicy policy = LatePolicy::kBestEffortJoin) {
  QuerySpec q;
  q.window = window;
  q.lateness_us = lateness;
  q.agg = agg;
  q.emit_mode = EmitMode::kWatermark;
  q.late_policy = policy;
  return q;
}

using BaseKey = std::tuple<Timestamp, Key, double>;

BaseKey KeyOf(const Tuple& base) {
  return BaseKey(base.ts, base.key, base.payload);
}

/// Arrival index of every base tuple, in push order.
std::map<BaseKey, size_t> BaseArrivalIndex(
    const std::vector<StreamEvent>& events) {
  std::map<BaseKey, size_t> idx;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].stream == StreamId::kBase) idx[KeyOf(events[i].tuple)] = i;
  }
  return idx;
}

/// Policy-aware reference oracle, sorted for aligned comparison.
std::vector<ReferenceResult> Oracle(const std::vector<StreamEvent>& events,
                                    const QuerySpec& spec,
                                    ReferenceRunStats* stats = nullptr) {
  auto expected = ReferenceJoinWithPolicy(events, spec, kWmEvery, stats);
  SortResults(&expected);
  return expected;
}

/// Oracle rows whose base arrived inside [begin, end) — the lifetime of
/// a mid-stream added/removed standing query.
std::vector<ReferenceResult> FilterByArrival(
    const std::vector<ReferenceResult>& oracle,
    const std::map<BaseKey, size_t>& arrival, size_t begin, size_t end) {
  std::vector<ReferenceResult> out;
  for (const ReferenceResult& r : oracle) {
    const auto it = arrival.find(KeyOf(r.base));
    if (it == arrival.end()) continue;
    if (it->second >= begin && it->second < end) out.push_back(r);
  }
  SortResults(&out);
  return out;
}

std::map<uint32_t, std::vector<JoinResult>> SplitByQuery(
    std::vector<JoinResult> results) {
  std::map<uint32_t, std::vector<JoinResult>> by_query;
  for (JoinResult& r : results) by_query[r.query].push_back(r);
  return by_query;
}

std::vector<ReferenceResult> ToReference(
    const std::vector<JoinResult>& results) {
  std::vector<ReferenceResult> out;
  out.reserve(results.size());
  for (const JoinResult& r : results) {
    out.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&out);
  return out;
}

void ExpectResultsEqual(const std::vector<ReferenceResult>& got,
                        const std::vector<ReferenceResult>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << ": result cardinality";
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].base != want[i].base ||
        got[i].match_count != want[i].match_count ||
        (!std::isnan(want[i].aggregate) &&
         std::abs(got[i].aggregate - want[i].aggregate) > 1e-6)) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": result " << i << " differs: base ts="
                      << got[i].base.ts << " key=" << got[i].base.key
                      << " got(count=" << got[i].match_count
                      << ", agg=" << got[i].aggregate << ") want(count="
                      << want[i].match_count << ", agg=" << want[i].aggregate
                      << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

const QueryStatsRow* FindRow(const std::vector<QueryStatsRow>& rows,
                             const std::string& id) {
  for (const QueryStatsRow& row : rows) {
    if (row.id == id) return &row;
  }
  return nullptr;
}

class CollectingLateSink : public LateSink {
 public:
  void OnLateTuple(const StreamEvent&, Timestamp) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// ----------------------------------------- N queries, one index, exact

class MultiQueryEngineTest : public ::testing::TestWithParam<EngineKind> {};

/// Five standing queries with different windows and aggregates share one
/// index; each one must match its own single-query oracle exactly.
TEST_P(MultiQueryEngineTest, ManyQueriesShareOneIndexExactly) {
  const EngineKind kind = GetParam();
  const auto events = Generate(TestWorkload(1201));

  const QuerySpec primary = MakeSpec({400, 0}, AggKind::kSum);
  const std::vector<std::pair<std::string, QuerySpec>> added = {
      {"narrow_sum", MakeSpec({200, 0}, AggKind::kSum)},
      {"wide_count", MakeSpec({400, 0}, AggKind::kCount)},
      {"mid_max", MakeSpec({300, 0}, AggKind::kMax)},
      {"fol_avg", MakeSpec({250, 80}, AggKind::kAvg)},
  };

  CollectingSink sink;
  EngineOptions options;
  options.num_joiners = 3;
  auto engine = CreateEngine(kind, primary, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  for (const auto& [id, spec] : added) {
    ASSERT_TRUE(engine->AddQuery(id, spec).ok()) << id;
  }

  WatermarkTracker tracker(primary.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine->Finish();
  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();

  const auto rows = engine->QuerySnapshot();
  ASSERT_EQ(rows.size(), 1 + added.size());
  auto by_query = SplitByQuery(sink.TakeResults());

  for (const QueryStatsRow& row : rows) {
    EXPECT_TRUE(row.active) << row.id;
    const QuerySpec spec = row.ord == 0 ? primary : added[row.ord - 1].second;
    const std::string label =
        std::string(EngineKindName(kind)) + "/" + row.id;
    const auto expected = Oracle(events, spec);
    const auto got = ToReference(by_query[row.ord]);
    ExpectResultsEqual(got, expected, label);
    EXPECT_EQ(row.results, got.size()) << label;
  }
}

/// Each query counts its results in one counter per joiner; the admin
/// view sums them. With four joiners delivering two queries' results,
/// every query's sum must equal what its sink received.
TEST_P(MultiQueryEngineTest, PerJoinerResultCountersSumToDelivered) {
  const EngineKind kind = GetParam();
  const auto events = Generate(TestWorkload(1207));
  const QuerySpec primary = MakeSpec({400, 0}, AggKind::kSum);
  CollectingSink sink;
  EngineOptions options;
  options.num_joiners = 4;
  auto engine = CreateEngine(kind, primary, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  ASSERT_TRUE(engine->AddQuery("narrow", MakeSpec({150, 30}, AggKind::kAvg))
                  .ok());

  WatermarkTracker tracker(primary.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine->Finish();
  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();

  const auto rows = engine->QuerySnapshot();
  ASSERT_EQ(rows.size(), 2u);
  auto by_query = SplitByQuery(sink.TakeResults());
  uint64_t total = 0;
  for (const QueryStatsRow& row : rows) {
    const std::string label =
        std::string(EngineKindName(kind)) + "/" + row.id;
    EXPECT_GT(row.results, 0u) << label;
    EXPECT_EQ(row.results, by_query[row.ord].size()) << label;
    total += row.results;
  }
  EXPECT_EQ(total, stats.results);
}

/// Duplicate ids, bad specs, and mismatched shared parameters are all
/// rejected without disturbing the running queries.
TEST_P(MultiQueryEngineTest, CatalogValidationRejectsBadSpecs) {
  const EngineKind kind = GetParam();
  const QuerySpec primary = MakeSpec({400, 0}, AggKind::kSum);
  CollectingSink sink;
  EngineOptions options;
  options.num_joiners = 2;
  auto engine = CreateEngine(kind, primary, options, &sink);

  // Catalog changes need a started engine (they ride control barriers).
  EXPECT_FALSE(engine->AddQuery("early", primary).ok());
  ASSERT_TRUE(engine->Start().ok());

  ASSERT_TRUE(engine->AddQuery("good", MakeSpec({200, 0}, AggKind::kSum)).ok());
  EXPECT_FALSE(engine->AddQuery("good", primary).ok()) << "duplicate id";
  EXPECT_FALSE(engine->AddQuery("main", primary).ok()) << "primary's id";
  EXPECT_FALSE(engine->AddQuery("bad id!", primary).ok()) << "bad charset";
  QuerySpec wrong_lateness = primary;
  wrong_lateness.lateness_us = primary.lateness_us + 1;
  EXPECT_FALSE(engine->AddQuery("l", wrong_lateness).ok());
  QuerySpec wrong_emit = primary;
  wrong_emit.emit_mode = EmitMode::kEager;
  EXPECT_FALSE(engine->AddQuery("e", wrong_emit).ok());
  QuerySpec negative = primary;
  negative.window.pre = -1;
  EXPECT_FALSE(engine->AddQuery("n", negative).ok());

  EXPECT_FALSE(engine->RemoveQuery("main").ok()) << "primary is fixed";
  EXPECT_FALSE(engine->RemoveQuery("ghost").ok());
  EXPECT_TRUE(engine->RemoveQuery("good").ok());
  EXPECT_FALSE(engine->RemoveQuery("good").ok()) << "already removed";

  const EngineStats stats = engine->Finish();
  EXPECT_TRUE(stats.health.ok());
}

// ------------------------------------------- per-query lateness policy

/// One lateness gate, three disposals: under a late flood the drop and
/// side-channel queries must equal the policy oracle exactly, the
/// side channel must receive every violator, and the best-effort query
/// stays within [on-time matches, full-knowledge matches] per base.
TEST_P(MultiQueryEngineTest, LatePoliciesDivergePerQueryOnOneGate) {
  const EngineKind kind = GetParam();
  WorkloadSpec w = TestWorkload(1301, /*disorder=*/80);
  w.late_flood_fraction = 0.12;
  w.late_flood_extra_us = 60;
  w.total_tuples = 20'000;
  const auto events = Generate(w);

  const Timestamp lateness = w.lateness_us;
  const QuerySpec primary =
      MakeSpec({400, 0}, AggKind::kSum, lateness, LatePolicy::kBestEffortJoin);
  const QuerySpec drop_spec =
      MakeSpec({400, 0}, AggKind::kSum, lateness, LatePolicy::kDropAndCount);
  const QuerySpec side_spec =
      MakeSpec({400, 0}, AggKind::kSum, lateness, LatePolicy::kSideChannel);

  ReferenceRunStats ref_stats;
  const auto drop_oracle =
      Oracle(events, drop_spec, &ref_stats);
  const uint64_t expected_late = ref_stats.late.tuples;
  ASSERT_GT(expected_late, 100u) << "flood knob produced no violations";
  QuerySpec best_full = primary;
  const auto full_oracle = Oracle(events, best_full);

  CollectingLateSink late_sink;
  CollectingSink sink;
  EngineOptions options;
  options.num_joiners = 3;
  options.late_sink = &late_sink;
  auto engine = CreateEngine(kind, primary, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  ASSERT_TRUE(engine->AddQuery("dropper", drop_spec).ok());
  ASSERT_TRUE(engine->AddQuery("sider", side_spec).ok());

  WatermarkTracker tracker(lateness);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine->Finish();
  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();

  const std::string prefix = std::string(EngineKindName(kind)) + "/";
  auto by_query = SplitByQuery(sink.TakeResults());
  const auto rows = engine->QuerySnapshot();
  ASSERT_EQ(rows.size(), 3u);

  // Exact on the on-time subset for both exact policies.
  const QueryStatsRow* dropper = FindRow(rows, "dropper");
  ASSERT_NE(dropper, nullptr);
  ExpectResultsEqual(ToReference(by_query[dropper->ord]), drop_oracle,
                     prefix + "dropper");
  EXPECT_EQ(dropper->late.tuples, expected_late);
  EXPECT_EQ(dropper->late.dropped, expected_late);
  EXPECT_EQ(dropper->late.joined, 0u);

  const QueryStatsRow* sider = FindRow(rows, "sider");
  ASSERT_NE(sider, nullptr);
  ExpectResultsEqual(ToReference(by_query[sider->ord]), drop_oracle,
                     prefix + "sider");
  EXPECT_EQ(sider->late.tuples, expected_late);
  EXPECT_EQ(sider->late.side_channel, expected_late);
  EXPECT_EQ(late_sink.count(), expected_late)
      << "side channel must receive every violator exactly once";

  // Best-effort: every base emits once; per-base matches bracketed by
  // the on-time oracle below and full knowledge above.
  const QueryStatsRow* main_row = FindRow(rows, "main");
  ASSERT_NE(main_row, nullptr);
  EXPECT_EQ(main_row->late.tuples, expected_late);
  EXPECT_EQ(main_row->late.joined, expected_late);
  EXPECT_EQ(main_row->late.dropped, 0u);
  const auto got = ToReference(by_query[main_row->ord]);
  ASSERT_EQ(got.size(), full_oracle.size()) << prefix + "main cardinality";
  std::map<BaseKey, uint64_t> on_time;
  for (const ReferenceResult& r : drop_oracle) {
    on_time[KeyOf(r.base)] = r.match_count;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(KeyOf(got[i].base), KeyOf(full_oracle[i].base));
    EXPECT_LE(got[i].match_count, full_oracle[i].match_count)
        << prefix << "main: base ts=" << got[i].base.ts << " overcounted";
    const auto it = on_time.find(KeyOf(got[i].base));
    if (it != on_time.end()) {
      EXPECT_GE(got[i].match_count, it->second)
          << prefix << "main: base ts=" << got[i].base.ts
          << " lost on-time matches";
    }
  }
}

// ------------------------------------------ mid-stream add and remove

/// A query added mid-stream serves every later base against the shared
/// index's retained history: its result set is the full-stream oracle
/// restricted to bases that arrived after the add barrier.
TEST_P(MultiQueryEngineTest, MidStreamAddServesRetainedHistory) {
  const EngineKind kind = GetParam();
  const auto events = Generate(TestWorkload(1401));
  const auto arrival = BaseArrivalIndex(events);
  const QuerySpec primary = MakeSpec({400, 0}, AggKind::kSum);
  const QuerySpec mid_spec = MakeSpec({200, 0}, AggKind::kCount);
  const size_t add_at = (events.size() / 2 / kWmEvery) * kWmEvery;

  CollectingSink sink;
  EngineOptions options;
  options.num_joiners = 3;
  auto engine = CreateEngine(kind, primary, options, &sink);
  ASSERT_TRUE(engine->Start().ok());

  WatermarkTracker tracker(primary.lateness_us);
  uint64_t n = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == add_at) {
      ASSERT_TRUE(engine->AddQuery("mid", mid_spec).ok());
    }
    tracker.Observe(events[i].tuple.ts);
    engine->Push(events[i], MonotonicNowUs());
    if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine->Finish();
  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();

  const std::string prefix = std::string(EngineKindName(kind)) + "/";
  auto by_query = SplitByQuery(sink.TakeResults());
  const auto rows = engine->QuerySnapshot();
  const QueryStatsRow* mid = FindRow(rows, "mid");
  ASSERT_NE(mid, nullptr);

  ExpectResultsEqual(ToReference(by_query[0]),
                     Oracle(events, primary),
                     prefix + "primary");
  const auto mid_expected =
      FilterByArrival(Oracle(events, mid_spec),
                      arrival, add_at, events.size());
  ASSERT_GT(mid_expected.size(), 0u);
  // The first post-add bases open windows reaching back across the add
  // barrier; exactness here is what "shared index" buys.
  ExpectResultsEqual(ToReference(by_query[mid->ord]), mid_expected,
                     prefix + "mid");
}

/// A removed query drains: every base registered before the remove
/// barrier still finalizes (exactly), no later base is served.
TEST_P(MultiQueryEngineTest, MidStreamRemoveDrainsAndStops) {
  const EngineKind kind = GetParam();
  const auto events = Generate(TestWorkload(1402));
  const auto arrival = BaseArrivalIndex(events);
  const QuerySpec primary = MakeSpec({400, 0}, AggKind::kSum);
  const QuerySpec tmp_spec = MakeSpec({300, 0}, AggKind::kSum);
  const size_t remove_at = (events.size() / 2 / kWmEvery) * kWmEvery;

  CollectingSink sink;
  EngineOptions options;
  options.num_joiners = 3;
  auto engine = CreateEngine(kind, primary, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  ASSERT_TRUE(engine->AddQuery("tmp", tmp_spec).ok());

  WatermarkTracker tracker(primary.lateness_us);
  uint64_t n = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == remove_at) {
      ASSERT_TRUE(engine->RemoveQuery("tmp").ok());
    }
    tracker.Observe(events[i].tuple.ts);
    engine->Push(events[i], MonotonicNowUs());
    if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine->Finish();
  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();

  const std::string prefix = std::string(EngineKindName(kind)) + "/";
  auto by_query = SplitByQuery(sink.TakeResults());
  const auto rows = engine->QuerySnapshot();
  const QueryStatsRow* tmp = FindRow(rows, "tmp");
  ASSERT_NE(tmp, nullptr);
  EXPECT_FALSE(tmp->active);

  ExpectResultsEqual(ToReference(by_query[0]),
                     Oracle(events, primary),
                     prefix + "primary");
  const auto tmp_expected =
      FilterByArrival(Oracle(events, tmp_spec),
                      arrival, 0, remove_at);
  ASSERT_GT(tmp_expected.size(), 0u);
  ExpectResultsEqual(ToReference(by_query[tmp->ord]), tmp_expected,
                     prefix + "tmp");
  EXPECT_EQ(tmp->results, tmp_expected.size());
}

INSTANTIATE_TEST_SUITE_P(Engines, MultiQueryEngineTest,
                         ::testing::Values(EngineKind::kKeyOij,
                                           EngineKind::kScaleOij),
                         [](const auto& info) {
                           std::string name(EngineKindName(info.param));
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------ churn under ingest

/// Catalog add/remove churn concurrent with ingest (the TSan target:
/// every catalog change races a busy joiner pool through the control
/// barriers). Every churned query's window is diffed exactly over its
/// own [add, remove) lifetime.
TEST(MultiQueryChurnTest, CatalogChurnUnderIngestStaysExact) {
  WorkloadSpec w = TestWorkload(1501);
  w.total_tuples = 40'000;
  const auto events = Generate(w);
  const auto arrival = BaseArrivalIndex(events);
  const QuerySpec primary = MakeSpec({400, 0}, AggKind::kSum);

  struct Churned {
    std::string id;
    QuerySpec spec;
    size_t added_at = 0;
    size_t removed_at = 0;  // events.size() if never removed
  };
  std::vector<Churned> churned;

  CollectingSink sink;
  EngineOptions options;
  options.num_joiners = 3;
  auto engine = CreateEngine(EngineKind::kScaleOij, primary, options, &sink);
  ASSERT_TRUE(engine->Start().ok());

  WatermarkTracker tracker(primary.lateness_us);
  uint64_t n = 0;
  size_t next_add = 0;
  size_t next_remove = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i % 2048 == 0 && i > 0) {
      Churned c;
      c.id = "churn-" + std::to_string(next_add);
      c.spec = MakeSpec({200, 0}, (next_add % 2 == 0) ? AggKind::kSum
                                                      : AggKind::kCount);
      c.added_at = i;
      c.removed_at = events.size();
      ASSERT_TRUE(engine->AddQuery(c.id, c.spec).ok()) << c.id;
      churned.push_back(c);
      ++next_add;
    }
    if (i % 4096 == 0 && next_remove < churned.size() &&
        churned[next_remove].added_at < i) {
      churned[next_remove].removed_at = i;
      ASSERT_TRUE(engine->RemoveQuery(churned[next_remove].id).ok());
      ++next_remove;
    }
    tracker.Observe(events[i].tuple.ts);
    engine->Push(events[i], MonotonicNowUs());
    if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine->Finish();
  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();
  ASSERT_GT(churned.size(), 8u);
  ASSERT_GT(next_remove, 2u);

  auto by_query = SplitByQuery(sink.TakeResults());
  const auto rows = engine->QuerySnapshot();
  ASSERT_EQ(rows.size(), 1 + churned.size());

  ExpectResultsEqual(ToReference(by_query[0]),
                     Oracle(events, primary),
                     "churn/primary");
  for (const Churned& c : churned) {
    const QueryStatsRow* row = FindRow(rows, c.id);
    ASSERT_NE(row, nullptr) << c.id;
    EXPECT_EQ(row->active, c.removed_at == events.size()) << c.id;
    const auto expected =
        FilterByArrival(Oracle(events, c.spec),
                        arrival, c.added_at, c.removed_at);
    ExpectResultsEqual(ToReference(by_query[row->ord]), expected,
                       "churn/" + c.id);
  }
}

// --------------------------------------------- catalog crash recovery

/// Three standing queries (one removed mid-prefix), a kill -9-style
/// crash on a watermark boundary under fsync=per_batch, a second engine
/// recovering from the same WAL directory: the catalog must come back —
/// specs, ordinals, the removed query's inactive state — and all three
/// result sets (pre-crash union post-crash) must be exact.
TEST(MultiQueryRecoveryTest, CrashRecoveryRestoresCatalogAndResultSets) {
  const auto events = Generate(TestWorkload(1601));
  const auto arrival = BaseArrivalIndex(events);
  const QuerySpec primary = MakeSpec({400, 0}, AggKind::kSum);
  const QuerySpec narrow_spec = MakeSpec({200, 0}, AggKind::kSum);
  const QuerySpec count_spec = MakeSpec({400, 0}, AggKind::kCount);
  const size_t remove_at = (events.size() / 4 / kWmEvery) * kWmEvery;
  const size_t crash_at = (events.size() / 2 / kWmEvery) * kWmEvery;

  TempDir dir;
  EngineOptions options;
  options.num_joiners = 3;
  options.durability.wal_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kPerBatch;
  options.durability.snapshot_interval_records = 3'000;

  // Per-query union across both incarnations; replayed duplicates must
  // agree byte-for-byte in the durable-exact regime.
  std::map<std::string, std::map<BaseKey, JoinResult>> got;
  auto accumulate = [&got](const std::vector<QueryStatsRow>& rows,
                           std::vector<JoinResult> results,
                           const std::string& label) {
    std::map<uint32_t, std::string> ids;
    for (const QueryStatsRow& row : rows) ids[row.ord] = row.id;
    for (const JoinResult& r : results) {
      ASSERT_TRUE(ids.count(r.query)) << label << ": unknown ordinal";
      auto& acc = got[ids[r.query]];
      const auto [it, inserted] = acc.emplace(KeyOf(r.base), r);
      if (!inserted) {
        EXPECT_EQ(it->second.match_count, r.match_count)
            << label << ": replayed duplicate disagrees (query "
            << ids[r.query] << ", base ts=" << r.base.ts << ")";
      }
    }
  };

  WatermarkTracker tracker(primary.lateness_us);
  uint64_t n = 0;
  {
    CollectingSink sink;
    auto engine =
        CreateEngine(EngineKind::kScaleOij, primary, options, &sink);
    ASSERT_TRUE(engine->Start().ok());
    ASSERT_TRUE(engine->AddQuery("narrow", narrow_spec).ok());
    ASSERT_TRUE(engine->AddQuery("counts", count_spec).ok());
    for (size_t i = 0; i < crash_at; ++i) {
      if (i == remove_at) {
        ASSERT_TRUE(engine->RemoveQuery("counts").ok());
      }
      tracker.Observe(events[i].tuple.ts);
      engine->Push(events[i], MonotonicNowUs());
      if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
    }
    const auto rows = engine->QuerySnapshot();
    static_cast<ParallelEngineBase*>(engine.get())->CrashForTest();
    accumulate(rows, sink.TakeResults(), "pre-crash");
  }

  CollectingSink sink2;
  auto engine2 =
      CreateEngine(EngineKind::kScaleOij, primary, options, &sink2);
  ASSERT_TRUE(engine2->Start().ok());
  ASSERT_TRUE(engine2->Recover().ok());
  ASSERT_FALSE(engine2->Recovering());

  // The catalog survived the crash: same ids, same ordinals, same
  // specs, and the removed query is back as inactive.
  const auto recovered = engine2->QuerySnapshot();
  ASSERT_EQ(recovered.size(), 3u);
  const QueryStatsRow* narrow = FindRow(recovered, "narrow");
  ASSERT_NE(narrow, nullptr);
  EXPECT_TRUE(narrow->active);
  EXPECT_EQ(narrow->ord, 1u);
  EXPECT_EQ(narrow->spec.window.pre, narrow_spec.window.pre);
  EXPECT_EQ(narrow->spec.agg, narrow_spec.agg);
  const QueryStatsRow* counts = FindRow(recovered, "counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_FALSE(counts->active) << "removal must survive recovery";
  EXPECT_EQ(counts->ord, 2u);

  for (size_t i = crash_at; i < events.size(); ++i) {
    tracker.Observe(events[i].tuple.ts);
    engine2->Push(events[i], MonotonicNowUs());
    if (++n % kWmEvery == 0) engine2->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine2->Finish();
  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();
  accumulate(engine2->QuerySnapshot(), sink2.TakeResults(), "recovered");

  const auto check = [&](const std::string& id,
                         std::vector<ReferenceResult> expected) {
    SortResults(&expected);
    std::vector<ReferenceResult> union_got;
    for (const auto& [key, r] : got[id]) {
      union_got.push_back({r.base, r.aggregate, r.match_count});
    }
    SortResults(&union_got);
    ExpectResultsEqual(union_got, expected, "recovery/" + id);
  };
  check("main", Oracle(events, primary));
  check("narrow", Oracle(events, narrow_spec));
  check("counts",
        FilterByArrival(Oracle(events, count_spec),
                        arrival, 0, remove_at));
}

}  // namespace
}  // namespace oij
