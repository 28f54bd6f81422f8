// Columnar batch-join kernel tests (src/col/, DESIGN.md §5h):
//
//   * transpose round-trip fuzz over random schemas, including NaN /
//     signalling-NaN payload bit patterns and all-zero "null" rows;
//   * ColumnBuffer arena slab loans: acquisition, heap migration past
//     one slab, and return of the slab to the arena's empty pool;
//   * sweep-merge window slices vs a brute-force filter on adversarial
//     timestamp patterns (duplicates on boundaries, ±1 edges);
//   * GatherRange vs TimeTravelIndex::ForEachInRange equivalence;
//   * SIMD-vs-portable bit-exactness of the slice aggregation kernels;
//   * engine differentials: columnar on vs off vs the policy-aware
//     reference oracle, across both parallel index engines, lateness
//     policies, aggregate kinds, multi-query catalogs, the NaN-payload
//     scalar fallback, and a crash-recovery replay;
//   * Scale-OIJ's delta sweep: bit-identical to the scalar path on
//     shared teams, keys missing from a member, gaps wider than the
//     window, equal-ts window edges, FOL > 0, single-base drains, and
//     sum/count/avg under every late policy.
//   * Scale-OIJ's per-key pending runs: superseded key heads, equal
//     timestamps within a key, a lagging team member, two windows over
//     the same keys, eager emit, disorder equal to lateness (frequent
//     inbox merges), and snapshot recovery with many keys pending and
//     with bases in the inbox — each bit-identical to the scalar path;
//     plus a late best-effort base that is due on arrival.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "col/column_batch.h"
#include "col/sweep_merge.h"
#include "col/vector_agg.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/hash.h"
#include "core/engine_factory.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "mem/node_arena.h"
#include "row/columnar.h"
#include "row/row.h"
#include "row/schema.h"
#include "skiplist/time_travel_index.h"
#include "stream/generator.h"

namespace oij {
namespace {

// ------------------------------------------------------------ helpers

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

struct EngineRun {
  std::vector<ReferenceResult> results;
  EngineStats stats;
};

EngineRun RunOverEvents(EngineKind kind,
                        const std::vector<StreamEvent>& events,
                        const QuerySpec& spec, EngineOptions options,
                        uint64_t wm_every) {
  CollectingSink sink;
  auto engine = CreateEngine(kind, spec, options, &sink);
  EXPECT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(spec.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % wm_every == 0) engine->SignalWatermark(tracker.watermark());
  }
  EngineRun run;
  run.stats = engine->Finish();
  for (const JoinResult& r : sink.TakeResults()) {
    run.results.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&run.results);
  return run;
}

/// NaN-tolerant comparison: aggregates must both be NaN or agree within
/// tolerance; match counts must agree exactly.
void ExpectResultsEqual(const std::vector<ReferenceResult>& got,
                        const std::vector<ReferenceResult>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << ": result cardinality";
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const bool agg_ok =
        std::isnan(want[i].aggregate)
            ? std::isnan(got[i].aggregate)
            : std::abs(got[i].aggregate - want[i].aggregate) < 1e-6;
    if (got[i].base != want[i].base ||
        got[i].match_count != want[i].match_count || !agg_ok) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": result " << i
                      << " differs: base ts=" << got[i].base.ts
                      << " key=" << got[i].base.key
                      << " got(count=" << got[i].match_count
                      << ", agg=" << got[i].aggregate
                      << ") want(count=" << want[i].match_count
                      << ", agg=" << want[i].aggregate << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

WorkloadSpec TestWorkload(uint64_t seed, uint64_t keys = 8,
                          Timestamp disorder = 50) {
  WorkloadSpec w;
  w.num_keys = keys;
  w.window = IntervalWindow{400, 0};
  w.lateness_us = disorder;
  w.disorder_bound_us = disorder;
  w.event_rate_per_sec = 1'000'000;  // integer us spacing: unique ts
  w.total_tuples = 30'000;
  w.probe_fraction = 0.5;
  w.seed = seed;
  return w;
}

QuerySpec TestQuery(AggKind agg = AggKind::kSum, Timestamp lateness = 50,
                    IntervalWindow window = {400, 0},
                    LatePolicy policy = LatePolicy::kBestEffortJoin) {
  QuerySpec q;
  q.window = window;
  q.lateness_us = lateness;
  q.agg = agg;
  q.emit_mode = EmitMode::kWatermark;
  q.late_policy = policy;
  return q;
}

// --------------------------------------- ColumnarBlock round-trip fuzz

TEST(ColumnarBlockTest, TransposeRoundTripFuzz) {
  std::mt19937_64 rng(0xc01u);
  const std::vector<FieldType> kTypes = {
      FieldType::kInt64, FieldType::kDouble, FieldType::kTimestamp};
  for (int iter = 0; iter < 50; ++iter) {
    // Random schema: 1..6 fields of random types.
    const size_t num_fields = 1 + rng() % 6;
    std::vector<Field> fields;
    for (size_t f = 0; f < num_fields; ++f) {
      fields.push_back(Field{std::string("f").append(std::to_string(f)),
                             kTypes[rng() % kTypes.size()]});
    }
    Schema schema(std::move(fields));
    ColumnarBlock block(&schema);
    RowBuilder builder(&schema);

    // Random rows, salted with hostile payload bit patterns: quiet and
    // negative NaN, infinities, -0.0, and all-zero "null" rows.
    const size_t num_rows = 1 + rng() % 64;
    std::vector<std::vector<uint8_t>> originals;
    for (size_t r = 0; r < num_rows; ++r) {
      builder.Reset();
      if (rng() % 8 != 0) {  // one in eight rows stays all-zero
        for (size_t f = 0; f < num_fields; ++f) {
          const int idx = static_cast<int>(f);
          switch (schema.field(f).type) {
            case FieldType::kInt64:
              builder.SetInt64(idx, static_cast<int64_t>(rng()));
              break;
            case FieldType::kTimestamp:
              builder.SetTimestamp(idx, static_cast<Timestamp>(rng()));
              break;
            case FieldType::kDouble: {
              double v;
              switch (rng() % 6) {
                case 0:
                  v = std::numeric_limits<double>::quiet_NaN();
                  break;
                case 1:
                  v = -std::numeric_limits<double>::quiet_NaN();
                  break;
                case 2:
                  v = std::numeric_limits<double>::infinity();
                  break;
                case 3:
                  v = -0.0;
                  break;
                default: {
                  // Any bit pattern is a valid double to transpose.
                  const uint64_t bits = rng();
                  std::memcpy(&v, &bits, 8);
                  break;
                }
              }
              builder.SetDouble(idx, v);
              break;
            }
          }
        }
      }
      originals.push_back(builder.row());
      block.AppendRow(builder.row().data());
    }

    ASSERT_EQ(block.num_rows(), num_rows);
    std::vector<uint8_t> out(schema.row_bytes());
    for (size_t r = 0; r < num_rows; ++r) {
      block.MaterializeRow(r, out.data());
      EXPECT_EQ(std::memcmp(out.data(), originals[r].data(),
                            schema.row_bytes()),
                0)
          << "iter " << iter << " row " << r << ": round trip not bit-exact";
      // Typed accessors agree with a RowView over the original bytes.
      RowView view(&schema, originals[r].data());
      for (size_t f = 0; f < num_fields; ++f) {
        const int idx = static_cast<int>(f);
        if (schema.field(f).type == FieldType::kDouble) {
          uint64_t a;
          uint64_t b;
          const double da = block.GetDouble(f, r);
          const double db = view.GetDouble(idx);
          std::memcpy(&a, &da, 8);
          std::memcpy(&b, &db, 8);
          EXPECT_EQ(a, b);
        } else {
          EXPECT_EQ(block.GetInt64(f, r), view.GetInt64(idx));
        }
      }
    }

    // AppendRow(RowView) produces identical columns.
    ColumnarBlock via_view(&schema);
    for (const auto& row : originals) {
      via_view.AppendRow(RowView(&schema, row.data()));
    }
    for (size_t c = 0; c < num_fields; ++c) {
      EXPECT_EQ(std::memcmp(via_view.ColumnData(c), block.ColumnData(c),
                            num_rows * 8),
                0);
    }
  }
}

// ----------------------------------------------- ColumnBuffer slab loans

TEST(ColumnBufferTest, LoansSlabThenMigratesToHeap) {
  NodeArena arena;
  constexpr size_t kSlabCap = NodeArena::kSlabDataBytes / sizeof(double);
  {
    col::ColumnBuffer<double> buf(&arena);
    buf.PushBack(1.5);
    EXPECT_TRUE(buf.arena_backed());
    EXPECT_EQ(arena.snapshot().slab_loans, 1u);
    // Fill the whole slab: no migration yet.
    for (size_t i = 1; i < kSlabCap; ++i) {
      buf.PushBack(static_cast<double>(i));
    }
    EXPECT_TRUE(buf.arena_backed());
    EXPECT_EQ(buf.size(), kSlabCap);
    // One past the slab migrates to the heap; contents survive and the
    // slab goes back to the arena's empty pool.
    buf.PushBack(-2.0);
    EXPECT_FALSE(buf.arena_backed());
    EXPECT_EQ(buf.size(), kSlabCap + 1);
    EXPECT_EQ(buf[0], 1.5);
    EXPECT_EQ(buf[kSlabCap - 1], static_cast<double>(kSlabCap - 1));
    EXPECT_EQ(buf[kSlabCap], -2.0);
    EXPECT_GE(arena.EmptySlabCount(), 1u);
  }
  // A fresh buffer recycles the returned slab instead of growing the
  // arena.
  const uint64_t reserved_before = arena.snapshot().reserved_bytes;
  col::ColumnBuffer<double> again(&arena);
  again.PushBack(3.0);
  EXPECT_TRUE(again.arena_backed());
  EXPECT_EQ(arena.snapshot().reserved_bytes, reserved_before);
}

TEST(ColumnBufferTest, ClearKeepsBackingStore) {
  NodeArena arena;
  col::ColumnBuffer<Timestamp> buf(&arena);
  for (int i = 0; i < 100; ++i) buf.PushBack(i);
  EXPECT_TRUE(buf.arena_backed());
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.arena_backed());  // reuse across drains, no churn
  buf.PushBack(7);
  EXPECT_EQ(buf[0], 7);
  // Heap mode (no arena) works the same.
  col::ColumnBuffer<double> heap;
  for (int i = 0; i < 1000; ++i) heap.PushBack(i * 0.5);
  EXPECT_FALSE(heap.arena_backed());
  EXPECT_EQ(heap[999], 999 * 0.5);
}

// ------------------------------------------- sweep merge: window slices

/// Brute-force oracle for one base's slice.
col::BaseSlice BruteSlice(Timestamp base_ts, IntervalWindow w,
                          const std::vector<Timestamp>& probe_ts) {
  col::BaseSlice s;
  const Timestamp start = w.start_for(base_ts);
  const Timestamp end = w.end_for(base_ts);
  uint32_t i = 0;
  while (i < probe_ts.size() && probe_ts[i] < start) ++i;
  s.lo = i;
  while (i < probe_ts.size() && probe_ts[i] <= end) ++i;
  s.hi = i;
  return s;
}

TEST(SweepMergeTest, SlicesMatchBruteForceOnAdversarialPatterns) {
  std::mt19937_64 rng(0x51eeu);
  for (int iter = 0; iter < 200; ++iter) {
    const IntervalWindow window{static_cast<Timestamp>(rng() % 20),
                                static_cast<Timestamp>(rng() % 20)};
    // Probe timestamps: sorted, dense, with duplicate runs — so window
    // boundaries frequently land exactly on (runs of) equal timestamps.
    std::vector<Timestamp> probes;
    Timestamp t = static_cast<Timestamp>(rng() % 5);
    const size_t num_probes = rng() % 50;
    for (size_t i = 0; i < num_probes; ++i) {
      probes.push_back(t);
      if (rng() % 3 != 0) t += static_cast<Timestamp>(rng() % 3);
    }
    // Base timestamps: sorted, overlapping the probe range, including
    // exact boundary hits and ±1 off-by-one neighbours.
    std::vector<Timestamp> bases;
    Timestamp bt = 0;
    const size_t num_bases = 1 + rng() % 20;
    for (size_t i = 0; i < num_bases; ++i) {
      bt += static_cast<Timestamp>(rng() % 4);
      switch (rng() % 4) {
        case 0:
          bases.push_back(bt);
          break;
        case 1:
          bases.push_back(bt + 1);
          break;
        case 2:
          bases.push_back(bt > 0 ? bt - 1 : bt);
          break;
        default:
          bases.push_back(probes.empty()
                              ? bt
                              : probes[rng() % probes.size()] + window.pre);
          break;
      }
    }
    std::sort(bases.begin(), bases.end());

    std::vector<col::BaseSlice> got(bases.size());
    col::ComputeWindowSlices(bases.data(), bases.size(), window,
                             probes.data(), probes.size(), got.data());
    for (size_t i = 0; i < bases.size(); ++i) {
      const col::BaseSlice want = BruteSlice(bases[i], window, probes);
      EXPECT_EQ(got[i].lo, want.lo)
          << "iter " << iter << " base " << i << " ts=" << bases[i];
      EXPECT_EQ(got[i].hi, want.hi)
          << "iter " << iter << " base " << i << " ts=" << bases[i];
    }
  }
}

TEST(SweepMergeTest, EmptyProbesAndDisjointWindows) {
  const IntervalWindow window{5, 0};
  const std::vector<Timestamp> bases = {10, 100, 1000};
  std::vector<col::BaseSlice> slices(bases.size());
  // No probes at all.
  col::ComputeWindowSlices(bases.data(), bases.size(), window, nullptr, 0,
                           slices.data());
  for (const auto& s : slices) EXPECT_EQ(s.lo, s.hi);
  // Probes entirely between the windows: every slice is empty but the
  // cursors must never regress.
  const std::vector<Timestamp> probes = {30, 40, 50, 500, 600};
  col::ComputeWindowSlices(bases.data(), bases.size(), window, probes.data(),
                           probes.size(), slices.data());
  for (size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].lo, slices[i].hi) << i;
    if (i > 0) {
      EXPECT_GE(slices[i].lo, slices[i - 1].lo);
    }
  }
}

// --------------------------------------- GatherRange vs ForEachInRange

TEST(SweepMergeTest, GatherRangeMatchesForEachInRange) {
  std::mt19937_64 rng(0x6a7eu);
  NodeArena arena;
  TimeTravelIndex index(arena);
  for (int i = 0; i < 2000; ++i) {
    Tuple t;
    t.key = static_cast<Key>(rng() % 5);
    t.ts = static_cast<Timestamp>(rng() % 500);
    t.payload = static_cast<double>(rng() % 1000) * 0.25;
    index.Insert(t);
  }
  col::ProbeColumns probes;
  for (int iter = 0; iter < 100; ++iter) {
    const Key key = static_cast<Key>(rng() % 6);  // includes a missing key
    Timestamp lo = static_cast<Timestamp>(rng() % 520);
    Timestamp hi = static_cast<Timestamp>(rng() % 520);
    if (lo > hi) std::swap(lo, hi);

    std::vector<Timestamp> want_ts;
    std::vector<double> want_payload;
    index.ForEachInRange(key, lo, hi, [&](const Tuple& t) {
      want_ts.push_back(t.ts);
      want_payload.push_back(t.payload);
    });

    probes.Clear();
    size_t touched = 0;
    const size_t gathered =
        col::GatherRange(index.FindLayer(key), lo, hi, &probes,
                         [&](const Tuple&) { ++touched; });
    ASSERT_EQ(gathered, want_ts.size()) << "key=" << key << " [" << lo
                                        << "," << hi << "]";
    EXPECT_EQ(touched, gathered);
    EXPECT_EQ(probes.size(), gathered);
    probes.EnsureSorted();  // single source: must already be sorted
    for (size_t i = 0; i < gathered; ++i) {
      EXPECT_EQ(probes.ts()[i], want_ts[i]);
      EXPECT_EQ(probes.payload()[i], want_payload[i]);
    }
  }
}

TEST(ProbeColumnsTest, EnsureSortedMergesMultipleSources) {
  // Two ts-sorted sources appended back to back (as a team gather does):
  // EnsureSorted must produce one globally sorted sequence, keeping the
  // payload paired with its timestamp.
  col::ProbeColumns probes;
  for (Timestamp t = 0; t < 50; t += 2) probes.Append(t, t * 1.0);
  for (Timestamp t = 1; t < 50; t += 2) probes.Append(t, t * 1.0);
  probes.EnsureSorted();
  ASSERT_EQ(probes.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(probes.ts()[i], static_cast<Timestamp>(i));
    EXPECT_EQ(probes.payload()[i], static_cast<double>(i));
  }
  // all_finite flips on NaN and resets on Clear.
  EXPECT_TRUE(probes.all_finite());
  probes.Append(100, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(probes.all_finite());
  probes.Clear();
  EXPECT_TRUE(probes.all_finite());
}

// ------------------------------------ SIMD vs portable bit-exactness

TEST(VectorAggTest, SimdMatchesPortableBitExactly) {
  std::mt19937_64 rng(0x51u);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                   size_t{5}, size_t{7}, size_t{8}, size_t{15}, size_t{16},
                   size_t{17}, size_t{63}, size_t{64}, size_t{1000},
                   size_t{4097}}) {
    std::vector<double> v(n);
    for (double& x : v) x = dist(rng);
    const col::SliceAgg a = col::AggregateSlice(v.data(), n);
    const col::SliceAgg b = col::AggregateSlicePortable(v.data(), n);
    EXPECT_EQ(a.count, b.count) << "n=" << n;
    uint64_t abits;
    uint64_t bbits;
    std::memcpy(&abits, &a.sum, 8);
    std::memcpy(&bbits, &b.sum, 8);
    EXPECT_EQ(abits, bbits) << "n=" << n << ": sum not bit-exact";
    if (n > 0) {
      EXPECT_EQ(a.min, b.min) << "n=" << n;
      EXPECT_EQ(a.max, b.max) << "n=" << n;
    }
  }
}

TEST(VectorAggTest, AggregatesMatchScalarReference) {
  std::mt19937_64 rng(0xa9u);
  std::uniform_real_distribution<double> dist(-100.0, 100.0);
  std::vector<double> v(777);
  for (double& x : v) x = dist(rng);
  const col::SliceAgg a = col::AggregateSlice(v.data(), v.size());
  AggState ref;
  for (double x : v) ref.Add(x);
  EXPECT_EQ(a.count, ref.count);
  EXPECT_NEAR(a.sum, ref.sum, 1e-9 * std::abs(ref.sum) + 1e-9);
  EXPECT_EQ(a.min, ref.min);
  EXPECT_EQ(a.max, ref.max);
  // ToAggState round-trips, including the empty case.
  const AggState empty = col::SliceAgg{}.ToAggState();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.Result(AggKind::kSum), 0.0);
}

// --------------------------------- engine differentials: on vs off vs oracle

constexpr uint64_t kWmEvery = 512;  // long drains: batches well past 16

class ColumnarDifferentialTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, LatePolicy>> {};

TEST_P(ColumnarDifferentialTest, OnOffOracleAgreeAcrossPolicies) {
  const auto [kind, policy] = GetParam();
  WorkloadSpec w = TestWorkload(301);
  if (policy != LatePolicy::kBestEffortJoin) {
    // Give the lateness gate something to act on.
    w.late_flood_fraction = 0.10;
    w.late_flood_extra_us = 60;
  }
  const auto events = Generate(w);
  const QuerySpec q = TestQuery(AggKind::kSum, 50, {400, 0}, policy);
  auto expected = ReferenceJoinWithPolicy(events, q, kWmEvery);
  SortResults(&expected);

  EngineOptions on;
  on.num_joiners = 3;
  on.columnar_batch = true;
  EngineOptions off = on;
  off.columnar_batch = false;

  const auto run_on = RunOverEvents(kind, events, q, on, kWmEvery);
  const auto run_off = RunOverEvents(kind, events, q, off, kWmEvery);

  const std::string label = std::string(EngineKindName(kind)) + "/" +
                            std::string(LatePolicyName(policy));
  ExpectResultsEqual(run_on.results, expected, label + "/on-vs-oracle");
  ExpectResultsEqual(run_off.results, expected, label + "/off-vs-oracle");
  // The flag-on run must actually have exercised the kernels.
  EXPECT_GT(run_on.stats.columnar_groups, 0u) << label;
  EXPECT_GT(run_on.stats.columnar_bases, 0u) << label;
  EXPECT_EQ(run_off.stats.columnar_groups, 0u) << label;
}

INSTANTIATE_TEST_SUITE_P(
    EnginesTimesPolicies, ColumnarDifferentialTest,
    ::testing::Combine(::testing::Values(EngineKind::kKeyOij,
                                         EngineKind::kScaleOij),
                       ::testing::Values(LatePolicy::kBestEffortJoin,
                                         LatePolicy::kDropAndCount,
                                         LatePolicy::kSideChannel)),
    [](const auto& info) {
      std::string name =
          std::string(EngineKindName(std::get<0>(info.param))) + "_" +
          std::string(LatePolicyName(std::get<1>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class ColumnarAggTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(ColumnarAggTest, EveryOperatorExactWithColumnarOn) {
  // Exercises all three columnar aggregation modes: prefix sums
  // (sum/count/avg incremental), full SliceAgg (min/max incremental via
  // the NI config, and the full-scan config below).
  const AggKind agg = GetParam();
  const WorkloadSpec w = TestWorkload(311);
  const QuerySpec q = TestQuery(agg);
  const auto events = Generate(w);
  auto expected = ReferenceJoinWithPolicy(events, q, kWmEvery);
  SortResults(&expected);

  for (bool incremental : {true, false}) {
    EngineOptions options;
    options.num_joiners = 3;
    options.incremental_agg = incremental;
    const auto run =
        RunOverEvents(EngineKind::kScaleOij, events, q, options, kWmEvery);
    ExpectResultsEqual(run.results, expected,
                       std::string(AggKindName(agg)) +
                           (incremental ? "/inc" : "/full"));
    EXPECT_GT(run.stats.columnar_groups, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAggs, ColumnarAggTest,
                         ::testing::Values(AggKind::kSum, AggKind::kCount,
                                           AggKind::kAvg, AggKind::kMin,
                                           AggKind::kMax),
                         [](const auto& info) {
                           return std::string(AggKindName(info.param));
                         });

TEST(ColumnarEngineTest, MixedBatchSizesInterleaveScalarAndColumnar) {
  // A small wm_every keeps many drains under columnar_min_run, so scalar
  // replays and columnar groups interleave within one run — both must
  // compose exactly, and the incremental states must survive the
  // hand-offs (Reseed / Invalidate) between the two paths.
  const WorkloadSpec w = TestWorkload(321, /*keys=*/4);
  const QuerySpec q = TestQuery();
  const auto events = Generate(w);

  for (uint64_t wm_every : {32u, 64u, 128u}) {
    auto expected = ReferenceJoinWithPolicy(events, q, wm_every);
    SortResults(&expected);
    for (EngineKind kind :
         {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
      EngineOptions options;
      options.num_joiners = 2;
      const auto run = RunOverEvents(kind, events, q, options, wm_every);
      ExpectResultsEqual(run.results, expected,
                         std::string(EngineKindName(kind)) + "/wm" +
                             std::to_string(wm_every));
    }
  }
}

TEST(ColumnarEngineTest, FollowingWindowAndWideWindowExact) {
  const WorkloadSpec w = TestWorkload(331);
  const auto events = Generate(w);
  for (IntervalWindow window :
       {IntervalWindow{200, 150}, IntervalWindow{1200, 0},
        IntervalWindow{0, 300}}) {
    const QuerySpec q = TestQuery(AggKind::kSum, 50, window);
    auto expected = ReferenceJoinWithPolicy(events, q, kWmEvery);
    SortResults(&expected);
    for (EngineKind kind :
         {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
      EngineOptions options;
      options.num_joiners = 2;
      const auto run = RunOverEvents(kind, events, q, options, kWmEvery);
      ExpectResultsEqual(run.results, expected,
                         std::string(EngineKindName(kind)) + "/pre" +
                             std::to_string(window.pre) + "+fol" +
                             std::to_string(window.fol));
      EXPECT_GT(run.stats.columnar_groups, 0u);
    }
  }
}

// ------------------------------------------------ delta sweep (Scale-OIJ)

/// Scale-OIJ options that put every key in one partition and rebalance
/// often, so the partition's team grows to several members and every
/// sweep walks more than one index.
EngineOptions SharedTeamOptions(bool columnar) {
  EngineOptions options;
  options.num_joiners = 3;
  options.num_partitions = 1;
  options.rebalance_interval_events = 256;
  options.columnar_batch = columnar;
  return options;
}

/// The columnar run's results must equal the scalar run's bit for bit
/// (both sorted by base).
void ExpectBitIdentical(const std::vector<ReferenceResult>& on,
                        const std::vector<ReferenceResult>& off,
                        const std::string& label) {
  EXPECT_EQ(on.size(), off.size()) << label;
  size_t mismatches = 0;
  for (size_t i = 0; i < std::min(on.size(), off.size()); ++i) {
    const ReferenceResult& a = on[i];
    const ReferenceResult& b = off[i];
    if (a.base != b.base || a.match_count != b.match_count ||
        std::bit_cast<uint64_t>(a.aggregate) !=
            std::bit_cast<uint64_t>(b.aggregate)) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": on/off differ at base ts=" << a.base.ts
                      << " key=" << a.base.key << ": " << a.aggregate
                      << " vs " << b.aggregate;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label << "/on-vs-off bits";
}

/// Runs `events` through Scale-OIJ with the columnar path on and off.
/// The on run must sweep every base and agree with the off run bit for
/// bit; both must match the policy-aware oracle within tolerance.
/// Returns the on run's stats.
EngineStats ExpectSweepMatchesScalar(const std::vector<StreamEvent>& events,
                                     const QuerySpec& q, uint64_t wm_every,
                                     const std::string& label) {
  auto expected = ReferenceJoinWithPolicy(events, q, wm_every);
  SortResults(&expected);
  const auto on = RunOverEvents(EngineKind::kScaleOij, events, q,
                                SharedTeamOptions(true), wm_every);
  const auto off = RunOverEvents(EngineKind::kScaleOij, events, q,
                                 SharedTeamOptions(false), wm_every);
  ExpectResultsEqual(on.results, expected, label + "/on-vs-oracle");
  ExpectResultsEqual(off.results, expected, label + "/off-vs-oracle");
  EXPECT_EQ(on.stats.columnar_bases, on.stats.results) << label;
  EXPECT_GT(on.stats.columnar_groups, 0u) << label;
  EXPECT_GT(on.stats.rebalances, 0u) << label << ": team never grew";
  EXPECT_EQ(on.stats.visited, off.stats.visited) << label;
  EXPECT_EQ(on.stats.matched, off.stats.matched) << label;
  ExpectBitIdentical(on.results, off.results, label);
  return on.stats;
}

StreamEvent MakeEvent(StreamId stream, Timestamp ts, Key key,
                      double payload) {
  StreamEvent ev;
  ev.stream = stream;
  ev.tuple.ts = ts;
  ev.tuple.key = key;
  ev.tuple.payload = payload;
  return ev;
}

/// Payloads with many significant bits, so any change in the order of
/// the additions and subtractions shows in the sums.
double RoughPayload(std::mt19937_64& rng) {
  return std::uniform_real_distribution<double>(-50.0, 50.0)(rng);
}

TEST(DeltaSweepTest, SharedTeamAndKeysMissingFromMembers) {
  // Key 0 is dense; key 1 has a single probe, so at most one member of
  // the team holds a layer for it; key 2 has bases but no probes, so no
  // member does.
  std::mt19937_64 rng(0x5eedu);
  std::vector<StreamEvent> events;
  for (Timestamp t = 0; t < 12'000; ++t) {
    events.push_back(MakeEvent(StreamId::kProbe, t, 0, RoughPayload(rng)));
    if (t % 3 == 0) events.push_back(MakeEvent(StreamId::kBase, t, 0, 1.0));
    if (t == 5'000) {
      events.push_back(MakeEvent(StreamId::kProbe, t, 1, RoughPayload(rng)));
    }
    if (t % 97 == 0) events.push_back(MakeEvent(StreamId::kBase, t, 1, 1.0));
    if (t % 101 == 0) events.push_back(MakeEvent(StreamId::kBase, t, 2, 1.0));
  }
  for (AggKind agg : {AggKind::kSum, AggKind::kAvg}) {
    const QuerySpec q = TestQuery(agg, /*lateness=*/0, {300, 0});
    ExpectSweepMatchesScalar(events, q, 64,
                             std::string("team/") +
                                 std::string(AggKindName(agg)));
  }
}

TEST(DeltaSweepTest, GapsWiderThanWindowRecomputeInsideOneGroup) {
  // Clusters of bases 200 us apart with a 20 us window: inside one key
  // group the sweep slides within a cluster, recomputes at its first
  // base, and slides again. One drain at Finish puts every base of a
  // key into one group; a short cadence splits clusters across drains.
  std::mt19937_64 rng(0x6a95u);
  std::vector<StreamEvent> events;
  for (Timestamp t = 0; t < 8'000; ++t) {
    events.push_back(
        MakeEvent(StreamId::kProbe, t, static_cast<Key>(t % 2),
                  RoughPayload(rng)));
    const Timestamp phase = t % 200;
    if (phase == 0 || phase == 3 || phase == 7 || phase == 50 ||
        phase == 51) {
      events.push_back(MakeEvent(StreamId::kBase, t, 0, 1.0));
      events.push_back(MakeEvent(StreamId::kBase, t + 1, 1, 1.0));
    }
  }
  const QuerySpec q = TestQuery(AggKind::kSum, /*lateness=*/0, {20, 0});
  for (uint64_t wm_every : {uint64_t{1} << 40, uint64_t{300}}) {
    ExpectSweepMatchesScalar(events, q, wm_every,
                             "gaps/wm" + std::to_string(wm_every));
  }
}

TEST(DeltaSweepTest, EqualTimestampsOnWindowEdgesAndFollowingWindows) {
  // Probes arrive three to a timestamp, every 5 us, and bases sit on the
  // same grid (and one past it): window starts and ends land on runs of
  // equal timestamps, with and without a following part.
  std::mt19937_64 rng(0xed9eu);
  std::vector<StreamEvent> events;
  for (Timestamp t = 0; t < 6'000; ++t) {
    if (t % 5 == 0) {
      for (int i = 0; i < 3; ++i) {
        events.push_back(
            MakeEvent(StreamId::kProbe, t, static_cast<Key>(i % 2),
                      RoughPayload(rng)));
      }
      events.push_back(MakeEvent(StreamId::kBase, t, 0, 1.0));
      events.push_back(MakeEvent(StreamId::kBase, t, 1, 2.0));
    }
    if (t % 15 == 1) events.push_back(MakeEvent(StreamId::kBase, t, 0, 3.0));
  }
  for (IntervalWindow window : {IntervalWindow{20, 0}, IntervalWindow{20, 10},
                                IntervalWindow{0, 10},
                                IntervalWindow{10, 15}}) {
    const QuerySpec q = TestQuery(AggKind::kSum, /*lateness=*/0, window);
    ExpectSweepMatchesScalar(events, q, 40,
                             "edges/pre" + std::to_string(window.pre) +
                                 "+fol" + std::to_string(window.fol));
  }
}

TEST(DeltaSweepTest, SingleBaseDrains) {
  // A punctuation after every arrival (or every third) releases about
  // one base per drain: each drain's group is a single base that
  // continues the running window the previous drain left behind.
  WorkloadSpec w = TestWorkload(361, /*keys=*/3);
  w.total_tuples = 6'000;
  const auto events = Generate(w);
  for (uint64_t wm_every : {uint64_t{1}, uint64_t{3}}) {
    ExpectSweepMatchesScalar(events, TestQuery(AggKind::kCount), wm_every,
                             "single/wm" + std::to_string(wm_every));
  }
}

TEST(DeltaSweepTest, SingleBaseDrainsUnderEagerEmit) {
  // Eager emit drains after every tuple. On an in-order stream with
  // unique timestamps it is exact, so it too must match bit for bit.
  WorkloadSpec w = TestWorkload(371, /*keys=*/3, /*disorder=*/0);
  w.total_tuples = 6'000;
  const auto events = Generate(w);
  QuerySpec q = TestQuery(AggKind::kAvg, /*lateness=*/0);
  q.emit_mode = EmitMode::kEager;
  ExpectSweepMatchesScalar(events, q, 256, "eager");
}

class DeltaSweepPolicyTest
    : public ::testing::TestWithParam<std::tuple<AggKind, LatePolicy>> {};

TEST_P(DeltaSweepPolicyTest, MatchesScalarAndOracle) {
  const auto [agg, policy] = GetParam();
  WorkloadSpec w = TestWorkload(381, /*keys=*/4);
  w.total_tuples = 15'000;
  if (policy != LatePolicy::kBestEffortJoin) {
    // Late tuples are dropped or diverted before routing. Best-effort
    // gets none: a late probe joined mid-sweep is timing dependent.
    w.late_flood_fraction = 0.10;
    w.late_flood_extra_us = 60;
  }
  const auto events = Generate(w);
  const QuerySpec q = TestQuery(agg, 50, {400, 0}, policy);
  ExpectSweepMatchesScalar(events, q, kWmEvery,
                           std::string(AggKindName(agg)) + "/" +
                               std::string(LatePolicyName(policy)));
}

INSTANTIATE_TEST_SUITE_P(
    InvertibleAggsTimesPolicies, DeltaSweepPolicyTest,
    ::testing::Combine(::testing::Values(AggKind::kSum, AggKind::kCount,
                                         AggKind::kAvg),
                       ::testing::Values(LatePolicy::kBestEffortJoin,
                                         LatePolicy::kDropAndCount,
                                         LatePolicy::kSideChannel)),
    [](const auto& info) {
      std::string name =
          std::string(AggKindName(std::get<0>(info.param))) + "_" +
          std::string(LatePolicyName(std::get<1>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DeltaSweepTest, WindowsAroundTheHiWalkBound) {
  // A sweep that resumes a running window places each member's `hi`
  // cursor by walking forward from `lo`, falling back to a seek past 8
  // tuples. Two keys get a probe every microsecond, round-robined over a
  // team of up to three, so a member's share of a window runs from one
  // tuple to dozens as the window widens, and a punctuation every 16
  // arrivals makes most drains resume the previous one's window.
  std::mt19937_64 rng(0x41a1u);
  std::vector<StreamEvent> events;
  for (Timestamp t = 0; t < 6'000; ++t) {
    events.push_back(MakeEvent(StreamId::kProbe, t, 0, RoughPayload(rng)));
    events.push_back(MakeEvent(StreamId::kProbe, t, 1, RoughPayload(rng)));
    if (t % 3 == 0) events.push_back(MakeEvent(StreamId::kBase, t, 0, 1.0));
    if (t % 5 == 0) events.push_back(MakeEvent(StreamId::kBase, t, 1, 1.0));
  }
  for (IntervalWindow window :
       {IntervalWindow{3, 0}, IntervalWindow{10, 0}, IntervalWindow{20, 3},
        IntervalWindow{23, 0}, IntervalWindow{24, 0}, IntervalWindow{26, 1},
        IntervalWindow{30, 0}, IntervalWindow{200, 0}}) {
    const QuerySpec q = TestQuery(AggKind::kSum, /*lateness=*/0, window);
    ExpectSweepMatchesScalar(events, q, 16,
                             "hi-walk/pre" + std::to_string(window.pre) +
                                 "+fol" + std::to_string(window.fol));
  }
}

// ------------------------------------------------ NaN-payload fallback

TEST(ColumnarEngineTest, NaNPayloadsFallBackToScalarPath) {
  // Hand-rolled in-order stream where some probe payloads are NaN: the
  // columnar path must detect them at staging time and take the scalar
  // fallback for those groups, agreeing with the flag-off run on match
  // counts and NaN-ness of aggregates.
  std::vector<StreamEvent> events;
  std::mt19937_64 rng(0x7a11u);
  for (Timestamp t = 0; t < 4000; ++t) {
    StreamEvent ev;
    ev.tuple.ts = t;
    ev.tuple.key = static_cast<Key>(t % 3);
    if (t % 2 == 0) {
      ev.stream = StreamId::kProbe;
      ev.tuple.payload = (rng() % 16 == 0)
                             ? std::numeric_limits<double>::quiet_NaN()
                             : static_cast<double>(rng() % 100);
    } else {
      ev.stream = StreamId::kBase;
      ev.tuple.payload = 1.0;
    }
    events.push_back(ev);
  }
  QuerySpec q = TestQuery(AggKind::kSum, /*lateness=*/0, {100, 0});

  EngineOptions on;
  on.num_joiners = 2;
  // Full-scan mode on both sides: the scalar *incremental* sum state is
  // NaN-poisoned forever once a NaN probe enters (NaN − NaN = NaN), while
  // per-window recomputation — and the columnar path, which reseeds from
  // exact prefix sums — recovers as soon as the NaN leaves the window.
  on.incremental_agg = false;
  EngineOptions off = on;
  off.columnar_batch = false;

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    const auto run_on = RunOverEvents(kind, events, q, on, 256);
    const auto run_off = RunOverEvents(kind, events, q, off, 256);
    ExpectResultsEqual(run_on.results, run_off.results,
                       std::string(EngineKindName(kind)) + "/nan");
    EXPECT_GT(run_on.stats.columnar_fallbacks, 0u)
        << EngineKindName(kind) << ": NaN groups never hit the fallback";
  }
}

// ------------------------------------------------- multi-query catalogs

TEST(ColumnarEngineTest, MultiQueryCatalogOnOffOracleAgree) {
  // Three standing queries with different windows, aggregates and
  // lateness policies share the engine; every query's stream must match
  // its own oracle with the columnar path on, and the on/off runs must
  // agree per query.
  // No late flood: best-effort annex joins are bracketed rather than
  // exact (multi_query_test covers that); here every policy must be
  // oracle-exact so the columnar on/off diff is three-way.
  const WorkloadSpec w = TestWorkload(341, /*keys=*/12);
  const auto events = Generate(w);

  const QuerySpec primary = TestQuery(AggKind::kSum);
  QuerySpec narrow =
      TestQuery(AggKind::kMin, 50, {150, 0}, LatePolicy::kDropAndCount);
  QuerySpec follows =
      TestQuery(AggKind::kAvg, 50, {250, 100}, LatePolicy::kBestEffortJoin);

  std::vector<QuerySpec> specs = {primary, narrow, follows};
  std::vector<std::vector<ReferenceResult>> oracles;
  for (const QuerySpec& spec : specs) {
    auto expected = ReferenceJoinWithPolicy(events, spec, kWmEvery);
    SortResults(&expected);
    oracles.push_back(std::move(expected));
  }

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    std::map<uint32_t, std::vector<ReferenceResult>> by_query_on;
    std::map<uint32_t, std::vector<ReferenceResult>> by_query_off;
    for (bool columnar : {true, false}) {
      EngineOptions options;
      options.num_joiners = 3;
      options.columnar_batch = columnar;
      CollectingSink sink;
      auto engine = CreateEngine(kind, primary, options, &sink);
      ASSERT_TRUE(engine->Start().ok());
      ASSERT_TRUE(engine->AddQuery("narrow", narrow).ok());
      ASSERT_TRUE(engine->AddQuery("follows", follows).ok());
      WatermarkTracker tracker(primary.lateness_us);
      uint64_t n = 0;
      for (const StreamEvent& ev : events) {
        tracker.Observe(ev.tuple.ts);
        engine->Push(ev, MonotonicNowUs());
        if (++n % kWmEvery == 0) {
          engine->SignalWatermark(tracker.watermark());
        }
      }
      const EngineStats stats = engine->Finish();
      if (columnar) {
        EXPECT_GT(stats.columnar_groups, 0u);
      }
      auto& by_query = columnar ? by_query_on : by_query_off;
      for (const JoinResult& r : sink.TakeResults()) {
        by_query[r.query].push_back({r.base, r.aggregate, r.match_count});
      }
      for (auto& [ord, results] : by_query) SortResults(&results);
    }
    ASSERT_EQ(by_query_on.size(), specs.size()) << EngineKindName(kind);
    for (const auto& [ord, results] : by_query_on) {
      ASSERT_LT(ord, specs.size());
      const std::string label = std::string(EngineKindName(kind)) +
                                "/query" + std::to_string(ord);
      ExpectResultsEqual(results, oracles[ord], label + "/on-vs-oracle");
      ExpectResultsEqual(by_query_off[ord], oracles[ord],
                         label + "/off-vs-oracle");
    }
  }
}

// --------------------------------------------- crash-recovery replay

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/oij_col_batch_test_XXXXXX";
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

using BaseKey = std::tuple<Timestamp, Key, double>;

TEST(ColumnarEngineTest, RecoveryReplayExactWithColumnarOn) {
  // Crash after a durable punctuation, recover from the WAL and finish
  // the stream — all with the columnar path on; the union of both
  // incarnations' results must be oracle-exact (the recovery replay
  // itself drains through the batch kernels too).
  WorkloadSpec w = TestWorkload(351, /*keys=*/16);
  w.total_tuples = 12'000;
  const auto events = Generate(w);
  const QuerySpec q = TestQuery();
  constexpr uint64_t kRecoveryWmEvery = 256;
  const size_t crash_at =
      (events.size() / 2 / kRecoveryWmEvery) * kRecoveryWmEvery;
  auto expected = ReferenceJoinWithPolicy(events, q, kRecoveryWmEvery);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    TempDir dir;
    EngineOptions options;
    options.num_joiners = 2;
    options.durability.wal_dir = dir.path();
    options.durability.fsync = FsyncPolicy::kPerBatch;
    const std::string label(EngineKindName(kind));

    WatermarkTracker tracker(q.lateness_us);
    std::map<BaseKey, JoinResult> acc;
    auto accumulate = [&acc](const std::vector<JoinResult>& results) {
      for (const JoinResult& r : results) {
        acc.emplace(BaseKey{r.base.ts, r.base.key, r.base.payload}, r);
      }
    };

    CollectingSink sink1;
    auto engine1 = CreateEngine(kind, q, options, &sink1);
    ASSERT_TRUE(engine1->Start().ok()) << label;
    uint64_t n = 0;
    for (size_t i = 0; i < crash_at; ++i) {
      tracker.Observe(events[i].tuple.ts);
      engine1->Push(events[i], MonotonicNowUs());
      if (++n % kRecoveryWmEvery == 0) {
        engine1->SignalWatermark(tracker.watermark());
      }
    }
    static_cast<ParallelEngineBase*>(engine1.get())->CrashForTest();
    accumulate(sink1.TakeResults());

    CollectingSink sink2;
    auto engine2 = CreateEngine(kind, q, options, &sink2);
    ASSERT_TRUE(engine2->Start().ok()) << label;
    ASSERT_TRUE(engine2->Recover().ok()) << label;
    for (size_t i = crash_at; i < events.size(); ++i) {
      tracker.Observe(events[i].tuple.ts);
      engine2->Push(events[i], MonotonicNowUs());
      if (++n % kRecoveryWmEvery == 0) {
        engine2->SignalWatermark(tracker.watermark());
      }
    }
    const EngineStats stats = engine2->Finish();
    accumulate(sink2.TakeResults());
    EXPECT_GT(stats.columnar_groups, 0u) << label;

    ASSERT_EQ(acc.size(), expected.size()) << label << ": cardinality";
    size_t mismatches = 0;
    for (const ReferenceResult& want : expected) {
      const auto it = acc.find(
          BaseKey{want.base.ts, want.base.key, want.base.payload});
      if (it == acc.end() ||
          it->second.match_count != want.match_count ||
          std::abs(it->second.aggregate - want.aggregate) > 1e-6) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << label;
  }
}


// ---------------------------------- per-key pending runs (Scale-OIJ)

/// Runs `events` through Scale-OIJ under `options` with the columnar path
/// on and off: both must match the policy-aware oracle, and each other
/// bit for bit. Returns the on run's stats.
EngineStats ExpectOnOffBitsAndOracle(const std::vector<StreamEvent>& events,
                                     const QuerySpec& q, uint64_t wm_every,
                                     EngineOptions options,
                                     const std::string& label) {
  auto expected = ReferenceJoinWithPolicy(events, q, wm_every);
  SortResults(&expected);
  options.columnar_batch = true;
  const auto on =
      RunOverEvents(EngineKind::kScaleOij, events, q, options, wm_every);
  options.columnar_batch = false;
  const auto off =
      RunOverEvents(EngineKind::kScaleOij, events, q, options, wm_every);
  ExpectResultsEqual(on.results, expected, label + "/on-vs-oracle");
  ExpectResultsEqual(off.results, expected, label + "/off-vs-oracle");
  ExpectBitIdentical(on.results, off.results, label);
  EXPECT_GT(on.stats.columnar_groups, 0u) << label;
  return on.stats;
}

TEST(PendingRunTest, OutOfOrderBasesSupersedeKeyHeadsManyTimes) {
  // Each block's bases arrive newest first, so every one becomes its
  // key's new oldest pending base and leaves a stale heads entry behind;
  // every fifth timestamp also carries a base for a second key.
  std::mt19937_64 rng(0x0dd5u);
  std::vector<StreamEvent> events;
  constexpr Timestamp kBlock = 48;
  for (Timestamp b = 0; b < 9'600; b += kBlock) {
    for (Timestamp t = b; t < b + kBlock; ++t) {
      events.push_back(MakeEvent(StreamId::kProbe, t,
                                 static_cast<Key>(t % 3), RoughPayload(rng)));
    }
    for (Timestamp t = b + kBlock - 1; t >= b; --t) {
      events.push_back(
          MakeEvent(StreamId::kBase, t, static_cast<Key>(t % 3), 1.0));
      if (t % 5 == 0) {
        events.push_back(
            MakeEvent(StreamId::kBase, t, static_cast<Key>((t + 1) % 3), 2.0));
      }
    }
  }
  // The lateness covers a block, so no base is late.
  const QuerySpec q = TestQuery(AggKind::kSum, 2 * kBlock, {100, 10});
  for (uint64_t wm_every : {uint64_t{7}, uint64_t{64}}) {
    ExpectOnOffBitsAndOracle(events, q, wm_every, SharedTeamOptions(true),
                             "superseded/wm" + std::to_string(wm_every));
  }

  // A base 250 us older than the one its key queued first. Its window
  // end passes the watermark long before the newer base's does, and the
  // newer base alone would let the read floor evict the older window: it
  // must finalize on time and hold the floor down until it has.
  std::vector<StreamEvent> far;
  for (Timestamp t = 0; t < 8'000; ++t) {
    far.push_back(MakeEvent(StreamId::kProbe, t, 0, RoughPayload(rng)));
    if (t % 400 == 300) {
      far.push_back(MakeEvent(StreamId::kBase, t, 0, 1.0));
      far.push_back(MakeEvent(StreamId::kBase, t - 250, 0, 2.0));
    }
  }
  EngineOptions one_joiner;
  one_joiner.num_joiners = 1;
  ExpectOnOffBitsAndOracle(far, TestQuery(AggKind::kSum, 400, {20, 100}), 8,
                           one_joiner, "superseded/far-older");
}

TEST(PendingRunTest, EqualTimestampsWithinAndAcrossKeys) {
  // Four bases share each timestamp (two keys, two copies each) and
  // arrive shuffled within their block, so a key's heap holds runs of
  // equal timestamps in arbitrary order; probes share the grid.
  std::mt19937_64 rng(0xe9a1u);
  std::vector<StreamEvent> events;
  constexpr Timestamp kBlock = 40;
  for (Timestamp b = 0; b < 8'000; b += kBlock) {
    std::vector<StreamEvent> bases;
    for (Timestamp t = b; t < b + kBlock; t += 4) {
      for (Key k = 0; k < 2; ++k) {
        events.push_back(MakeEvent(StreamId::kProbe, t, k, RoughPayload(rng)));
        bases.push_back(MakeEvent(StreamId::kBase, t, k, 1.0));
        bases.push_back(MakeEvent(StreamId::kBase, t, k, 2.0));
      }
    }
    std::shuffle(bases.begin(), bases.end(), rng);
    events.insert(events.end(), bases.begin(), bases.end());
  }
  for (IntervalWindow window : {IntervalWindow{20, 0}, IntervalWindow{12, 8}}) {
    const QuerySpec q = TestQuery(AggKind::kAvg, 2 * kBlock, window);
    ExpectOnOffBitsAndOracle(events, q, 16, SharedTeamOptions(true),
                             "equal-ts/pre" + std::to_string(window.pre) +
                                 "+fol" + std::to_string(window.fol));
  }
}

TEST(PendingRunTest, LaggingTeamMemberWhileOtherKeysAreReady) {
  // Joiner 1 sleeps before every event, so the teams it belongs to trail
  // the others. Skewed keys grow some partitions' teams and leave others
  // single-member: keys whose team is ready finalize while the lagging
  // teams' keys wait, and no base finalizes before its whole team has
  // passed its window end.
  std::mt19937_64 rng(0x5109u);
  std::vector<StreamEvent> events;
  for (Timestamp t = 0; t < 6'000; ++t) {
    const Key hot = static_cast<Key>(std::min(rng() % 12, rng() % 12));
    events.push_back(MakeEvent(StreamId::kProbe, t, hot, RoughPayload(rng)));
    if (t % 2 == 0) {
      events.push_back(
          MakeEvent(StreamId::kBase, t, static_cast<Key>(rng() % 12), 1.0));
    }
  }
  FaultInjector faults;
  faults.slow_joiner = 1;
  faults.slow_delay_us = 10;
  EngineOptions options;
  options.num_joiners = 3;
  options.num_partitions = 6;
  options.rebalance_interval_events = 256;
  options.fault_injector = &faults;
  const EngineStats stats = ExpectOnOffBitsAndOracle(
      events, TestQuery(AggKind::kSum, /*lateness=*/0, {300, 0}), 64,
      options, "lagging");
  EXPECT_GT(stats.rebalances, 0u) << "no team ever grew";
}

TEST(PendingRunTest, TwoQueriesWithDifferentWindowsOverTheSameKeys) {
  // Each query queues the same bases per key under its own window end,
  // so the narrow query's keys come due before the wide one's.
  const WorkloadSpec w = TestWorkload(391, /*keys=*/6);
  const auto events = Generate(w);
  const std::vector<QuerySpec> specs = {
      TestQuery(AggKind::kSum, 50, {400, 0}),
      TestQuery(AggKind::kSum, 50, {60, 40})};

  std::vector<std::vector<ReferenceResult>> by_query[2];
  for (bool columnar : {true, false}) {
    CollectingSink sink;
    auto engine = CreateEngine(EngineKind::kScaleOij, specs[0],
                               SharedTeamOptions(columnar), &sink);
    ASSERT_TRUE(engine->Start().ok());
    ASSERT_TRUE(engine->AddQuery("narrow", specs[1]).ok());
    WatermarkTracker tracker(specs[0].lateness_us);
    uint64_t n = 0;
    for (const StreamEvent& ev : events) {
      tracker.Observe(ev.tuple.ts);
      engine->Push(ev, MonotonicNowUs());
      if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
    }
    const EngineStats stats = engine->Finish();
    if (columnar) {
      EXPECT_GT(stats.columnar_groups, 0u);
    }
    auto& results = by_query[columnar ? 0 : 1];
    results.resize(specs.size());
    for (const JoinResult& r : sink.TakeResults()) {
      ASSERT_LT(r.query, specs.size());
      results[r.query].push_back({r.base, r.aggregate, r.match_count});
    }
    for (auto& query_results : results) SortResults(&query_results);
  }
  for (size_t ord = 0; ord < specs.size(); ++ord) {
    auto expected = ReferenceJoinWithPolicy(events, specs[ord], kWmEvery);
    SortResults(&expected);
    const std::string label = "query" + std::to_string(ord);
    ExpectResultsEqual(by_query[0][ord], expected, label + "/on-vs-oracle");
    ExpectResultsEqual(by_query[1][ord], expected, label + "/off-vs-oracle");
    ExpectBitIdentical(by_query[0][ord], by_query[1][ord], label);
  }
}

TEST(PendingRunTest, EagerEmitAcrossKeysAndKernels) {
  // Eager emit drains after every tuple, key by key. On an in-order
  // stream with unique timestamps it is exact. Max runs through the
  // gather kernel on every run, however short.
  WorkloadSpec w = TestWorkload(393, /*keys=*/6, /*disorder=*/0);
  w.total_tuples = 8'000;
  const auto events = Generate(w);
  for (AggKind agg : {AggKind::kSum, AggKind::kMax}) {
    QuerySpec q = TestQuery(agg, /*lateness=*/0, {200, 0});
    q.emit_mode = EmitMode::kEager;
    EngineOptions options = SharedTeamOptions(true);
    options.columnar_min_group = 1;
    ExpectOnOffBitsAndOracle(events, q, 128, options,
                             "eager/" + std::string(AggKindName(agg)));
  }
}

/// One crash-recovery run over `events` on Scale-OIJ with snapshots on:
/// the first incarnation crashes halfway, once a snapshot has committed;
/// the second recovers and finishes the stream. Returns the union of
/// both incarnations' results, sorted, and (in `recovered`) what the
/// second one delivered.
std::vector<ReferenceResult> CrashRecoverUnion(
    const std::vector<StreamEvent>& events, const QuerySpec& q,
    bool columnar, uint64_t wm_every, const std::string& label,
    std::vector<JoinResult>* recovered) {
  const size_t crash_at = (events.size() / 2 / wm_every) * wm_every;
  TempDir dir;
  EngineOptions options = SharedTeamOptions(columnar);
  options.durability.wal_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kPerBatch;
  options.durability.snapshot_interval_records = 1'000;

  WatermarkTracker tracker(q.lateness_us);
  std::map<BaseKey, ReferenceResult> acc;
  auto accumulate = [&acc](const std::vector<JoinResult>& results) {
    for (const JoinResult& r : results) {
      acc.emplace(BaseKey{r.base.ts, r.base.key, r.base.payload},
                  ReferenceResult{r.base, r.aggregate, r.match_count});
    }
  };

  CollectingSink sink1;
  auto engine1 = CreateEngine(EngineKind::kScaleOij, q, options, &sink1);
  EXPECT_TRUE(engine1->Start().ok()) << label;
  uint64_t n = 0;
  for (size_t i = 0; i < crash_at; ++i) {
    tracker.Observe(events[i].tuple.ts);
    engine1->Push(events[i], MonotonicNowUs());
    if (++n % wm_every == 0) engine1->SignalWatermark(tracker.watermark());
  }
  // Snapshots commit behind the joiners; crash only once one has, so
  // the per-key queues were walked even when the joiners lag.
  for (int i = 0; i < 2'000 && engine1->SampleWal().snapshots_taken == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(engine1->SampleWal().snapshots_taken, 0u) << label;
  static_cast<ParallelEngineBase*>(engine1.get())->CrashForTest();
  accumulate(sink1.TakeResults());

  CollectingSink sink2;
  auto engine2 = CreateEngine(EngineKind::kScaleOij, q, options, &sink2);
  EXPECT_TRUE(engine2->Start().ok()) << label;
  EXPECT_TRUE(engine2->Recover().ok()) << label;
  for (size_t i = crash_at; i < events.size(); ++i) {
    tracker.Observe(events[i].tuple.ts);
    engine2->Push(events[i], MonotonicNowUs());
    if (++n % wm_every == 0) engine2->SignalWatermark(tracker.watermark());
  }
  engine2->Finish();
  *recovered = sink2.TakeResults();
  accumulate(*recovered);

  std::vector<ReferenceResult> out;
  for (const auto& [key, result] : acc) out.push_back(result);
  SortResults(&out);
  return out;
}

TEST(PendingRunTest, SnapshotRecoveryWithBasesPendingOnManyKeys) {
  // A 1500 us lateness keeps about 1500 bases pending, spread over all
  // 64 keys, at every snapshot and at the crash. The snapshot walks every
  // key's queue; recovery restores the latest one and replays the log
  // after it.
  // Integer payloads keep every sum exact, so the union is bit-identical
  // however the crash split results between the two incarnations.
  constexpr Key kKeys = 64;
  std::mt19937_64 rng(0x5a9u);
  std::vector<StreamEvent> events;
  for (Timestamp t = 0; t < 12'000; ++t) {
    events.push_back(MakeEvent(StreamId::kProbe, t,
                               static_cast<Key>(t % kKeys),
                               static_cast<double>(rng() % 100)));
    events.push_back(MakeEvent(StreamId::kBase, t,
                               static_cast<Key>((t * 7 + 3) % kKeys), 1.0));
  }
  const QuerySpec q = TestQuery(AggKind::kSum, /*lateness=*/1'500, {400, 0});
  constexpr uint64_t kRecoveryWmEvery = 128;
  const size_t crash_at =
      (events.size() / 2 / kRecoveryWmEvery) * kRecoveryWmEvery;
  const Timestamp crash_ts = events[crash_at].tuple.ts;
  auto expected = ReferenceJoinWithPolicy(events, q, kRecoveryWmEvery);
  SortResults(&expected);

  std::vector<ReferenceResult> unions[2];
  for (bool columnar : {true, false}) {
    const std::string label = columnar ? "on" : "off";
    std::vector<JoinResult> recovered;
    unions[columnar ? 0 : 1] = CrashRecoverUnion(
        events, q, columnar, kRecoveryWmEvery, label, &recovered);
    std::set<Key> keys_pending_at_crash;
    for (const JoinResult& r : recovered) {
      if (r.base.ts < crash_ts) keys_pending_at_crash.insert(r.base.key);
    }
    EXPECT_EQ(keys_pending_at_crash.size(), kKeys) << label;
    ExpectResultsEqual(unions[columnar ? 0 : 1], expected,
                       label + "/vs-oracle");
  }
  ExpectBitIdentical(unions[0], unions[1], "recovery");
}

TEST(PendingRunTest, SnapshotRecoveryWithBasesInTheInbox) {
  // Each key's bases arrive newest first in blocks of 48: the first base
  // of a block appends to the key's sorted ring and the other 47 queue in
  // its inbox, which merges only once it holds 64. So at any snapshot
  // most keys hold bases in both parts, and a snapshot that skipped the
  // inbox would lose them on recovery. The lateness keeps them pending
  // through the crash.
  constexpr Key kKeys = 4;
  constexpr Timestamp kBlock = 48;
  std::mt19937_64 rng(0x1b0au);
  std::vector<StreamEvent> events;
  for (Timestamp b = 0; b < 9'600; b += kBlock) {
    for (Timestamp t = b; t < b + kBlock; ++t) {
      events.push_back(MakeEvent(StreamId::kProbe, t,
                                 static_cast<Key>(t % kKeys),
                                 static_cast<double>(rng() % 100)));
    }
    for (Timestamp t = b + kBlock - 1; t >= b; --t) {
      events.push_back(
          MakeEvent(StreamId::kBase, t, static_cast<Key>(t % kKeys), 1.0));
    }
  }
  const QuerySpec q = TestQuery(AggKind::kSum, /*lateness=*/1'000, {300, 20});
  constexpr uint64_t kRecoveryWmEvery = 96;
  auto expected = ReferenceJoinWithPolicy(events, q, kRecoveryWmEvery);
  SortResults(&expected);

  std::vector<ReferenceResult> unions[2];
  for (bool columnar : {true, false}) {
    const std::string label = columnar ? "on" : "off";
    std::vector<JoinResult> recovered;
    unions[columnar ? 0 : 1] = CrashRecoverUnion(
        events, q, columnar, kRecoveryWmEvery, label, &recovered);
    ExpectResultsEqual(unions[columnar ? 0 : 1], expected,
                       label + "/vs-oracle");
  }
  ExpectBitIdentical(unions[0], unions[1], "inbox-recovery");
}

TEST(PendingRunTest, DisorderEqualToLatenessMergesTheInboxOften) {
  // Every base lands anywhere within the lateness bound of the newest
  // timestamp, and the lateness spans many windows, so each key's queue
  // holds hundreds of bases and most arrivals go through the inbox: it
  // fills and merges into the ring many times between drains, each
  // merge shifting a different share of the ring's tail.
  constexpr Timestamp kLateness = 2'000;
  WorkloadSpec w = TestWorkload(397, /*keys=*/3, /*disorder=*/kLateness);
  w.total_tuples = 24'000;
  const auto events = Generate(w);
  // The input must really be disordered per key: count the bases that
  // arrive behind their key's newest base.
  std::map<Key, Timestamp> newest;
  size_t behind = 0;
  size_t bases = 0;
  for (const StreamEvent& ev : events) {
    if (ev.stream != StreamId::kBase) continue;
    ++bases;
    auto [it, fresh] = newest.try_emplace(ev.tuple.key, ev.tuple.ts);
    if (!fresh && ev.tuple.ts < it->second) ++behind;
    it->second = std::max(it->second, ev.tuple.ts);
  }
  ASSERT_GT(behind, bases / 3) << "workload not disordered enough";

  for (AggKind agg : {AggKind::kSum, AggKind::kMax}) {
    const QuerySpec q = TestQuery(agg, kLateness, {400, 0});
    for (uint64_t wm_every : {uint64_t{32}, uint64_t{512}}) {
      ExpectOnOffBitsAndOracle(events, q, wm_every, SharedTeamOptions(true),
                               "disorder/" + std::string(AggKindName(agg)) +
                                   "/wm" + std::to_string(wm_every));
    }
  }
}

TEST(PendingRunTest, LateBaseAlreadyDueFinalizesWithoutAPunctuation) {
  // Watermark emit drains between punctuations only when something can
  // have become ready. A best-effort late base whose window end is
  // already behind the joiner's own progress is such a case: it must
  // finalize on its own, with no further SignalWatermark.
  for (bool columnar : {true, false}) {
    const std::string label = columnar ? "on" : "off";
    QuerySpec q = TestQuery(AggKind::kSum, /*lateness=*/10, {100, 0});
    EngineOptions options;
    options.num_joiners = 2;
    options.columnar_batch = columnar;
    CollectingSink sink;
    auto engine = CreateEngine(EngineKind::kScaleOij, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok()) << label;
    for (Timestamp t = 0; t < 2'000; ++t) {
      engine->Push(MakeEvent(StreamId::kProbe, t, 0, 1.0), MonotonicNowUs());
    }
    engine->SignalWatermark(1'900);
    // Due on arrival: its window end is behind progress 1899, and its
    // window start above the eviction floor (1900 minus one window reach
    // and one window).
    const StreamEvent late = MakeEvent(StreamId::kBase, 1'850, 0, 7.0);
    engine->Push(late, MonotonicNowUs());
    engine->FlushPending();  // hand the staged batch to the joiner rings

    std::vector<JoinResult> got;
    for (int i = 0; i < 2'000 && got.empty(); ++i) {
      got = sink.TakeResults();
      if (got.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    ASSERT_EQ(got.size(), 1u) << label << ": late base never finalized";
    EXPECT_EQ(got[0].base.ts, 1'850) << label;
    // Window [1750, 1850] holds 101 probes of payload 1.
    EXPECT_EQ(got[0].match_count, 101u) << label;
    EXPECT_EQ(got[0].aggregate, 101.0) << label;
    const EngineStats stats = engine->Finish();
    EXPECT_EQ(stats.late.joined, 1u) << label;
    EXPECT_TRUE(sink.TakeResults().empty()) << label;
  }
}


// ------------------------------------------- key handles (Scale-OIJ)

/// `n` keys whose Mix64 shares its low `bits` bits with `anchor`'s, so
/// all of them probe the same run of slots in any key table of up to
/// 2^bits entries.
std::vector<Key> CollidingKeys(Key anchor, int bits, size_t n) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  std::vector<Key> keys;
  for (Key k = 1; keys.size() < n; ++k) {
    if (k != anchor && (Mix64(k) & mask) == (Mix64(anchor) & mask)) {
      keys.push_back(k);
    }
  }
  return keys;
}

TEST(KeyHandleTest, TeammateLayersThatAppearLateAreFound) {
  // A joiner caches each teammate's layer for a key once found; a
  // missing one must be looked up again at every use. The watched keys
  // (0, the largest key, and keys that collide with 0 in the key
  // table) get bases from the start but probes only later, so their
  // first sweeps find no layer on any member, and a teammate's layer
  // appears only when a probe of the key reaches that member. Each
  // probe goes to one team member, picked round-robin, and rebalances
  // add members to the teams as the run goes on. Meanwhile a new
  // filler key starts every 40 us, 400 in all, so every joiner's key
  // table grows several times mid-run.
  std::vector<Key> watched = {0, std::numeric_limits<Key>::max()};
  for (Key k : CollidingKeys(0, 10, 4)) watched.push_back(k);
  const Timestamp probes_from = 4'000;
  std::mt19937_64 rng(0x4a9du);
  std::vector<StreamEvent> events;
  for (Timestamp t = 0; t < 16'000; ++t) {
    const Key w = watched[rng() % watched.size()];
    if (t % 2 == 0) {
      events.push_back(MakeEvent(StreamId::kBase, t, w, 1.0));
    } else if (t >= probes_from) {
      events.push_back(MakeEvent(StreamId::kProbe, t, w, RoughPayload(rng)));
    }
    const Key filler = 1'000'000 + static_cast<Key>(t / 40);
    if (t % 3 == 0) {
      events.push_back(MakeEvent(StreamId::kBase, t, filler, 1.0));
    } else {
      events.push_back(
          MakeEvent(StreamId::kProbe, t, filler, RoughPayload(rng)));
    }
  }
  for (uint32_t partitions : {1u, 4u}) {
    EngineOptions options = SharedTeamOptions(true);
    options.num_partitions = partitions;
    for (AggKind agg : {AggKind::kSum, AggKind::kMax}) {
      const std::string label = "handles/p" + std::to_string(partitions) +
                                "/" + std::string(AggKindName(agg));
      const EngineStats stats = ExpectOnOffBitsAndOracle(
          events, TestQuery(agg, /*lateness=*/0, {300, 0}), 64, options,
          label);
      EXPECT_GT(stats.rebalances, 0u) << label << ": no team ever grew";
    }
  }
}

}  // namespace
}  // namespace oij
