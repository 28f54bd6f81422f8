// Tests for the in-place router -> joiner transport: SpscQueue staging
// (values written into their slots once, published with one tail store)
// and in-place reads (peek, then one head store to release), FIFO
// preservation across mixed single/run operations and interleaved
// control events, the SizeApprox sampling race (regression: loading tail
// before head let a concurrent pop underflow the subtraction to ~2^64),
// ordering and overload accounting of the engines' staged runs, the
// cache-line layout of the driver's per-tuple state, exactness of the
// batched engines against the reference join, and the control-loss
// accounting when a watermark cannot be delivered.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cache_line.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/spsc_queue.h"
#include "core/engine_factory.h"
#include "join/engine.h"
#include "join/reference_join.h"
#include "join/scale_oij.h"
#include "join/watermark.h"
#include "sched/load_stats.h"
#include "stream/generator.h"

namespace oij {
namespace {

// ---------------------------------------------------------------------------
// SpscQueue staging and in-place reads.
// ---------------------------------------------------------------------------

TEST(SpscRingTest, StagedSlotsStayInvisibleUntilPublished) {
  SpscQueue<int> q(8);  // rounds to capacity 8
  ASSERT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.TryStage(i));
  EXPECT_EQ(q.staged(), 6u);
  EXPECT_EQ(q.Peek(8), 0u) << "a staged slot must not be readable";
  EXPECT_EQ(q.SizeApprox(), 0u);
  q.Publish();
  EXPECT_EQ(q.staged(), 0u);
  EXPECT_EQ(q.SizeApprox(), 6u);
  // Staged slots count as used: two more fit, the third does not.
  EXPECT_TRUE(q.TryStage(6));
  EXPECT_TRUE(q.TryStage(7));
  EXPECT_FALSE(q.TryStage(8));
  EXPECT_FALSE(q.TryPush(99));
  // The failed TryPush published nothing new; Publish does.
  EXPECT_EQ(q.SizeApprox(), 6u);
  q.Publish();
  EXPECT_EQ(q.SizeApprox(), 8u);
  ASSERT_EQ(q.Peek(8), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(q.PeekAt(i), static_cast<int>(i));
}

TEST(SpscRingTest, PeekReadsInPlaceAndReportsPartial) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.TryPush(i));
  // Asking for more than is available returns what's there; asking for
  // less returns that much.
  EXPECT_EQ(q.Peek(3), 3u);
  EXPECT_EQ(q.Peek(8), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(q.PeekAt(i), static_cast<int>(i));
  q.Release(2);
  ASSERT_EQ(q.Peek(8), 3u);
  EXPECT_EQ(q.PeekAt(0), 2);
  q.Release(3);
  EXPECT_EQ(q.Peek(8), 0u);
  EXPECT_EQ(q.SizeApprox(), 0u);
}

TEST(SpscRingTest, StagePublishPeekReleaseWrapAroundTheRing) {
  SpscQueue<int> q(4);
  int next = 0;
  // Runs of 3 over a capacity-4 ring: every round straddles the wrap
  // point somewhere, on both the staging and the reading side.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.TryStage(next + i)) << "round " << round;
    }
    ASSERT_EQ(q.Peek(4), 0u) << "round " << round;
    q.Publish();
    ASSERT_EQ(q.Peek(4), 3u) << "round " << round;
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(q.PeekAt(i), next + static_cast<int>(i)) << "round " << round;
    }
    q.Release(3);
    next += 3;
  }
}

TEST(SpscRingTest, ConsumerHoldsItsSlotsUntilItReleasesThem) {
  SpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.TryPush(i));
  ASSERT_EQ(q.Peek(4), 4u);
  const int& third = q.PeekAt(2);
  // Peeking frees nothing: the producer finds no slot.
  EXPECT_FALSE(q.TryStage(100));
  q.Release(2);
  // Exactly the two released slots are reusable, and writing them leaves
  // the still-held slots untouched.
  EXPECT_TRUE(q.TryStage(100));
  EXPECT_TRUE(q.TryStage(101));
  EXPECT_FALSE(q.TryStage(102));
  q.Publish();
  EXPECT_EQ(third, 2);
  ASSERT_EQ(q.Peek(4), 2u);
  EXPECT_EQ(q.PeekAt(0), 2);
  EXPECT_EQ(q.PeekAt(1), 3);
  q.Release(2);
  ASSERT_EQ(q.Peek(4), 2u);
  EXPECT_EQ(q.PeekAt(0), 100);
  EXPECT_EQ(q.PeekAt(1), 101);
}

// FIFO property: any random interleaving of single pushes, staged runs,
// publishes, single pops and partial in-place releases must observe
// exactly the sequence a std::deque model observes — including "control"
// markers (negative values) mixed between tuples, mirroring how
// watermark/flush punctuations interleave with staged tuples in the
// engine transport (a single push publishes the staged run before it).
TEST(SpscRingTest, MixedSingleAndRunOpsPreserveFifo) {
  SpscQueue<int> q(16);
  std::deque<int> published;  // what the consumer may read, in order
  std::deque<int> staged;     // written but not yet published
  std::mt19937 rng(42);
  int next = 0;
  auto publish = [&] {
    published.insert(published.end(), staged.begin(), staged.end());
    staged.clear();
  };
  for (int step = 0; step < 200'000; ++step) {
    switch (rng() % 6) {
      case 0: {  // single push (tuple)
        if (q.TryPush(next)) {
          staged.push_back(next);
          publish();
        }
        ++next;
        break;
      }
      case 1: {  // single push (control marker)
        const int marker = -(next + 1);
        if (q.TryPush(marker)) {
          staged.push_back(marker);
          publish();
        }
        ++next;
        break;
      }
      case 2: {  // staged run, possibly longer than the free space
        const int n = 1 + static_cast<int>(rng() % 24);
        for (int i = 0; i < n; ++i) {
          if (!q.TryStage(next)) break;
          staged.push_back(next++);
        }
        ASSERT_EQ(q.staged(), staged.size());
        break;
      }
      case 3:
        q.Publish();
        publish();
        break;
      case 4: {  // single pop
        int v;
        if (q.TryPop(&v)) {
          ASSERT_FALSE(published.empty());
          ASSERT_EQ(v, published.front());
          published.pop_front();
        }
        break;
      }
      default: {  // peek a run, release part of it
        const size_t n = 1 + rng() % 24;
        const size_t got = q.Peek(n);
        ASSERT_LE(got, published.size());
        for (size_t i = 0; i < got; ++i) {
          ASSERT_EQ(q.PeekAt(i), published[i]);
        }
        const size_t release = got == 0 ? 0 : 1 + rng() % got;
        q.Release(release);
        published.erase(published.begin(),
                        published.begin() + static_cast<long>(release));
        break;
      }
    }
    ASSERT_EQ(q.SizeApprox(), published.size());
  }
}

// Concurrent transfer: everything the producer stages arrives, in order,
// with the producer publishing runs of random length and the consumer
// reading and releasing chunks of random length in place.
TEST(SpscRingTest, ConcurrentInPlaceTransferDeliversEverythingInOrder) {
  constexpr uint64_t kTotal = 2'000'000;
  SpscQueue<uint64_t> q(1024);
  std::thread producer([&] {
    std::mt19937 rng(7);
    uint64_t sent = 0;
    while (sent < kTotal) {
      const uint64_t run = std::min<uint64_t>(1 + rng() % 64, kTotal - sent);
      for (uint64_t i = 0; i < run; ++i) {
        while (!q.TryStage(sent)) {
          q.Publish();
          std::this_thread::yield();
        }
        ++sent;
      }
      q.Publish();
    }
  });
  std::mt19937 rng(11);
  uint64_t expect = 0;
  while (expect < kTotal) {
    const size_t got = q.Peek(1 + rng() % 128);
    for (size_t i = 0; i < got; ++i) {
      ASSERT_EQ(q.PeekAt(i), expect) << "out-of-order or lost element";
      ++expect;
    }
    q.Release(got);
  }
  producer.join();
  EXPECT_EQ(q.Peek(128), 0u);
}

// Regression for the SizeApprox race: the old implementation loaded
// `tail_` before `head_`, so pops completing between the two loads could
// make head overtake the sampled tail and underflow the unsigned
// subtraction to ~2^64 (the watchdog then saw an impossible backlog).
// The two loads sit nanoseconds apart, so the widest — and on a busy
// machine, common — window is a sampler thread getting *preempted*
// between them: oversubscribe with several watchdog-like samplers so
// the scheduler regularly deschedules one mid-sample while the producer
// and consumer keep the indices moving. Against the pre-fix ordering
// this observes depths around 2^64 every run; post-fix, a sampled depth
// can never exceed capacity.
TEST(SpscRingTest, SizeApproxNeverExceedsCapacityUnderConcurrency) {
  SpscQueue<uint64_t> q(64);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    uint64_t v = 0;
    while (!done.load(std::memory_order_relaxed)) q.TryPush(v++);
  });
  std::thread consumer([&] {
    uint64_t v;
    while (!done.load(std::memory_order_relaxed)) q.TryPop(&v);
  });

  const unsigned n_samplers =
      3 + 2 * std::thread::hardware_concurrency();
  std::atomic<uint64_t> total_samples{0};
  std::atomic<uint64_t> overflows{0};
  std::vector<std::thread> samplers;
  for (unsigned t = 0; t < n_samplers; ++t) {
    samplers.emplace_back([&] {
      uint64_t samples = 0;
      uint64_t bad = 0;
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(2000);
      while (std::chrono::steady_clock::now() < until) {
        for (int i = 0; i < 200; ++i) {
          if (q.SizeApprox() > q.capacity()) ++bad;
          ++samples;
        }
      }
      total_samples.fetch_add(samples, std::memory_order_relaxed);
      overflows.fetch_add(bad, std::memory_order_relaxed);
    });
  }
  for (auto& th : samplers) th.join();
  done.store(true);
  producer.join();
  consumer.join();

  EXPECT_EQ(overflows.load(), 0u)
      << "SizeApprox underflowed past capacity (" << overflows.load()
      << " of " << total_samples.load() << " samples)";
  EXPECT_GT(total_samples.load(), 100'000u)
      << "samplers starved; race barely exercised";
}

// ---------------------------------------------------------------------------
// The engine's staged runs: ordering and overload accounting.
// ---------------------------------------------------------------------------

/// One-joiner engine that records what its joiner sees, in order: a
/// tuple as its ts, a watermark as ("W", value). While the gate is closed
/// the joiner parks on the first tuple it reads, holding its peeked
/// slots, so the driver meets a full ring at a known point.
class RecordingEngine : public ParallelEngineBase {
 public:
  struct Seen {
    bool watermark = false;
    Timestamp value = 0;
  };

  RecordingEngine(const QuerySpec& spec, const EngineOptions& options,
                  ResultSink* sink)
      : ParallelEngineBase(spec, options, sink) {}

  std::string_view name() const override { return "recording"; }

  void OpenGate() { gate_open_.store(true, std::memory_order_release); }
  void CloseGate() { gate_open_.store(false, std::memory_order_release); }

  /// Joiner-thread data; read it only after Finish joined the joiner.
  const std::vector<Seen>& seen() const { return seen_; }

 protected:
  void Route(const Event& event) override { EnqueueTo(0, event); }
  void OnTuple(uint32_t, const Event& event) override {
    while (!gate_open_.load(std::memory_order_acquire) && !stop_requested()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    seen_.push_back({false, event.tuple.ts});
  }
  void OnWatermark(uint32_t, Timestamp watermark) override {
    if (watermark != kMaxTimestamp) seen_.push_back({true, watermark});
  }
  void CollectStats(EngineStats*) override {}

 private:
  std::atomic<bool> gate_open_{true};
  std::vector<Seen> seen_;
};

QuerySpec RecordingSpec() {
  QuerySpec q;
  q.window = IntervalWindow{10, 0};
  q.lateness_us = 0;
  return q;
}

EngineOptions RecordingOptions(OverloadPolicy policy, uint32_t capacity = 8) {
  EngineOptions options;
  options.num_joiners = 1;
  options.queue_capacity = capacity;
  options.batch_size = 3;
  options.batch_flush_us = 0;  // only batch size, control and Finish publish
  options.overload_policy = policy;
  options.enable_watchdog = false;
  return options;
}

void PushTs(JoinEngine& engine, Timestamp ts) {
  StreamEvent ev;
  ev.stream = StreamId::kProbe;
  ev.tuple = Tuple{ts, 1, 1.0};
  engine.Push(ev, MonotonicNowUs());
}

/// Under every overload policy, a watermark reaches the joiner after
/// every tuple pushed before it (including those still staged in the
/// ring, unpublished, when it was signaled) and before every tuple pushed
/// after it — with a free ring, and with a ring that fills while the
/// joiner is parked so that tuples block, drop or spill.
TEST(StagedTransportTest, WatermarkNeverOvertakesStagedTuples) {
  const OverloadPolicy policies[] = {OverloadPolicy::kBlock,
                                     OverloadPolicy::kDropNewest,
                                     OverloadPolicy::kShedOldest};
  for (OverloadPolicy policy : policies) {
    for (const bool overload : {false, true}) {
      const std::string label = std::string(OverloadPolicyName(policy)) +
                                (overload ? "/overload" : "/free");
      NullSink sink;
      // The free ring holds every tuple of the run; the other fills.
      RecordingEngine engine(RecordingSpec(),
                             RecordingOptions(policy, overload ? 8 : 64),
                             &sink);
      ASSERT_TRUE(engine.Start().ok()) << label;
      std::thread opener;
      if (overload) {
        engine.CloseGate();
        opener = std::thread([&engine] {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          engine.OpenGate();
        });
      }
      constexpr Timestamp kBefore = 40;  // tuples 0..39, then W, then more
      constexpr Timestamp kAfter = 50;
      constexpr Timestamp kWatermark = 1000;
      // Without overload the last two tuples are staged, unpublished,
      // when the watermark is signaled (40 = 13 runs of 3, plus 1).
      for (Timestamp ts = 0; ts < kBefore; ++ts) PushTs(engine, ts);
      engine.SignalWatermark(kWatermark);
      for (Timestamp ts = kBefore; ts < kAfter; ++ts) PushTs(engine, ts);
      const EngineStats stats = engine.Finish();
      if (opener.joinable()) opener.join();

      size_t watermarks = 0;
      size_t tuples = 0;
      Timestamp last = -1;
      bool tuple_39_seen = false;
      for (const RecordingEngine::Seen& seen : engine.seen()) {
        if (seen.watermark) {
          ++watermarks;
          EXPECT_EQ(seen.value, kWatermark) << label;
          continue;
        }
        ++tuples;
        EXPECT_GT(seen.value, last) << label << ": tuples out of order";
        last = seen.value;
        if (seen.value == kBefore - 1) tuple_39_seen = true;
        // Tuples pushed before the watermark precede it; later ones
        // follow it.
        EXPECT_EQ(watermarks, seen.value < kBefore ? 0u : 1u)
            << label << ": tuple " << seen.value;
      }
      EXPECT_EQ(watermarks, 1u) << label;
      EXPECT_EQ(tuples + stats.overload_dropped,
                static_cast<uint64_t>(kAfter))
          << label;
      if (!overload || policy == OverloadPolicy::kBlock) {
        EXPECT_EQ(stats.overload_dropped, 0u) << label;
      }
      if (policy == OverloadPolicy::kShedOldest) {
        // Shedding keeps the newest: the last tuple before the
        // watermark always survives, ahead of it.
        EXPECT_TRUE(tuple_39_seen) << label;
      }
      EXPECT_EQ(stats.control_lost, 0u) << label;
    }
  }
}

/// The ring (capacity 8, runs of 3) fills in the middle of a staged run
/// while the joiner is parked holding its slots: tuples 0..7 get in, 6
/// and 7 still staged when tuple 8 finds no slot. Every later tuple is
/// dropped (kDropNewest) or spilled and shed oldest-first (kShedOldest),
/// and the counts are exact.
TEST(StagedTransportTest, DropAndShedCountsAreExactWhenTheRingFillsMidRun) {
  constexpr Timestamp kPushed = 30;
  {
    NullSink sink;
    EngineOptions options = RecordingOptions(OverloadPolicy::kDropNewest);
    options.drop_wait_us = 0;
    RecordingEngine engine(RecordingSpec(), options, &sink);
    ASSERT_TRUE(engine.Start().ok());
    engine.CloseGate();
    for (Timestamp ts = 0; ts < kPushed; ++ts) PushTs(engine, ts);
    engine.OpenGate();
    const EngineStats stats = engine.Finish();
    EXPECT_EQ(stats.overload_dropped, 22u);
    EXPECT_EQ(stats.overload_shed, 0u);
    ASSERT_EQ(stats.per_joiner_overload_dropped.size(), 1u);
    EXPECT_EQ(stats.per_joiner_overload_dropped[0], 22u);
    std::vector<Timestamp> got;
    for (const auto& seen : engine.seen()) got.push_back(seen.value);
    EXPECT_EQ(got, (std::vector<Timestamp>{0, 1, 2, 3, 4, 5, 6, 7}));
  }
  {
    NullSink sink;
    EngineOptions options = RecordingOptions(OverloadPolicy::kShedOldest);
    options.shed_spill_capacity = 5;
    RecordingEngine engine(RecordingSpec(), options, &sink);
    ASSERT_TRUE(engine.Start().ok());
    engine.CloseGate();
    for (Timestamp ts = 0; ts < kPushed; ++ts) PushTs(engine, ts);
    engine.OpenGate();
    const EngineStats stats = engine.Finish();
    // 8 in the ring, the newest 5 in the spill, 17 shed.
    EXPECT_EQ(stats.overload_shed, 17u);
    EXPECT_EQ(stats.overload_dropped, 17u);
    std::vector<Timestamp> got;
    for (const auto& seen : engine.seen()) got.push_back(seen.value);
    EXPECT_EQ(got, (std::vector<Timestamp>{0, 1, 2, 3, 4, 5, 6, 7, 25, 26,
                                           27, 28, 29}));
    EXPECT_EQ(stats.control_lost, 0u);
  }
}

bool LineAligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kCacheLineBytes == 0;
}

/// The driver's per-tuple writes own their cache lines: the ring's
/// producer lane and slots, the router's load counts and Scale-OIJ's
/// routing cursors each start on a line, and padded storage ends on one.
TEST(StagedTransportTest, DriverWrittenStateOwnsItsCacheLines) {
  static_assert(sizeof(Event) == 48);
  static_assert(alignof(SpscQueue<Event>) == kCacheLineBytes);
  static_assert(sizeof(SpscQueue<Event>) % kCacheLineBytes == 0);

  EXPECT_EQ(CacheLineAllocator<double>::PaddedBytes(1), kCacheLineBytes);
  EXPECT_EQ(CacheLineAllocator<double>::PaddedBytes(8), kCacheLineBytes);
  EXPECT_EQ(CacheLineAllocator<double>::PaddedBytes(9),
            2 * kCacheLineBytes);
  for (size_t n : {1u, 3u, 17u, 256u}) {
    CacheLineVector<uint32_t> v(n);
    EXPECT_TRUE(LineAligned(v.data())) << n;
  }

  for (int i = 0; i < 8; ++i) {
    auto ring = std::make_unique<SpscQueue<Event>>(16);
    EXPECT_TRUE(LineAligned(ring.get()));
    ASSERT_TRUE(ring->TryPush(Event{}));
    ASSERT_EQ(ring->Peek(1), 1u);
    EXPECT_TRUE(LineAligned(&ring->PeekAt(0)));
  }

  LoadStats stats(256);
  EXPECT_TRUE(LineAligned(stats.counts().data()));

  QuerySpec q;
  q.window = IntervalWindow{10, 0};
  EngineOptions options;
  options.num_joiners = 2;
  NullSink sink;
  ScaleOijEngine engine(q, options, &sink);
  EXPECT_TRUE(LineAligned(engine.RouteCursorsForTest()));
}

// ---------------------------------------------------------------------------
// Batched engines stay exact.
// ---------------------------------------------------------------------------

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

std::vector<ReferenceResult> RunBatched(EngineKind kind,
                                        const std::vector<StreamEvent>& events,
                                        const QuerySpec& spec,
                                        uint32_t batch_size,
                                        uint32_t joiners) {
  EngineOptions options;
  options.num_joiners = joiners;
  options.batch_size = batch_size;
  CollectingSink sink;
  auto engine = CreateEngine(kind, spec, options, &sink);
  EXPECT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(spec.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % 256 == 0) engine->SignalWatermark(tracker.watermark());
    // Exercise the mid-stream flush path the pipeline uses before pacing
    // waits: it must be a behavioural no-op for correctness.
    if (n % 1000 == 0) engine->FlushPending();
  }
  engine->Finish();
  std::vector<ReferenceResult> results;
  for (const JoinResult& r : sink.TakeResults()) {
    results.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&results);
  return results;
}

void ExpectSameResults(const std::vector<ReferenceResult>& got,
                       const std::vector<ReferenceResult>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].base, want[i].base) << label << " result " << i;
    ASSERT_EQ(got[i].match_count, want[i].match_count)
        << label << " result " << i;
    ASSERT_NEAR(got[i].aggregate, want[i].aggregate, 1e-6)
        << label << " result " << i;
  }
}

/// Differential grid: with batching enabled at several sizes, every
/// partitioned engine must produce byte-identical results to both the
/// reference join and its own unbatched (batch_size = 1) run, across
/// key-count x window x lateness variations.
TEST(BatchedTransportTest, DifferentialGridMatchesReferenceAndUnbatched) {
  struct GridPoint {
    uint64_t keys;
    IntervalWindow window;
    Timestamp lateness;
  };
  const GridPoint grid[] = {
      {8, {400, 0}, 50},
      {2, {400, 0}, 50},     // few keys: broadcast/designation stress
      {8, {200, 150}, 50},   // following window
      {8, {400, 0}, 2000},   // lateness >> window
  };
  const EngineKind kinds[] = {EngineKind::kKeyOij, EngineKind::kScaleOij,
                              EngineKind::kSplitJoin};
  const uint32_t batch_sizes[] = {2, 5, 32};

  for (const GridPoint& g : grid) {
    WorkloadSpec w;
    w.num_keys = g.keys;
    w.window = g.window;
    w.lateness_us = g.lateness;
    w.disorder_bound_us = g.lateness;
    w.event_rate_per_sec = 1'000'000;
    w.total_tuples = 20'000;
    w.probe_fraction = 0.5;
    w.seed = 7'000 + g.keys + static_cast<uint64_t>(g.window.fol);
    const auto events = Generate(w);

    QuerySpec q;
    q.window = g.window;
    q.lateness_us = g.lateness;
    q.emit_mode = EmitMode::kWatermark;
    auto expected = ReferenceJoin(events, q);
    SortResults(&expected);

    for (EngineKind kind : kinds) {
      const auto unbatched = RunBatched(kind, events, q, /*batch=*/1,
                                        /*joiners=*/3);
      ExpectSameResults(unbatched, expected,
                        std::string(EngineKindName(kind)) + "/b1");
      for (uint32_t b : batch_sizes) {
        const std::string label = std::string(EngineKindName(kind)) +
                                  "/keys" + std::to_string(g.keys) + "/b" +
                                  std::to_string(b);
        const auto batched = RunBatched(kind, events, q, b, /*joiners=*/3);
        ExpectSameResults(batched, expected, label + " vs reference");
        ExpectSameResults(batched, unbatched, label + " vs unbatched");
      }
    }
  }
}

TEST(BatchedTransportTest, ValidateRejectsZeroBatchAndNegativeTimer) {
  QuerySpec q;
  q.window = IntervalWindow{400, 0};
  q.lateness_us = 50;
  NullSink sink;
  {
    EngineOptions options;
    options.batch_size = 0;
    auto engine = CreateEngine(EngineKind::kKeyOij, q, options, &sink);
    EXPECT_FALSE(engine->Start().ok());
  }
  {
    EngineOptions options;
    options.batch_flush_us = -1;
    auto engine = CreateEngine(EngineKind::kKeyOij, q, options, &sink);
    EXPECT_FALSE(engine->Start().ok());
  }
}

// ---------------------------------------------------------------------------
// Control-event loss is counted and surfaced, never silent.
// ---------------------------------------------------------------------------

/// A joiner parked before consuming anything fills its ring; once the
/// watchdog escalates and raises the stop token, watermark punctuations
/// to that joiner can no longer be delivered. Previously SignalWatermark
/// ignored the failed enqueue and the run looked pristine; now the loss
/// must appear in control_lost / per_joiner_control_lost and a warning.
TEST(ControlLossTest, UndeliverableWatermarksAreCountedAndWarned) {
  WorkloadSpec w;
  w.num_keys = 8;
  w.window = IntervalWindow{400, 0};
  w.lateness_us = 60;
  w.disorder_bound_us = 60;
  w.total_tuples = 4'000;
  w.seed = 641;
  const auto events = Generate(w);

  FaultInjector faults;
  faults.stalled_joiner = 0;
  faults.stall_after_events = 0;  // park before consuming anything

  QuerySpec q;
  q.window = w.window;
  q.lateness_us = w.lateness_us;
  q.emit_mode = EmitMode::kWatermark;

  EngineOptions options;
  options.num_joiners = 2;
  options.queue_capacity = 8;
  // Lossy tuple policy so the driver itself never blocks on the wedged
  // ring; only control events insist on delivery.
  options.overload_policy = OverloadPolicy::kDropNewest;
  options.fault_injector = &faults;
  options.watchdog.interval_ms = 10;
  options.watchdog.stall_intervals = 3;
  options.finish_timeout_us = 10'000'000;

  CountingSink sink;
  auto engine = CreateEngine(EngineKind::kKeyOij, q, options, &sink);
  ASSERT_TRUE(engine->Start().ok());

  WatermarkTracker tracker(q.lateness_us);
  for (size_t i = 0; i < 200 && i < events.size(); ++i) {
    engine->Push(events[i], MonotonicNowUs());
    tracker.Observe(events[i].tuple.ts);
  }
  // Joiner 0's ring is wedged full; give the watchdog time to escalate
  // and raise the stop token.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int i = 0; i < 5; ++i) engine->SignalWatermark(tracker.watermark());
  const EngineStats stats = engine->Finish();

  EXPECT_EQ(stats.health.code(), Status::Code::kResourceExhausted)
      << stats.health.ToString();
  EXPECT_GE(stats.control_lost, 1u);
  ASSERT_EQ(stats.per_joiner_control_lost.size(), 2u);
  EXPECT_GE(stats.per_joiner_control_lost[0], 1u);
  bool warned = false;
  for (const std::string& warning : stats.warnings) {
    if (warning.find("control") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned) << "control loss must mark the run non-pristine";
}

TEST(ControlLossTest, CleanRunLosesNothing) {
  WorkloadSpec w;
  w.num_keys = 8;
  w.window = IntervalWindow{400, 0};
  w.lateness_us = 60;
  w.disorder_bound_us = 60;
  w.total_tuples = 10'000;
  w.seed = 642;
  const auto events = Generate(w);

  QuerySpec q;
  q.window = w.window;
  q.lateness_us = w.lateness_us;
  q.emit_mode = EmitMode::kWatermark;

  EngineOptions options;
  options.num_joiners = 3;
  CountingSink sink;
  auto engine = CreateEngine(EngineKind::kScaleOij, q, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(q.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    engine->Push(ev, MonotonicNowUs());
    tracker.Observe(ev.tuple.ts);
    if (++n % 64 == 0) engine->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine->Finish();
  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();
  EXPECT_EQ(stats.control_lost, 0u);
  for (uint64_t lost : stats.per_joiner_control_lost) EXPECT_EQ(lost, 0u);
  EXPECT_TRUE(stats.warnings.empty());
}

}  // namespace
}  // namespace oij
