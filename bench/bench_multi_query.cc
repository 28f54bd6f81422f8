// Multi-query shared index: ingest throughput for N standing queries on
// ONE engine (one arena insert per tuple, N window reads) versus the
// same N queries as N independent single-query engines, each ingesting
// its own copy of the stream.
//
// Expected shape: the shared index amortizes the insert/evict/index
// side of the join across all standing queries, so shared-engine ingest
// degrades slowly with N while the independent tier pays the full
// per-tuple cost N times — by 16 queries the shared engine should hold
// a multiple (target: >= 4x) of the independent aggregate.
//
// The stream is probe-heavy (probe_fraction 0.9), the feature-serving
// shape multi-query targets: a deep shared history fed continuously,
// with base (request) rows the minority. Base rows cost O(queries) in
// both tiers — each standing query emits its own result per base — so
// probe ingest is where sharing pays, and a 50/50 mix would understate
// it.

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "join/watermark.h"

using namespace oij;
using namespace oij::bench;

namespace {

constexpr uint64_t kWmEvery = 256;

/// The N query specs: one wide primary plus narrower riders with mixed
/// aggregates, all sharing the primary's lateness bound and emit mode.
std::vector<QuerySpec> MakeSpecs(const WorkloadSpec& w, size_t n) {
  std::vector<QuerySpec> specs;
  specs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    QuerySpec q = QueryFor(w, EmitMode::kWatermark);
    if (i > 0) {
      q.window.pre = w.window.pre / (1 + static_cast<Timestamp>(i % 4));
      constexpr AggKind kAggs[] = {AggKind::kSum, AggKind::kCount,
                                   AggKind::kAvg, AggKind::kMax};
      q.agg = kAggs[i % 4];
    }
    specs.push_back(q);
  }
  return specs;
}

/// Pushes the whole stream with the usual observe-then-punctuate
/// cadence and returns wall seconds from first push to Finish.
double DriveSeconds(JoinEngine* engine,
                    const std::vector<StreamEvent>& events,
                    Timestamp lateness) {
  WatermarkTracker tracker(lateness);
  const int64_t t0 = MonotonicNowUs();
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
  }
  engine->Finish();
  return static_cast<double>(MonotonicNowUs() - t0) / 1e6;
}

}  // namespace

int main() {
  PrintTitle("multi-query", "shared index vs N independent engines");

  WorkloadSpec w = Unpaced(DefaultSynthetic());
  w.probe_fraction = 0.9;
  w.total_tuples = Scaled(400'000);
  std::vector<StreamEvent> events;
  {
    WorkloadGenerator gen(w);
    StreamEvent ev;
    while (gen.Next(&ev)) events.push_back(ev);
  }

  EngineOptions options;
  options.num_joiners = 4;
  const double tuples = static_cast<double>(events.size());

  std::printf("%-8s %16s %16s %10s\n", "queries", "shared-ingest",
              "indep-ingest", "speedup");
  for (size_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const std::vector<QuerySpec> specs = MakeSpecs(w, n);

    // Shared: one engine, one ingest, n standing queries.
    NullSink shared_sink;
    auto shared =
        CreateEngine(EngineKind::kScaleOij, specs[0], options, &shared_sink);
    if (!shared->Start().ok()) return 1;
    for (size_t i = 1; i < n; ++i) {
      const std::string name = std::string("q").append(std::to_string(i));
      if (!shared->AddQuery(name, specs[i]).ok()) return 1;
    }
    const double shared_tps = tuples / DriveSeconds(shared.get(), events,
                                                    specs[0].lateness_us);

    // Independent: n single-query engines, each ingesting the stream.
    double indep_seconds = 0.0;
    for (size_t i = 0; i < n; ++i) {
      NullSink sink;
      auto engine =
          CreateEngine(EngineKind::kScaleOij, specs[i], options, &sink);
      if (!engine->Start().ok()) return 1;
      indep_seconds += DriveSeconds(engine.get(), events,
                                    specs[i].lateness_us);
    }
    const double indep_tps = tuples / indep_seconds;

    std::printf("%-8zu %16s %16s %9.1fx\n", n,
                HumanRate(shared_tps).c_str(), HumanRate(indep_tps).c_str(),
                shared_tps / indep_tps);
    std::fflush(stdout);
  }
  PrintNote("indep-ingest = stream tuples / total time to feed every "
            "engine its own copy; speedup = shared/indep");
  return 0;
}
