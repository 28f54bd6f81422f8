// In-process path: the benchmark thread is the engine's single driver
// thread. It pushes the materialized arrivals, punctuates every
// kWatermarkEvery tuples with the watermark computed during preparation,
// and finishes; joiner threads deliver into a TallySink.

#include <algorithm>

#include "bench.h"
#include "common/clock.h"
#include "core/engine_factory.h"
#include "layers.h"

namespace perfbench {

namespace {

constexpr uint32_t kDriverThread = 0;

oij::EngineOptions InProcessOptions(const RepOptions& opt) {
  oij::EngineOptions options;
  options.num_joiners = opt.joiners;
  options.cache_sim = opt.cache_sim;
  return options;
}

}  // namespace

double ProbeSetupSeconds(const PreparedInput& input, const RepOptions& opt) {
  oij::NullSink sink;
  const int64_t start = oij::MonotonicNowNs();
  auto engine = oij::CreateEngine(oij::EngineKind::kScaleOij, input.query,
                                  InProcessOptions(opt), &sink);
  const oij::Status s = engine->Start();
  const int64_t ready = oij::MonotonicNowNs();
  engine->Finish();
  return s.ok() ? static_cast<double>(ready - start) / 1e9 : -1.0;
}

RepResult RunInProcessRep(const PreparedInput& input, const RepOptions& opt) {
  RepResult rep;
  const size_t n = opt.tuples == 0
                       ? input.events.size()
                       : std::min(opt.tuples, input.events.size());
  const oij::EngineOptions options = InProcessOptions(opt);
  TallySink sink(input.query.window.fol);
  ReleaseSchedule schedule;
  SpanLog spans;
  std::vector<Span>* driver =
      opt.trace ? spans.Register() : nullptr;
  std::mutex progress_mu;
  std::vector<oij::WatchdogSample> progress;  // guarded by progress_mu
  oij::EngineStats stats;

  PeakRss peak;
  {
    ScopedSpan run(driver, "driver.run", kDriverThread);
    std::unique_ptr<oij::JoinEngine> engine;
    oij::Status started;
    const int64_t setup_start = oij::MonotonicNowNs();
    {
      ScopedSpan span(driver, "engine.start", kDriverThread);
      engine = oij::CreateEngine(oij::EngineKind::kScaleOij, input.query,
                                 options, &sink);
      started = engine->Start();
    }
    rep.setup_s =
        static_cast<double>(oij::MonotonicNowNs() - setup_start) / 1e9;
    if (!started.ok()) {
      rep.error = "engine start: " + started.ToString();
      return rep;
    }

    std::unique_ptr<Sampler> sampler;
    if (opt.trace) {
      oij::JoinEngine* raw = engine.get();
      sampler = std::make_unique<Sampler>(20, [raw, &progress_mu, &progress] {
        oij::WatchdogSample s = raw->SampleProgress();
        std::lock_guard<std::mutex> lock(progress_mu);
        progress.push_back(std::move(s));
      });
    }

    const int64_t ingest_start = oij::MonotonicNowNs();
    size_t block = 0;
    for (size_t i = 0; i < n; i += kWatermarkEvery) {
      const size_t end = std::min(n, i + kWatermarkEvery);
      {
        ScopedSpan span(driver, "driver.push", kDriverThread);
        for (size_t k = i; k < end; ++k) {
          engine->Push(input.events[k], oij::MonotonicNowUs());
        }
      }
      if (end - i < kWatermarkEvery) break;  // a partial last block
      ScopedSpan span(driver, "driver.watermark", kDriverThread);
      const oij::Timestamp wm = input.block_watermarks[block++];
      schedule.Add(wm, oij::MonotonicNowNs());
      engine->SignalWatermark(wm);
    }
    schedule.SetFinishDue(oij::MonotonicNowNs());
    {
      ScopedSpan span(driver, "driver.finish", kDriverThread);
      stats = engine->Finish();
    }
    rep.ingest_s =
        static_cast<double>(oij::MonotonicNowNs() - ingest_start) / 1e9;
    if (sampler) sampler->Stop();
  }
  rep.peak_rss_mb = peak.PeakMb();
  rep.tuples = n;

  const ResultTally tally = sink.Collect();
  rep.diff = CompareDigests(
      opt.expected != nullptr ? *opt.expected : input.expected, tally.digest);
  rep.delays_ms = DelaysMs(tally.samples, schedule);
  rep.ok = stats.health.ok() && stats.input_tuples == n;
  if (!rep.ok) {
    rep.error = "engine health " + stats.health.ToString() + ", " +
                std::to_string(stats.input_tuples) + " of " +
                std::to_string(n) + " tuples accepted";
  }

  if (opt.cache_sim != nullptr) {
    rep.layers["llc.sim_miss_ratio"] = opt.cache_sim->MissRatio();
  }
  if (opt.trace) {
    const std::vector<Span> all = spans.All();
    rep.self_times = SelfTimes(all);
    const auto& times = rep.self_times;
    auto layer = [&times](const char* name) {
      const auto it = times.find(name);
      return it == times.end() ? LayerTime{} : it->second;
    };
    LayerMetrics& m = rep.layers;
    const LayerTime push = layer("driver.push");
    const LayerTime wm = layer("driver.watermark");
    m["driver.push_ns"] =
        static_cast<double>(push.self_ns) / static_cast<double>(n);
    m["driver.watermark_us"] =
        wm.spans == 0 ? 0.0
                      : static_cast<double>(wm.total_ns) / 1e3 /
                            static_cast<double>(wm.spans);
    m["driver.finish_ms"] =
        static_cast<double>(layer("driver.finish").total_ns) / 1e6;
    m["trace.span_coverage"] =
        ChildCoverage(all, kDriverThread, "driver.run");
    std::vector<double> delays = rep.delays_ms;
    m["transport.release_delay_p50_ms"] = PercentileOf(&delays, 0.5).value;
    AddEngineLayers(stats, rep.ingest_s, opt.joiners, n, &m);
    {
      std::lock_guard<std::mutex> lock(progress_mu);
      AddProgressLayers(progress, options.queue_capacity, options.batch_size,
                        &m);
    }
    if (!opt.span_file.empty()) spans.WriteTsv(opt.span_file);
  }
  return rep;
}

}  // namespace perfbench
