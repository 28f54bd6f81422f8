#include "bench.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>

#include "isolate.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "stream/generator.h"
#include "stream/presets.h"

namespace perfbench {

namespace {

// Sizes: each workload's event span covers many window+lateness spans
// (A: 10 s of event time over 2 s spans; default: 1.5 s over 1.1 ms), so
// most results are released by watermarks during the run rather than by
// Finish(). Two joiners leave the fourth vCPU to the benchmark's own
// samplers, the engine watchdog and the OS; see README.md for why each
// workload exists and why this is not nproc - 1.
const WorkloadPlan kPlans[] = {
    {"dense-a", "A", 1'200'000, 2, Path::kInProcess, 0, 0},
    {"sparse-default", "default", 1'500'000, 2, Path::kInProcess, 800'000,
     250'000},
};

#ifndef PERFBENCH_ORACLE_SOURCE_HASH
#define PERFBENCH_ORACLE_SOURCE_HASH "unknown"
#endif

/// Folds `value` into the running hash `h` (splitmix64 finalizer).
uint64_t HashIn(uint64_t h, uint64_t value) {
  uint64_t z = h + value + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::atomic<uint64_t> g_sink_generation{1};

struct LocalTally {
  uint64_t generation = 0;
  ResultTally* tally = nullptr;
};
thread_local LocalTally t_local;

}  // namespace

bool FindPlan(const std::string& name, WorkloadPlan* out) {
  for (const WorkloadPlan& plan : kPlans) {
    if (plan.name == name) {
      *out = plan;
      return true;
    }
  }
  return false;
}

uint64_t InputHash(const std::vector<oij::StreamEvent>& events,
                   const oij::QuerySpec& query) {
  uint64_t h = 0;
  for (const int64_t v : {static_cast<int64_t>(query.window.pre),
                          static_cast<int64_t>(query.window.fol),
                          static_cast<int64_t>(query.lateness_us),
                          static_cast<int64_t>(query.agg),
                          static_cast<int64_t>(query.emit_mode),
                          static_cast<int64_t>(query.late_policy)}) {
    h = HashIn(h, static_cast<uint64_t>(v));
  }
  for (const oij::StreamEvent& ev : events) {
    h = HashIn(h, static_cast<uint64_t>(ev.stream));
    h = HashIn(h, static_cast<uint64_t>(ev.tuple.ts));
    h = HashIn(h, ev.tuple.key);
    h = HashIn(h, std::bit_cast<uint64_t>(ev.tuple.payload));
  }
  return h;
}

bool PrepareInput(const WorkloadPlan& plan, uint64_t seed,
                  const std::string& cache_dir, PreparedInput* out,
                  std::string* error) {
  oij::WorkloadSpec& w = out->workload;
  if (!oij::FindPreset(plan.preset, &w)) {
    *error = "unknown preset " + plan.preset;
    return false;
  }
  w.seed = seed;
  w.total_tuples = plan.tuples;
  w.pace_rate_per_sec = 0;
  const oij::Status valid = w.Validate();
  if (!valid.ok()) {
    *error = valid.ToString();
    return false;
  }

  out->query = oij::QuerySpec{};
  out->query.window = w.window;
  out->query.lateness_us = w.lateness_us;
  out->query.agg = oij::AggKind::kSum;
  out->query.emit_mode = oij::EmitMode::kWatermark;

  out->events.clear();
  out->events.reserve(plan.tuples);
  out->block_watermarks.clear();
  oij::WorkloadGenerator gen(w);
  oij::WatermarkTracker tracker(w.lateness_us);
  oij::StreamEvent ev;
  while (gen.Next(&ev)) {
    out->events.push_back(ev);
    tracker.Observe(ev.tuple.ts);
    if (out->events.size() % kWatermarkEvery == 0) {
      out->block_watermarks.push_back(tracker.watermark());
    }
  }

  out->input_hash = InputHash(out->events, out->query);

  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  if (ec) {
    *error = "cannot create " + cache_dir + ": " + ec.message();
    return false;
  }
  out->expected =
      OracleDigest(*out, out->events.size(), cache_dir, &out->oracle_cached);
  return true;
}

ResultDigest OracleDigest(const PreparedInput& input, size_t tuples,
                          const std::string& cache_dir, bool* cached) {
  // Keyed on what decides the digest: the oracle's and the digest's
  // sources, the input with its query, and the prefix fed.
  char key[32];
  std::snprintf(key, sizeof(key), "%016llx",
                static_cast<unsigned long long>(input.input_hash));
  const std::string path = cache_dir + "/oracle-" +
                           PERFBENCH_ORACLE_SOURCE_HASH + "-" + key + "-" +
                           std::to_string(tuples) + ".digest";
  ResultDigest digest;
  *cached = digest.Load(path);
  if (*cached) return digest;
  auto oracle = [&input, tuples] {
    const std::vector<oij::StreamEvent> prefix(
        input.events.begin(),
        input.events.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(tuples, input.events.size())));
    ResultDigest d;
    for (const oij::ReferenceResult& r :
         oij::ReferenceJoin(prefix, input.query)) {
      d.Add(r.base, r.match_count, r.aggregate);
    }
    return d.Encode();
  };
  // The oracle's allocations stay in a child process, so the benchmark's
  // heap is the same whether the digest came from the cache or not.
  std::string bytes;
  std::string error;
  if (!RunIsolated(oracle, &bytes, &error) || !digest.Decode(bytes)) {
    digest.Decode(oracle());
  }
  // A failed save only costs the next run the oracle again.
  digest.Save(path);
  return digest;
}

void ResultTally::Add(const oij::JoinResult& result, oij::Timestamp fol,
                      int64_t delivered_ns) {
  const uint64_t id =
      digest.Add(result.base, result.match_count, result.aggregate);
  // High bits: the low bits already chose the digest bucket.
  if (((id >> 40) & kDelaySampleMask) == 0) {
    samples.push_back({result.base.ts + fol, delivered_ns, result.emit_us});
  }
}

TallySink::TallySink(oij::Timestamp fol)
    : fol_(fol), generation_(g_sink_generation.fetch_add(1)) {}

ResultTally* TallySink::Local() {
  if (t_local.generation == generation_) return t_local.tally;
  std::lock_guard<std::mutex> lock(mu_);
  tallies_.push_back(std::make_unique<ResultTally>());
  t_local = {generation_, tallies_.back().get()};
  return t_local.tally;
}

void TallySink::OnResult(const oij::JoinResult& result) {
  Local()->Add(result, fol_, oij::MonotonicNowNs());
}

ResultTally TallySink::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResultTally all;
  for (const auto& t : tallies_) {
    all.digest.Merge(t->digest);
    all.samples.insert(all.samples.end(), t->samples.begin(),
                       t->samples.end());
  }
  return all;
}

PeakRss::PeakRss() : peak_mb_(ResidentMb()) {
  sampler_ = std::make_unique<Sampler>(5, [this] {
    const double now = ResidentMb();
    std::lock_guard<std::mutex> lock(mu_);
    if (now > peak_mb_) peak_mb_ = now;
  });
}

double PeakRss::PeakMb() {
  sampler_->Stop();
  std::lock_guard<std::mutex> lock(mu_);
  return peak_mb_;
}

std::vector<double> DelaysMs(const std::vector<DelaySample>& samples,
                             const ReleaseSchedule& schedule) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const DelaySample& s : samples) {
    out.push_back(static_cast<double>(s.delivered_ns -
                                      schedule.ReleaseDueNs(s.window_end)) /
                  1e6);
  }
  return out;
}

}  // namespace perfbench
