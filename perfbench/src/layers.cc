#include "layers.h"

#include <algorithm>

namespace perfbench {

const std::vector<LayerMetricInfo>& LayerMetricTable() {
  static const std::vector<LayerMetricInfo> table = {
      // join driver side: the calls the benchmark makes (in process).
      {"driver.push_ns", "ns", "lower"},
      {"driver.watermark_us", "us", "lower"},
      {"driver.finish_ms", "ms", "lower"},
      // common SPSC rings, from SampleProgress() (admin /metrics served).
      {"driver.blocked_frac", "ratio", "lower"},
      {"transport.ring_depth_mean", "events", "lower"},
      {"transport.release_delay_p50_ms", "ms", "lower"},
      // joiners: join/window/agg.
      {"joiner.busy_frac", "ratio", "higher"},
      {"joiner.busy_ns_per_tuple", "ns", "lower"},
      // sched.
      {"joiner.imbalance", "cv", "lower"},
      {"sched.rebalances", "count", "lower"},
      // skiplist time-travel index.
      {"joiner.effectiveness", "ratio", "higher"},
      {"joiner.matches_per_result", "count", "higher"},
      // col.
      {"col.engaged_frac", "ratio", "higher"},
      {"col.fallbacks", "count", "lower"},
      // mem / ebr.
      {"mem.arena_mb", "MB", "lower"},
      {"mem.peak_buffered_tuples", "count", "lower"},
      {"mem.ebr_backlog", "count", "lower"},
      // metrics cache model (separate CacheSim repetition).
      {"llc.sim_miss_ratio", "ratio", "lower"},
      // engine as a whole: 1-joiner baseline repetition.
      {"scaling.speedup_1j", "x", "higher"},
      // open-loop client and TCP backpressure.
      {"client.send_lag_p99_ms", "ms", "lower"},
      {"client.send_blocked_frac", "ratio", "lower"},
      // net codec, timed around the client's calls.
      {"net.encode_ns", "ns", "lower"},
      {"net.decode_ns", "ns", "lower"},
      // server driver loop and egress.
      {"server.loop_cpu_frac", "ratio", "lower"},
      {"server.ingest_delay_p50_ms", "ms", "lower"},
      {"egress.delay_p50_ms", "ms", "lower"},
      {"egress.bytes_per_result", "B", "lower"},
      {"server.subscribers_evicted", "count", "lower"},
      // wal.
      {"wal.bytes_per_tuple", "B", "lower"},
      {"wal.fsyncs_per_s", "1/s", "lower"},
      {"wal.unsynced_records", "count", "lower"},
      // the served path end to end (traced wire leg).
      {"served.ingest_tps", "tuples/s", "higher"},
      {"served.delay_p50_ms", "ms", "lower"},
      {"served.delay_p99_ms", "ms", "lower"},
      {"served.within_20ms_ratio", "ratio", "higher"},
      // cluster router.
      {"router.loop_cpu_frac", "ratio", "lower"},
      {"router.tuples_dropped", "count", "lower"},
      {"router.backend_unhealthy", "ratio", "lower"},
      {"router.ingest_tps", "tuples/s", "higher"},
      {"router.delay_p99_ms", "ms", "lower"},
      // the benchmark itself.
      {"result_error_ratio", "ratio", "lower"},
      {"result_delay_p99_ms", "ms", "lower"},
      {"delay.samples", "count", "higher"},
      {"trace.span_coverage", "ratio", "higher"},
      {"trace.ingest_tps_ratio", "ratio", "higher"},
  };
  return table;
}

void AddEngineLayers(const oij::EngineStats& stats, double ingest_s,
                     uint32_t joiners, uint64_t tuples, LayerMetrics* out) {
  LayerMetrics& m = *out;
  const double busy = static_cast<double>(stats.breakdown.busy_ns);
  const double results =
      stats.results == 0 ? 1.0 : static_cast<double>(stats.results);
  m["joiner.busy_frac"] =
      ingest_s > 0.0 ? busy / (1e9 * ingest_s * joiners) : 0.0;
  m["joiner.busy_ns_per_tuple"] =
      tuples == 0 ? 0.0 : busy / static_cast<double>(tuples);
  m["joiner.imbalance"] = stats.ActualUnbalancedness();
  m["sched.rebalances"] = static_cast<double>(stats.rebalances);
  m["joiner.effectiveness"] =
      stats.visited == 0 ? 1.0
                         : static_cast<double>(stats.matched) /
                               static_cast<double>(stats.visited);
  m["joiner.matches_per_result"] = static_cast<double>(stats.matched) / results;
  m["col.engaged_frac"] = static_cast<double>(stats.columnar_bases) / results;
  m["col.fallbacks"] = static_cast<double>(stats.columnar_fallbacks);
  m["mem.arena_mb"] = std::max(m["mem.arena_mb"],
                               static_cast<double>(
                                   stats.mem.arena_reserved_bytes) /
                                   (1024.0 * 1024.0));
  m["mem.peak_buffered_tuples"] =
      static_cast<double>(stats.peak_buffered_tuples);
  m["mem.ebr_backlog"] = std::max(
      m["mem.ebr_backlog"], static_cast<double>(stats.mem.ebr_retired_backlog));
}

void AddProgressLayers(const std::vector<oij::WatchdogSample>& samples,
                       size_t ring_capacity, size_t batch,
                       LayerMetrics* out) {
  LayerMetrics& m = *out;
  size_t blocked = 0;
  double depth_sum = 0.0;
  size_t depth_n = 0;
  double arena_bytes = 0.0;
  double backlog = 0.0;
  for (const oij::WatchdogSample& s : samples) {
    bool full = false;
    for (size_t d : s.queue_depths) {
      full = full || d + batch >= ring_capacity;
      depth_sum += static_cast<double>(d);
      ++depth_n;
    }
    blocked += full ? 1 : 0;
    arena_bytes = std::max(arena_bytes, static_cast<double>(s.arena_bytes));
    backlog = std::max(backlog, static_cast<double>(s.ebr_retired_backlog));
  }
  m["driver.blocked_frac"] =
      samples.empty() ? 0.0
                      : static_cast<double>(blocked) /
                            static_cast<double>(samples.size());
  m["transport.ring_depth_mean"] =
      depth_n == 0 ? 0.0 : depth_sum / static_cast<double>(depth_n);
  m["mem.arena_mb"] =
      std::max(m["mem.arena_mb"], arena_bytes / (1024.0 * 1024.0));
  m["mem.ebr_backlog"] = std::max(m["mem.ebr_backlog"], backlog);
}

void FillMissingLayers(LayerMetrics* out) {
  for (const LayerMetricInfo& info : LayerMetricTable()) {
    out->emplace(info.name, 0.0);
  }
}

}  // namespace perfbench
