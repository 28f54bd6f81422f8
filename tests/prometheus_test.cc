#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/router_admin.h"
#include "exposition_check.h"
#include "metrics/latency_recorder.h"
#include "metrics/prometheus.h"
#include "server/admin.h"

namespace oij {
namespace {

// ------------------------------------------------------- name/label rules

TEST(Prometheus, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("oij_up"), "oij_up");
  EXPECT_EQ(SanitizeMetricName("ns:metric_total"), "ns:metric_total");
  EXPECT_EQ(SanitizeMetricName("scale-oij.latency"), "scale_oij_latency");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(SanitizeMetricName("a b\tc"), "a_b_c");
}

TEST(Prometheus, EscapeLabelValue) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(Prometheus, LabelsRenderEscaped) {
  PrometheusWriter writer;
  writer.Gauge("g", "help", 1.0, {{"workload", "A\"B\\C\nD"}});
  EXPECT_NE(writer.text().find("g{workload=\"A\\\"B\\\\C\\nD\"} 1"),
            std::string::npos);
}

TEST(Prometheus, HelpTypeHeadersOncePerFamily) {
  PrometheusWriter writer;
  writer.Counter("c_total", "a counter", 1.0, {{"k", "x"}});
  writer.Counter("c_total", "a counter", 2.0, {{"k", "y"}});
  const std::string& text = writer.text();
  size_t first = text.find("# HELP c_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# HELP c_total", first + 1), std::string::npos);
  first = text.find("# TYPE c_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE c_total", first + 1), std::string::npos);
}

// ---------------------------------------------------- histogram invariants

/// Pulls every `name_bucket{le="..."} <count>` sample out of an
/// exposition document, in document order.
std::vector<std::pair<double, uint64_t>> ParseBuckets(
    const std::string& text, const std::string& name) {
  std::vector<std::pair<double, uint64_t>> out;
  const std::string needle = name + "_bucket{le=\"";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const size_t quote = text.find('"', pos);
    const std::string le = text.substr(pos, quote - pos);
    const size_t space = text.find(' ', quote);
    const size_t eol = text.find('\n', space);
    const std::string count = text.substr(space + 1, eol - space - 1);
    out.emplace_back(le == "+Inf" ? std::numeric_limits<double>::infinity()
                                  : std::stod(le),
                     static_cast<uint64_t>(std::stoull(count)));
    pos = eol;
  }
  return out;
}

double ParseGauge(const std::string& text, const std::string& sample) {
  // Anchor at line start so HELP/TYPE comment lines mentioning the
  // family name never match.
  const std::string needle = "\n" + sample + " ";
  size_t pos = text.rfind(needle);
  if (pos != std::string::npos) {
    pos += 1;
  } else if (text.compare(0, sample.size() + 1, sample + " ") == 0) {
    pos = 0;
  }
  EXPECT_NE(pos, std::string::npos) << sample << " missing from:\n" << text;
  if (pos == std::string::npos) return 0.0;
  return std::stod(text.substr(pos + sample.size() + 1));
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndMonotone) {
  LatencyRecorder recorder;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 50'000; ++i) {
    recorder.Record(static_cast<int64_t>(rng() % 2'000'000));
  }
  PrometheusWriter writer;
  writer.Histogram("lat_us", "latencies", recorder);
  const std::string text = writer.Take();

  const auto buckets = ParseBuckets(text, "lat_us");
  ASSERT_GE(buckets.size(), 2u);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1].first, buckets[i].first)
        << "le edges out of order at " << i;
    EXPECT_LE(buckets[i - 1].second, buckets[i].second)
        << "cumulative counts regressed at le=" << buckets[i].first;
  }
  // The mandatory +Inf bucket closes the family and equals _count.
  EXPECT_TRUE(std::isinf(buckets.back().first));
  EXPECT_EQ(buckets.back().second, recorder.count());
  EXPECT_EQ(static_cast<uint64_t>(ParseGauge(text, "lat_us_count")),
            recorder.count());
  EXPECT_EQ(static_cast<int64_t>(ParseGauge(text, "lat_us_sum")),
            recorder.sum_us());
}

TEST(Prometheus, EmptyHistogramStillWellFormed) {
  LatencyRecorder recorder;
  PrometheusWriter writer;
  writer.Histogram("empty_us", "nothing", recorder);
  const std::string text = writer.Take();
  const auto buckets = ParseBuckets(text, "empty_us");
  ASSERT_EQ(buckets.size(), 1u);  // just +Inf
  EXPECT_TRUE(std::isinf(buckets[0].first));
  EXPECT_EQ(buckets[0].second, 0u);
  EXPECT_EQ(ParseGauge(text, "empty_us_count"), 0.0);
}

/// The Percentile <= max invariant must survive rendering: the quantile
/// gauges /metrics exposes can never exceed the rendered max gauge.
TEST(Prometheus, QuantileGaugesNeverExceedMaxThroughMetricsOutput) {
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = true;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20'000; ++i) {
    snap.final_run.stats.latency.Record(
        static_cast<int64_t>(rng() % 5'000'000));
  }
  const std::string text = RenderPrometheusMetrics(snap);

  const double max_us = ParseGauge(text, "oij_result_latency_max_us");
  EXPECT_EQ(static_cast<int64_t>(max_us),
            snap.final_run.stats.latency.max_us());
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    const double v = ParseGauge(
        text, std::string("oij_result_latency_quantile_us{quantile=\"") + q +
                  "\"}");
    EXPECT_LE(v, max_us) << "quantile " << q;
    EXPECT_GE(v, 0.0);
  }

  // The full histogram rides along and stays monotone end-to-end.
  const auto buckets = ParseBuckets(text, "oij_result_latency_us");
  ASSERT_GE(buckets.size(), 2u);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1].second, buckets[i].second);
  }
  EXPECT_EQ(buckets.back().second, snap.final_run.stats.latency.count());
}

TEST(Prometheus, ArenaGaugesRenderFromProgressSample) {
  // The allocator observability chain: WatchdogSample arena fields must
  // surface as the four memory gauges on the /metrics page.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = false;
  snap.progress.arena_bytes = 4 * 64 * 1024;
  snap.progress.arena_live_nodes = 1234;
  snap.progress.ebr_retired_backlog = 56;
  snap.progress.arena_slab_recycles = 7;
  const std::string text = RenderPrometheusMetrics(snap);

  EXPECT_EQ(ParseGauge(text, "oij_arena_bytes"), 4.0 * 64 * 1024);
  EXPECT_EQ(ParseGauge(text, "oij_arena_live_nodes"), 1234.0);
  EXPECT_EQ(ParseGauge(text, "oij_ebr_retired_backlog"), 56.0);
  EXPECT_EQ(ParseGauge(text, "oij_arena_slab_recycles_total"), 7.0);
}

TEST(Prometheus, SnapshotAgeGaugeOmittedUntilFirstSnapshot) {
  // Regression: before the first snapshot commits the engine reports the
  // -1.0 "never" sentinel, and /metrics used to export it verbatim — a
  // negative age that poisons `oij_snapshot_age_seconds > X` alert rules.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.wal.enabled = true;
  snap.snapshot_age_seconds = -1.0;
  std::string text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(text.find("oij_snapshot_age_seconds"), std::string::npos)
      << "sentinel leaked as a sample:\n"
      << text;
  // The rest of the WAL family still renders without it.
  EXPECT_NE(text.find("oij_wal_appended_records_total"), std::string::npos);
  EXPECT_NE(text.find("oij_snapshots_total"), std::string::npos);

  // Zero is a real age (a snapshot committed within the last second) and
  // must render; so must any positive age.
  snap.snapshot_age_seconds = 0.0;
  text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(ParseGauge(text, "oij_snapshot_age_seconds"), 0.0);
  snap.snapshot_age_seconds = 12.5;
  text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(ParseGauge(text, "oij_snapshot_age_seconds"), 12.5);
}

TEST(Statz, SnapshotAgeIsNullUntilFirstSnapshot) {
  // The /statz side of the same fix: the sentinel renders as JSON null,
  // never as -1, and becomes a number once a snapshot exists.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.wal.enabled = true;
  snap.snapshot_age_seconds = -1.0;
  std::string text = RenderStatzJson(snap);
  EXPECT_NE(text.find("\"snapshot_age_seconds\":null"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("-1"), std::string::npos) << text;

  snap.snapshot_age_seconds = 3.0;
  text = RenderStatzJson(snap);
  EXPECT_NE(text.find("\"snapshot_age_seconds\":3"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("null"), std::string::npos) << text;
}

TEST(Statz, ArraysAreCommaSeparatedAndMemoryObjectRenders) {
  // Regression: JsonOut used to omit the separator between bare array
  // elements, so multi-joiner queue_depths rendered as [123] instead of
  // [1,2,3] — invalid JSON that only showed up with >1 joiner.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = true;
  snap.progress.queue_depths = {1, 2, 3};
  snap.progress.consumed = {10, 20, 30};
  snap.progress.arena_bytes = 65536;
  snap.final_run.stats.warnings = {"w1", "w2"};
  snap.final_run.stats.mem.pooled = true;
  snap.final_run.stats.mem.arena_reserved_bytes = 131072;
  const std::string text = RenderStatzJson(snap);

  EXPECT_NE(text.find("\"queue_depths\":[1,2,3]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"consumed\":[10,20,30]"), std::string::npos);
  EXPECT_NE(text.find("\"warnings\":[\"w1\",\"w2\"]"), std::string::npos);
  EXPECT_NE(text.find("\"memory\":{\"arena_bytes\":65536"),
            std::string::npos);
  EXPECT_NE(text.find("\"memory\":{\"pooled\":true,"
                      "\"arena_reserved_bytes\":131072"),
            std::string::npos);

  // Structural sanity: brackets balance and never go negative.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at offset " << i;
  }
  EXPECT_EQ(depth, 0);
}

TEST(Statz, IntegersRenderExactly) {
  // Regression: JsonOut printed integers through double, so values of
  // 1e15 and more came out as %.6g ("1.23457e+15") and 2^53+1 lost its
  // last digit.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.counters.bytes_in = 1234567890123456ull;
  snap.counters.bytes_out = (1ull << 53) + 1;
  snap.counters.frames_in = std::numeric_limits<uint64_t>::max();
  snap.progress.numa_pin_cpus = {-1, 3};
  const std::string text = RenderStatzJson(snap);
  EXPECT_NE(text.find("\"bytes_in\":1234567890123456,"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"bytes_out\":9007199254740993,"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"frames_in\":18446744073709551615,"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"pin_cpus\":[-1,3]"), std::string::npos) << text;
  EXPECT_EQ(text.find("e+"), std::string::npos) << text;
}

TEST(Prometheus, MetricsPageIsParseable) {
  // Every non-comment line must be `name{labels} value` or `name value`,
  // and every referenced family must have HELP and TYPE headers.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "wl\"with\\odd\nchars";
  snap.counters.tuples_in = 123;
  snap.progress.queue_depths = {1, 2, 3};
  snap.progress.consumed = {10, 20, 30};
  snap.run_finished = false;
  const std::string text = RenderPrometheusMetrics(snap);

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_NO_THROW((void)std::stod(value)) << line;
    std::string name = line.substr(0, space);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "bad metric name char in " << line;
    }
  }
  // Live progress gauges carry per-joiner labels.
  EXPECT_NE(text.find("oij_joiner_queue_depth{joiner=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("oij_joiner_consumed_total{joiner=\"2\"} 30"),
            std::string::npos);
  EXPECT_EQ(ExpositionProblems(text), "") << text;

  // Every optional section on: NUMA, the query catalog, the WAL and the
  // finalized run with its histogram.
  snap.progress.busy_ns = {1, 2, 3};
  snap.progress.numa_active = true;
  snap.progress.numa_pin_cpus = {0, 1, -1};
  snap.progress.per_node_arena_bytes = {4096, 8192};
  snap.progress.per_node_arena_live_nodes = {1, 2};
  snap.queries.resize(2);
  snap.queries[0].id = "main";
  snap.queries[1].id = "q1";
  snap.wal.enabled = true;
  snap.snapshot_age_seconds = 2.0;
  snap.run_finished = true;
  snap.final_run.stats.latency.Record(100);
  snap.final_run.stats.latency.Record(5000);
  const std::string full = RenderPrometheusMetrics(snap);
  EXPECT_NE(full.find("oij_result_latency_us_bucket"), std::string::npos);
  EXPECT_NE(full.find("oij_query_results_total{query=\"q1\"}"),
            std::string::npos);
  EXPECT_EQ(ExpositionProblems(full), "") << full;
}

TEST(Prometheus, ExpositionCheckCatchesBrokenPages) {
  EXPECT_EQ(ExpositionProblems("# HELP a x\n# TYPE a gauge\na 1\n"), "");
  // Interleaved families.
  EXPECT_NE(ExpositionProblems("# HELP a x\n# TYPE a gauge\na{k=\"0\"} 1\n"
                               "# HELP b x\n# TYPE b gauge\nb{k=\"0\"} 1\n"
                               "a{k=\"1\"} 1\n"),
            "");
  // Sample before its headers, and a second TYPE.
  EXPECT_NE(ExpositionProblems("a 1\n# HELP a x\n# TYPE a gauge\n"), "");
  EXPECT_NE(ExpositionProblems("# HELP a x\n# TYPE a gauge\n# TYPE a gauge\n"
                               "a 1\n"),
            "");
  // Illegal name, unparseable value, mixed label keys.
  EXPECT_NE(ExpositionProblems("# HELP 9a x\n# TYPE 9a gauge\n9a 1\n"), "");
  EXPECT_NE(ExpositionProblems("# HELP a x\n# TYPE a gauge\na one\n"), "");
  EXPECT_NE(ExpositionProblems("# HELP a x\n# TYPE a gauge\na{k=\"0\"} 1\n"
                               "a{j=\"1\"} 1\n"),
            "");
}

// ------------------------------------------------------------ router pages

RouterBackendRow BackendRow(uint32_t id, Timestamp acked) {
  RouterBackendRow row;
  row.id = id;
  row.state = "active";
  row.active = true;
  row.acked = acked;
  row.replay_buffered_tuples = 10 + id;
  row.probes.probes = 5;
  row.probes.ejections = id;
  return row;
}

/// A two-backend router after both backends acked (20 and 30).
RouterSnapshot TwoBackendSnapshot() {
  RouterSnapshot snap;
  snap.counters.tuples_in = 100;
  snap.counters.tuples_routed = 100;
  snap.counters.acks_received = 4;
  snap.counters.cluster_watermark = 20;
  snap.counters.min_backend_acked = 20;
  snap.backends = {BackendRow(0, 20), BackendRow(1, 30)};
  return snap;
}

TEST(RouterAdmin, MetricsPageKeepsEachFamilyContiguous) {
  // Regression: the per-backend families were emitted inside one loop
  // over backends, so backend 1's first family followed backend 0's last
  // one — invalid exposition once a router has two backends.
  const std::string text = RenderRouterMetrics(TwoBackendSnapshot());
  EXPECT_EQ(ExpositionProblems(text), "") << text;
  EXPECT_NE(text.find("oij_router_backend_healthy{backend=\"1\"} 1"),
            std::string::npos);
  EXPECT_EQ(ParseGauge(text, "oij_router_backend_acked_watermark{backend="
                             "\"1\"}"),
            30.0);
  EXPECT_EQ(ParseGauge(text, "oij_router_cluster_watermark"), 20.0);
}

TEST(RouterAdmin, WatermarksWithoutAnAckAreOmittedOrNull) {
  // Regression: before the first ack the router exported its kMinTimestamp
  // "no ack yet" value as -9.2e18 in /metrics and /statz.
  RouterSnapshot snap = TwoBackendSnapshot();
  snap.counters.cluster_watermark = kMinTimestamp;
  snap.counters.min_backend_acked = kMinTimestamp;
  snap.backends[0].acked = kMinTimestamp;
  snap.backends[1].acked = kMinTimestamp;
  std::string metrics = RenderRouterMetrics(snap);
  EXPECT_EQ(metrics.find("oij_router_cluster_watermark"), std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("oij_router_backend_acked_watermark"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(ExpositionProblems(metrics), "") << metrics;
  std::string statz = RenderRouterStatz(snap);
  EXPECT_NE(statz.find("\"cluster_watermark\":null"), std::string::npos)
      << statz;
  EXPECT_NE(statz.find("\"min_backend_acked\":null"), std::string::npos);
  EXPECT_NE(statz.find("\"id\":0,"), std::string::npos);
  EXPECT_EQ(statz.find("-9223372036854775808"), std::string::npos) << statz;
  size_t nulls = 0;
  for (size_t pos = 0;
       (pos = statz.find("\"acked_watermark\":null", pos)) !=
       std::string::npos;
       ++pos) {
    ++nulls;
  }
  EXPECT_EQ(nulls, 2u) << statz;

  // Backend 0 acks: its sample appears, backend 1's stays omitted, and
  // the cluster watermark waits for both.
  snap.backends[0].acked = 20;
  snap.counters.min_backend_acked = kMinTimestamp;
  metrics = RenderRouterMetrics(snap);
  EXPECT_EQ(ParseGauge(metrics, "oij_router_backend_acked_watermark{backend="
                                "\"0\"}"),
            20.0);
  EXPECT_EQ(metrics.find("oij_router_backend_acked_watermark{backend=\"1\"}"),
            std::string::npos);
  EXPECT_EQ(metrics.find("oij_router_cluster_watermark"), std::string::npos);
  EXPECT_EQ(ExpositionProblems(metrics), "") << metrics;

  // Both acked: every watermark is a number.
  snap = TwoBackendSnapshot();
  statz = RenderRouterStatz(snap);
  EXPECT_NE(statz.find("\"cluster_watermark\":20,"), std::string::npos)
      << statz;
  EXPECT_NE(statz.find("\"min_backend_acked\":20,"), std::string::npos);
  EXPECT_NE(statz.find("\"acked_watermark\":30,"), std::string::npos);
  EXPECT_EQ(statz.find("null"), std::string::npos) << statz;
}

TEST(RouterAdmin, HealthzCountsEligibleBackends) {
  RouterSnapshot snap = TwoBackendSnapshot();
  snap.backends[1].healthy = false;
  int code = 0;
  EXPECT_EQ(RenderRouterHealthz(snap, &code), "ok: 1/2 backends\n");
  EXPECT_EQ(code, 200);
  snap.backends[0].active = false;
  EXPECT_EQ(RenderRouterHealthz(snap, &code), "no eligible backends\n");
  EXPECT_EQ(code, 503);
}

TEST(AdminFront, ServerAndRouterAnswerAlike) {
  // One admin front: the same refusal bodies and the same /metrics
  // content type on both binaries.
  const AdminSnapshot server;
  const RouterSnapshot router;
  HttpRequest request;
  request.method = "POST";
  request.path = "/metrics";
  EXPECT_EQ(HandleAdminRequest(server, request),
            HandleRouterAdminRequest(router, request));
  request.method = "GET";
  request.path = "/nope";
  EXPECT_EQ(HandleAdminRequest(server, request),
            HandleRouterAdminRequest(router, request));
  request.path = "/metrics";
  const std::string type =
      "Content-Type: " + std::string(kMetricsContentType) + "\r\n";
  EXPECT_NE(HandleAdminRequest(server, request).find(type), std::string::npos);
  EXPECT_NE(HandleRouterAdminRequest(router, request).find(type),
            std::string::npos);
}

}  // namespace
}  // namespace oij
