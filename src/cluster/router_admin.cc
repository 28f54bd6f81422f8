#include "cluster/router_admin.h"

#include <cmath>

#include "metrics/json_out.h"
#include "metrics/prometheus.h"

namespace oij {

namespace {

/// A watermark that has a value, or JSON null before the first ack.
void WatermarkOrNull(JsonOut& j, Timestamp watermark) {
  if (watermark == kMinTimestamp) {
    j.Null();
  } else {
    j.Number(watermark);
  }
}

}  // namespace

std::string RenderRouterMetrics(const RouterSnapshot& snap) {
  const RouterCounters& c = snap.counters;
  PrometheusWriter w;
  w.Counter("oij_router_tuples_in_total", "Tuple frames from clients",
            static_cast<double>(c.tuples_in));
  w.Counter("oij_router_tuples_routed_total",
            "Tuples forwarded to a backend",
            static_cast<double>(c.tuples_routed));
  w.Counter("oij_router_tuples_queued_sticky_total",
            "Tuples buffered for a down sticky owner",
            static_cast<double>(c.tuples_queued_sticky));
  w.Counter("oij_router_tuples_failed_over_total",
            "Tuples rerouted off their ring owner",
            static_cast<double>(c.tuples_failed_over));
  w.Counter("oij_router_tuples_dropped_total",
            "Tuples with no eligible backend",
            static_cast<double>(c.tuples_dropped));
  w.Counter("oij_router_watermarks_broadcast_total",
            "Watermarks broadcast to backends",
            static_cast<double>(c.watermarks_broadcast));
  w.Counter("oij_router_acks_total", "Watermark acks from backends",
            static_cast<double>(c.acks_received));
  w.Counter("oij_router_results_fanned_total",
            "Result frames fanned to subscribers",
            static_cast<double>(c.results_fanned));
  w.Counter("oij_router_backend_retries_total",
            "Backend reconnect attempts scheduled",
            static_cast<double>(c.backend_retries));
  w.Counter("oij_router_replayed_tuples_total",
            "Tuples resent to recovered backends",
            static_cast<double>(c.replayed_tuples));
  w.Counter("oij_router_replay_dropped_tuples_total",
            "Replay-buffer tuples lost to overflow or failover",
            static_cast<double>(c.replay_dropped_tuples));
  w.Counter("oij_router_clients_stalled_evicted_total",
            "Clients dropped by the slow-loris sweep",
            static_cast<double>(c.clients_stalled_evicted));
  w.Counter("oij_router_subscribers_evicted_total",
            "Subscribers dropped for egress backlog overflow",
            static_cast<double>(c.subscribers_evicted));
  // Omitted until every backend has acked once: the "no ack yet"
  // sentinel would read as a real, hugely negative watermark.
  if (c.cluster_watermark != kMinTimestamp) {
    w.Gauge("oij_router_cluster_watermark",
            "Min-of-backends cluster watermark",
            static_cast<double>(c.cluster_watermark));
  }
  w.Gauge("oij_router_clients_open", "Open client data connections",
          static_cast<double>(c.connections_open));
  // One loop per family: the exposition format requires each family's
  // samples to be contiguous. A NaN value omits that backend's sample.
  const auto per_backend = [&](const char* name, const char* help,
                               bool counter, auto value) {
    for (const RouterBackendRow& b : snap.backends) {
      const double v = value(b);
      if (std::isnan(v)) continue;
      const PrometheusLabels labels{{"backend", std::to_string(b.id)}};
      if (counter) {
        w.Counter(name, help, v, labels);
      } else {
        w.Gauge(name, help, v, labels);
      }
    }
  };
  using Row = const RouterBackendRow&;
  per_backend("oij_router_backend_healthy",
              "1 when the backend passes health checks", false,
              [](Row b) { return b.healthy ? 1.0 : 0.0; });
  per_backend("oij_router_backend_active",
              "1 when the backend connection is active", false,
              [](Row b) { return b.active ? 1.0 : 0.0; });
  per_backend("oij_router_backend_acked_watermark",
              "Latest durability-acked watermark", false, [](Row b) {
                return b.acked == kMinTimestamp  // no ack yet
                           ? std::nan("")
                           : static_cast<double>(b.acked);
              });
  per_backend("oij_router_backend_replay_buffered_tuples",
              "Un-acked tuples held for replay", false,
              [](Row b) { return double(b.replay_buffered_tuples); });
  per_backend("oij_router_backend_health_probes_total",
              "Active health probes", true,
              [](Row b) { return double(b.probes.probes); });
  per_backend("oij_router_backend_health_failures_total",
              "Failed health probes (active + passive)", true,
              [](Row b) { return double(b.probes.failures); });
  per_backend("oij_router_backend_ejections_total", "Outlier ejections", true,
              [](Row b) { return double(b.probes.ejections); });
  per_backend("oij_router_backend_readmissions_total",
              "Re-admissions after recovery", true,
              [](Row b) { return double(b.probes.readmissions); });
  return w.Take();
}

std::string RenderRouterStatz(const RouterSnapshot& snap) {
  const RouterCounters& c = snap.counters;
  JsonOut j;
  j.Open('{');
  j.Field("clients_accepted", c.connections_accepted);
  j.Field("clients_open", c.connections_open);
  j.Field("clients_stalled_evicted", c.clients_stalled_evicted);
  j.Field("subscribers", c.subscribers);
  j.Field("subscribers_evicted", c.subscribers_evicted);
  j.Field("tuples_in", c.tuples_in);
  j.Field("tuples_routed", c.tuples_routed);
  j.Field("tuples_queued_sticky", c.tuples_queued_sticky);
  j.Field("tuples_failed_over", c.tuples_failed_over);
  j.Field("tuples_dropped", c.tuples_dropped);
  j.Field("watermarks_in", c.watermarks_in);
  j.Field("watermarks_broadcast", c.watermarks_broadcast);
  j.Field("watermarks_ignored", c.watermarks_ignored);
  j.Field("acks_received", c.acks_received);
  j.Field("results_fanned", c.results_fanned);
  j.Field("backend_connects", c.backend_connects);
  j.Field("backend_disconnects", c.backend_disconnects);
  j.Field("backend_retries", c.backend_retries);
  j.Field("replayed_tuples", c.replayed_tuples);
  j.Field("replay_dropped_tuples", c.replay_dropped_tuples);
  j.Field("hellos_rejected", c.hellos_rejected);
  j.Key("cluster_watermark");
  WatermarkOrNull(j, c.cluster_watermark);
  j.Key("min_backend_acked");
  WatermarkOrNull(j, c.min_backend_acked);
  j.Field("run_finished", snap.run_finished);
  j.Key("backends");
  j.Open('[');
  for (const RouterBackendRow& b : snap.backends) {
    j.Open('{');
    j.Field("id", b.id);
    j.Field("state", b.state);
    j.Field("healthy", b.healthy);
    j.Field("durable_exact", b.durable_exact);
    j.Key("acked_watermark");
    WatermarkOrNull(j, b.acked);
    j.Field("replay_buffered_tuples", b.replay_buffered_tuples);
    j.Field("replay_dropped_tuples", b.replay_dropped_tuples);
    j.Field("tuples_sent", b.tuples_sent);
    j.Field("watermarks_sent", b.watermarks_sent);
    j.Field("acks", b.acks);
    j.Field("connects", b.connects);
    j.Field("disconnects", b.disconnects);
    j.Field("replays", b.replays);
    j.Close('}');
  }
  j.Close(']');
  j.Close('}');
  std::string out = j.Take();
  out += '\n';
  return out;
}

std::string RenderRouterHealthz(const RouterSnapshot& snap,
                                int* status_code) {
  size_t eligible = 0;
  for (const RouterBackendRow& b : snap.backends) {
    if (b.active && b.healthy) ++eligible;
  }
  if (eligible == 0) {
    *status_code = 503;
    return "no eligible backends\n";
  }
  *status_code = 200;
  return "ok: " + std::to_string(eligible) + "/" +
         std::to_string(snap.backends.size()) + " backends\n";
}

std::string HandleRouterAdminRequest(const RouterSnapshot& snap,
                                     const HttpRequest& request) {
  return ServeAdminPages(
      request,
      {{"/metrics", kMetricsContentType,
        [&](int*) { return RenderRouterMetrics(snap); }},
       {"/healthz", kTextContentType,
        [&](int* code) { return RenderRouterHealthz(snap, code); }},
       {"/statz", kJsonContentType,
        [&](int*) { return RenderRouterStatz(snap); }}});
}

}  // namespace oij
