#ifndef OIJ_CLUSTER_ROUTER_ADMIN_H_
#define OIJ_CLUSTER_ROUTER_ADMIN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/health_checker.h"
#include "common/types.h"
#include "net/conn_table.h"
#include "net/http.h"

namespace oij {

/// Cross-thread router counters (atomics snapshot, like ServerCounters).
/// The ConnCounters base counts client connections (`clients_accepted`
/// and `clients_open` on the admin pages). The two watermarks read
/// kMinTimestamp until every backend has acked once; the admin pages
/// then omit (/metrics) or null (/statz) them.
struct RouterCounters : ConnCounters {
  uint64_t clients_stalled_evicted = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_routed = 0;
  uint64_t tuples_queued_sticky = 0;  ///< buffered for a down sticky owner
  uint64_t tuples_failed_over = 0;    ///< rerouted off the owner
  uint64_t tuples_dropped = 0;        ///< no eligible backend at all
  uint64_t watermarks_in = 0;
  uint64_t watermarks_broadcast = 0;
  uint64_t watermarks_ignored = 0;  ///< non-increasing, not broadcast
  uint64_t acks_received = 0;
  uint64_t results_fanned = 0;
  uint64_t backend_connects = 0;
  uint64_t backend_disconnects = 0;
  uint64_t backend_retries = 0;
  uint64_t replayed_tuples = 0;  ///< resent after backend recovery
  uint64_t replay_dropped_tuples = 0;
  int64_t cluster_watermark = kMinTimestamp;
  int64_t min_backend_acked = kMinTimestamp;
};

/// One backend as the admin pages show it.
struct RouterBackendRow {
  uint32_t id = 0;
  std::string_view state;  ///< "disconnected", ..., "active"
  bool active = false;
  bool healthy = true;  ///< the router's health verdict
  bool durable_exact = false;
  /// Latest durability-acked watermark; kMinTimestamp = no ack yet.
  Timestamp acked = kMinTimestamp;
  uint64_t replay_buffered_tuples = 0;
  uint64_t replay_dropped_tuples = 0;
  uint64_t tuples_sent = 0;
  uint64_t watermarks_sent = 0;
  uint64_t acks = 0;
  uint64_t connects = 0;
  uint64_t disconnects = 0;
  uint64_t replays = 0;
  HealthChecker::TargetStats probes;
};

/// Everything the router's admin pages render, assembled on its loop
/// thread so rendering is pure (unit-testable without sockets).
struct RouterSnapshot {
  RouterCounters counters;
  bool run_finished = false;
  std::vector<RouterBackendRow> backends;
};

/// Prometheus text-exposition body for the router's GET /metrics.
std::string RenderRouterMetrics(const RouterSnapshot& snap);

/// JSON body for the router's GET /statz.
std::string RenderRouterStatz(const RouterSnapshot& snap);

/// Body for the router's GET /healthz: 200 while at least one backend is
/// eligible (active and healthy), else 503.
std::string RenderRouterHealthz(const RouterSnapshot& snap, int* status_code);

/// Routes one parsed admin request to the pages above and wraps the
/// result in a complete HTTP/1.0 response.
std::string HandleRouterAdminRequest(const RouterSnapshot& snap,
                                     const HttpRequest& request);

}  // namespace oij

#endif  // OIJ_CLUSTER_ROUTER_ADMIN_H_
