#include "server/server.h"

#include <utility>

#include "common/clock.h"
#include "core/run_summary.h"

namespace oij {

namespace {

bool SameSpec(const QuerySpec& a, const QuerySpec& b) {
  return a.window.pre == b.window.pre && a.window.fol == b.window.fol &&
         a.lateness_us == b.lateness_us && a.agg == b.agg &&
         a.emit_mode == b.emit_mode && a.late_policy == b.late_policy;
}

}  // namespace

/// Joiner threads call OnResult concurrently; frames are encoded under a
/// mutex into one egress buffer the loop thread swaps out. The wakeup is
/// only issued on the empty->non-empty transition, so a result burst
/// costs one pipe write, not one per result.
class OijServer::EgressSink : public ResultSink {
 public:
  explicit EgressSink(EventLoop* loop) : loop_(loop) {}

  void OnResult(const JoinResult& result) override {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_empty = buffer_.empty();
      AppendResultFrame(&buffer_, result);
      ++pending_;
    }
    if (was_empty) loop_->Wakeup();
  }

  /// Swaps out everything buffered; `count` reports how many results.
  std::string Take(uint64_t* count) {
    std::lock_guard<std::mutex> lock(mu_);
    *count = pending_;
    pending_ = 0;
    std::string out = std::move(buffer_);
    buffer_.clear();
    return out;
  }

 private:
  EventLoop* loop_;
  std::mutex mu_;
  std::string buffer_;
  uint64_t pending_ = 0;
};

OijServer::OijServer(const ServerConfig& config)
    : config_(config),
      conns_(&loop_, config.max_subscriber_backlog_bytes,
             {.on_frame =
                  [this](Conn* conn, const WireFrame& frame) {
                    return HandleFrame(conn, frame);
                  },
              .on_admin = [this](const HttpRequest& request) {
                return HandleAdmin(request);
              }}) {}

OijServer::~OijServer() { Shutdown(); }

Status OijServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (!loop_.ok()) return Status::Internal("event loop init failed");

  Status s = conns_.Listen(config_.bind_address, config_.data_port,
                           config_.admin_port);
  if (!s.ok()) return s;

  sink_ = std::make_unique<EgressSink>(&loop_);
  engine_ =
      CreateEngine(config_.engine, config_.query, config_.options, sink_.get());
  s = engine_->Start();
  if (!s.ok()) {
    conns_.Shutdown();
    engine_.reset();
    return s;
  }
  if (config_.recover) {
    // Build the replay plan here (loop thread not yet running, so this
    // still satisfies the single-driver contract); a corrupt manifest or
    // snapshot fails Start rather than serving from partial state. The
    // replay itself is stepped by ServeLoop.
    s = engine_->BeginRecovery();
    if (!s.ok()) {
      engine_->Finish();
      conns_.Shutdown();
      engine_.reset();
      return s;
    }
  }

  started_ns_ = MonotonicNowNs();
  started_ = true;
  stop_.store(false, std::memory_order_release);
  // The loop thread takes over as the engine's single driver thread; the
  // thread-creation edge orders it after Start().
  loop_thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void OijServer::Shutdown() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  loop_.Wakeup();
  if (loop_thread_.joinable()) loop_thread_.join();
  started_ = false;
}

ServerCounters OijServer::CountersSnapshot() const {
  ServerCounters c;
  static_cast<ConnCounters&>(c) = conns_.Counters();
  c.tuples_in = tuples_in_.load(std::memory_order_relaxed);
  c.watermarks_in = watermarks_in_.load(std::memory_order_relaxed);
  c.results_streamed = results_streamed_.load(std::memory_order_relaxed);
  c.watermark_acks = watermark_acks_.load(std::memory_order_relaxed);
  return c;
}

RunResult OijServer::FinalRun() const {
  std::lock_guard<std::mutex> lock(final_run_mu_);
  return final_run_;
}

void OijServer::ServeLoop() {
  // Drive WAL replay in chunks on the loop thread (the engine's single
  // driver thread), interleaving short polls so the admin plane answers
  // during recovery (/healthz 503 "recovering") while HandleFrame
  // rejects data tuples. Replay is bounded by the log suffix, so stop_
  // is honored only after the replayed state is complete — exiting
  // mid-replay would finalize a half-restored engine.
  while (engine_->Recovering()) {
    engine_->RecoveryStep(4096);
    loop_.Poll(/*timeout_ms=*/0);
    DrainEgress();
  }
  while (!stop_.load(std::memory_order_acquire)) {
    loop_.Poll(/*timeout_ms=*/50);
    DrainEgress();
  }
  if (!run_finished_.load(std::memory_order_acquire)) FinalizeRun();
  FlushAllBeforeExit();
  conns_.Shutdown();
}

bool OijServer::HandleFrame(Conn* conn, const WireFrame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      // Handshake is optional (bare clients keep working); the table
      // already refused a misplaced or incompatible one.
      if (engine_->Recovering()) {
        // A well-meaning peer this early is told to come back; the
        // router treats it like a failed connect and backs off.
        conns_.SendError(conn, "engine recovering; retry later");
        return false;
      }
      conn->wants_acks = (frame.hello.flags & kHelloWantAcks) != 0;
      HelloInfo reply;
      reply.recovered_watermark = engine_->RecoveredWatermark();
      const DurabilityOptions& d = config_.options.durability;
      if (d.enabled() && d.fsync == FsyncPolicy::kPerBatch &&
          d.recover_to_watermark) {
        reply.flags |= kHelloDurableExact;
      }
      std::string out;
      AppendHelloFrame(&out, reply);
      const int fd = conn->tcp.fd();
      conn->tcp.QueueWrite(out);
      conns_.Flush(conn);
      return conns_.Find(fd) != nullptr;
    }
    case FrameType::kTuple: {
      tuples_in_.fetch_add(1, std::memory_order_relaxed);
      ++conn->tuples_received;
      if (Refused(conn, "tuple")) return false;
      if (!meter_started_) {
        meter_.Start();
        meter_started_ = true;
      }
      engine_->Push(frame.event, MonotonicNowUs());
      return true;
    }
    case FrameType::kWatermark: {
      watermarks_in_.fetch_add(1, std::memory_order_relaxed);
      const bool applied = !run_finished_.load(std::memory_order_relaxed) &&
                           !engine_->Recovering();
      if (applied) engine_->SignalWatermark(frame.watermark);
      if (applied && conn->wants_acks) {
        // SignalWatermark has already passed the WAL commit barrier
        // (under kPerBatch, a full sync), so this ack certifies every
        // earlier tuple on this connection as durable — the router
        // trims its replay buffer on it.
        std::string out;
        AppendWatermarkAckFrame(&out, frame.watermark,
                                conn->tuples_received);
        watermark_acks_.fetch_add(1, std::memory_order_relaxed);
        const int fd = conn->tcp.fd();
        conn->tcp.QueueWrite(out);
        conns_.Flush(conn);
        return conns_.Find(fd) != nullptr;
      }
      return true;
    }
    case FrameType::kSubscribe:
      conns_.Subscribe(conn);
      return true;
    case FrameType::kFinish: {
      if (engine_->Recovering()) {
        conns_.SendError(conn, "engine recovering; finish rejected");
        return false;
      }
      const int fd = conn->tcp.fd();
      if (!run_finished_.load(std::memory_order_relaxed)) FinalizeRun();
      // FinalizeRun may have flushed-and-closed this very connection (it
      // was a subscriber); re-resolve before touching it again.
      conn = conns_.Find(fd);
      if (conn == nullptr) return false;
      // The summary answers the finisher too (subscribers already got
      // theirs inside FinalizeRun); either way this connection is done.
      if (!conn->subscriber) {
        std::string out;
        AppendTextFrame(&out, FrameType::kSummary, summary_text_);
        conn->tcp.QueueWrite(out);
      }
      conn->tcp.set_close_after_flush(true);
      conns_.Flush(conn);
      return false;
    }
    case FrameType::kAddQuery: {
      if (Refused(conn, "catalog change")) return false;
      // The router re-broadcasts catalog frames to backends it
      // reconnects, so a duplicate add carrying an identical spec is an
      // idempotent no-op; a conflicting spec under the same id is a real
      // error.
      for (const QueryStatsRow& row : engine_->QuerySnapshot()) {
        if (row.active && row.id == frame.query_id &&
            SameSpec(row.spec, frame.query_spec)) {
          return true;
        }
      }
      const Status s = engine_->AddQuery(frame.query_id, frame.query_spec);
      if (!s.ok()) {
        conns_.SendError(conn, "add-query rejected: " + s.ToString());
        return false;
      }
      return true;
    }
    case FrameType::kRemoveQuery: {
      if (Refused(conn, "catalog change")) return false;
      const Status s = engine_->RemoveQuery(frame.query_id);
      // NotFound = this remove already landed (router re-delivery);
      // treating it as success keeps catalog frames idempotent.
      if (!s.ok() && s.code() != Status::Code::kNotFound) {
        conns_.SendError(conn, "remove-query rejected: " + s.ToString());
        return false;
      }
      return true;
    }
    case FrameType::kWatermarkAck:
    case FrameType::kResult:
    case FrameType::kSummary:
    case FrameType::kError:
      conns_.SendError(conn,
                       "server-to-client frame type received from client");
      return false;
  }
  return true;
}

bool OijServer::Refused(Conn* conn, const char* what) {
  const char* state = engine_->Recovering() ? "engine recovering"
                      : run_finished_.load(std::memory_order_relaxed)
                          ? "run already finalized"
                          : nullptr;
  if (state == nullptr) return false;
  conns_.SendError(conn, std::string(state) + "; " + what + " rejected");
  return true;
}

void OijServer::FinalizeRun() {
  // Net thread == driver thread: flush staged transport batches, then
  // drain and stop the joiners. Results keep arriving in the egress sink
  // until Finish returns; the drain below then delivers every one of
  // them before any summary frame, so a subscriber always sees
  // [results..., summary].
  engine_->FlushPending();
  // Durability barrier for the graceful-drain path: every accepted
  // record reaches disk before the joiners stop, so a SIGTERM'd server
  // loses nothing regardless of the configured fsync policy.
  engine_->Sync();
  RunResult run;
  run.stats = engine_->Finish();
  if (meter_started_) meter_.Stop();
  run.tuples = run.stats.input_tuples;
  run.elapsed_seconds = meter_started_ ? meter_.elapsed_seconds() : 0.0;
  run.throughput_tps =
      run.elapsed_seconds > 0.0
          ? static_cast<double>(run.tuples) / run.elapsed_seconds
          : 0.0;

  {
    std::lock_guard<std::mutex> lock(final_run_mu_);
    final_run_ = run;
  }
  summary_text_ =
      SummarizeRun(std::string(EngineKindName(config_.engine)), run);
  run_finished_.store(true, std::memory_order_release);

  DrainEgress();
  std::string summary_frame;
  AppendTextFrame(&summary_frame, FrameType::kSummary, summary_text_);
  conns_.SendFinal(summary_frame);
}

void OijServer::DrainEgress() {
  uint64_t count = 0;
  const std::string frames = sink_->Take(&count);
  if (frames.empty()) return;
  if (conns_.FanOut(frames)) {
    results_streamed_.fetch_add(count, std::memory_order_relaxed);
  }
}

AdminSnapshot OijServer::BuildSnapshot() {
  AdminSnapshot snap;
  snap.engine_name = std::string(EngineKindName(config_.engine));
  snap.workload_name = config_.workload_name;
  snap.counters = CountersSnapshot();
  snap.progress = engine_ != nullptr ? engine_->SampleProgress()
                                     : WatchdogSample{};
  snap.health = engine_ != nullptr ? engine_->Health() : Status::OK();
  if (engine_ != nullptr) {
    snap.recovering = engine_->Recovering();
    snap.queries = engine_->QuerySnapshot();
    snap.wal = engine_->SampleWal();
    if (snap.wal.last_snapshot_mono_us > 0) {
      snap.snapshot_age_seconds =
          static_cast<double>(MonotonicNowUs() -
                              snap.wal.last_snapshot_mono_us) /
          1e6;
    }
  }
  snap.uptime_seconds =
      static_cast<double>(MonotonicNowNs() - started_ns_) / 1e9;
  snap.run_finished = run_finished_.load(std::memory_order_acquire);
  if (snap.run_finished) {
    std::lock_guard<std::mutex> lock(final_run_mu_);
    snap.final_run = final_run_;
  }
  return snap;
}

std::string OijServer::HandleAdmin(const HttpRequest& request) {
  // The catalog-mutating verbs run here, on the loop thread — which is
  // the engine's single driver thread, so AddQuery/RemoveQuery need no
  // extra synchronization. Everything else routes to the pure renderer.
  const bool add = request.method == "POST" && request.path == "/queries";
  const bool remove =
      request.method == "DELETE" && request.path.rfind("/queries/", 0) == 0;
  if (!add && !remove) return HandleAdminRequest(BuildSnapshot(), request);
  if (engine_->Recovering()) {
    return BuildHttpResponse(
        503, kJsonContentType,
        "{\"error\":{\"code\":\"Unavailable\","
        "\"message\":\"engine recovering; retry later\"}}\n");
  }
  if (run_finished_.load(std::memory_order_relaxed)) {
    return BuildQueryErrorResponse(
        Status::FailedPrecondition("run already finalized"));
  }
  return add ? HandleAddQueryRequest(request)
             : HandleRemoveQueryRequest(request.path.substr(9));
}

std::string OijServer::HandleAddQueryRequest(const HttpRequest& request) {
  std::string id;
  QuerySpec spec;
  Status s = ParseQuerySpecJson(request.body, config_.query, &id, &spec);
  if (!s.ok()) return BuildQueryErrorResponse(s);
  s = engine_->AddQuery(id, spec);
  if (!s.ok()) return BuildQueryErrorResponse(s);
  // AddQuery validated the id against [A-Za-z0-9_.-]{1,64}, so embedding
  // it unescaped is safe.
  return BuildHttpResponse(200, kJsonContentType,
                           "{\"added\":\"" + id + "\"}\n");
}

std::string OijServer::HandleRemoveQueryRequest(const std::string& id) {
  const Status s = engine_->RemoveQuery(id);
  if (!s.ok()) return BuildQueryErrorResponse(s);
  return BuildHttpResponse(200, kJsonContentType,
                           "{\"removed\":\"" + id + "\"}\n");
}

void OijServer::FlushAllBeforeExit() {
  // A short, bounded courtesy window so final summaries reach slow
  // subscribers; anything still stuck afterwards is abandoned.
  const int64_t deadline = MonotonicNowNs() + 500'000'000;  // 500 ms
  while (MonotonicNowNs() < deadline && conns_.FlushAll()) {
    loop_.Poll(/*timeout_ms=*/10);
  }
}

}  // namespace oij
