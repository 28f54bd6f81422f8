#include "cluster/router.h"

#include <algorithm>
#include <utility>

#include "net/socket.h"

namespace oij {

namespace {

const char* BackendStateName(uint8_t state) {
  switch (state) {
    case 0: return "disconnected";
    case 1: return "connecting";
    case 2: return "handshaking";
    case 3: return "active";
  }
  return "?";
}

}  // namespace

OijRouter::OijRouter(const RouterConfig& config)
    : config_(config),
      conns_(&loop_, config.max_subscriber_backlog_bytes,
             {.on_frame =
                  [this](Conn* conn, const WireFrame& frame) {
                    return HandleClientFrame(conn, frame);
                  },
              .on_admin =
                  [this](const HttpRequest& request) {
                    return HandleRouterAdminRequest(BuildSnapshot(),
                                                    request);
                  },
              .on_frames_done = [this] { FlushBackends(); }}),
      ring_(config.ring_vnodes) {}

OijRouter::~OijRouter() { Shutdown(); }

Status OijRouter::Start() {
  if (started_) return Status::FailedPrecondition("router already started");
  if (!loop_.ok()) return Status::Internal("event loop init failed");
  if (config_.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }

  const Status s = conns_.Listen(config_.bind_address, config_.data_port,
                                 config_.admin_port);
  if (!s.ok()) return s;

  health_ = std::make_unique<HealthChecker>(
      &loop_, &timers_, config_.health,
      [this](uint32_t id, bool healthy) { OnHealthTransition(id, healthy); });
  for (uint32_t i = 0; i < config_.backends.size(); ++i) {
    backends_.push_back(
        std::make_unique<Backend>(i, config_.backends[i], config_));
    ring_.AddBackend(i);
    cluster_wm_.Add(i);
    health_->AddTarget(i, config_.backends[i].host,
                       config_.backends[i].admin_port);
  }

  started_ = true;
  stop_.store(false, std::memory_order_release);
  loop_thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void OijRouter::Shutdown() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  loop_.Wakeup();
  if (loop_thread_.joinable()) loop_thread_.join();
  started_ = false;
}

RouterCounters OijRouter::CountersSnapshot() const {
  RouterCounters c;
  static_cast<ConnCounters&>(c) = conns_.Counters();
  c.clients_stalled_evicted =
      clients_stalled_evicted_.load(std::memory_order_relaxed);
  c.tuples_in = tuples_in_.load(std::memory_order_relaxed);
  c.tuples_routed = tuples_routed_.load(std::memory_order_relaxed);
  c.tuples_queued_sticky =
      tuples_queued_sticky_.load(std::memory_order_relaxed);
  c.tuples_failed_over = tuples_failed_over_.load(std::memory_order_relaxed);
  c.tuples_dropped = tuples_dropped_.load(std::memory_order_relaxed);
  c.watermarks_in = watermarks_in_.load(std::memory_order_relaxed);
  c.watermarks_broadcast =
      watermarks_broadcast_.load(std::memory_order_relaxed);
  c.watermarks_ignored = watermarks_ignored_.load(std::memory_order_relaxed);
  c.acks_received = acks_received_.load(std::memory_order_relaxed);
  c.results_fanned = results_fanned_.load(std::memory_order_relaxed);
  c.backend_connects = backend_connects_.load(std::memory_order_relaxed);
  c.backend_disconnects =
      backend_disconnects_.load(std::memory_order_relaxed);
  c.backend_retries = backend_retries_.load(std::memory_order_relaxed);
  c.replayed_tuples = replayed_tuples_.load(std::memory_order_relaxed);
  c.replay_dropped_tuples =
      replay_dropped_tuples_.load(std::memory_order_relaxed);
  c.cluster_watermark = cluster_watermark_.load(std::memory_order_relaxed);
  c.min_backend_acked = min_backend_acked_.load(std::memory_order_relaxed);
  c.hellos_rejected +=
      backend_hellos_rejected_.load(std::memory_order_relaxed);
  return c;
}

void OijRouter::ServeLoop() {
  health_->Start();
  for (auto& backend : backends_) StartConnect(backend.get());
  const int64_t sweep_every =
      std::max<int64_t>(100, config_.client_stall_timeout_ms / 4);
  std::function<void()> sweep = [this, sweep_every, &sweep] {
    SweepStalledClients();
    stall_sweep_timer_ = timers_.Schedule(NowMs(), sweep_every, sweep);
  };
  stall_sweep_timer_ = timers_.Schedule(NowMs(), sweep_every, sweep);

  while (!stop_.load(std::memory_order_acquire)) {
    loop_.Poll(timers_.NextTimeoutMs(NowMs(), 50));
    timers_.RunExpired(NowMs());
    if (finish_requested_ && !finish_broadcast_) MaybeFinish();
  }

  health_->Stop();
  for (auto& backend : backends_) {
    if (backend->conn != nullptr) {
      loop_.Remove(backend->conn->fd());
      backend->conn.reset();
    }
  }
  conns_.Shutdown();
}

// --- backend pool ----------------------------------------------------

void OijRouter::StartConnect(Backend* backend) {
  if (backend->conn != nullptr || stop_.load(std::memory_order_relaxed)) {
    return;
  }
  int fd = -1;
  bool in_progress = false;
  const Status s = ConnectTcpNonBlocking(backend->addr.host,
                                         backend->addr.data_port, &fd,
                                         &in_progress);
  if (!s.ok()) {
    BackendFailed(backend, "connect");
    return;
  }
  backend->state = BackendState::kConnecting;
  backend->conn = std::make_unique<TcpConnection>(fd);
  backend->decoder = std::make_unique<WireDecoder>();
  Backend* raw = backend;
  loop_.Add(fd, kLoopWritable,
            [this, raw](uint32_t ready) { OnBackendEvent(raw, ready); });
  backend->connect_timer = timers_.Schedule(
      NowMs(), config_.connect_timeout_ms,
      [this, raw] {
        raw->connect_timer = 0;
        BackendFailed(raw, "connect/handshake timeout");
      });
}

void OijRouter::OnBackendEvent(Backend* backend, uint32_t ready) {
  if (backend->conn == nullptr) return;
  if (ready & kLoopError) {
    BackendFailed(backend, "socket error");
    return;
  }
  if (ready & kLoopWritable) {
    if (backend->state == BackendState::kConnecting) {
      OnBackendConnectWritable(backend);
      if (backend->conn == nullptr) return;
    } else if (backend->conn->FlushWrites() ==
               TcpConnection::IoResult::kError) {
      BackendFailed(backend, "write error");
      return;
    }
    FlushBackend(backend);
    if (backend->conn == nullptr) return;
  }
  if (ready & kLoopReadable) {
    const TcpConnection::IoResult r = backend->conn->ReadReady();
    if (r == TcpConnection::IoResult::kError) {
      BackendFailed(backend, "read error");
      return;
    }
    ProcessBackendInput(backend);
    if (backend->conn == nullptr) return;
    if (r == TcpConnection::IoResult::kEof) {
      if (backend->finish_sent && backend->summary_received) {
        // Orderly close after the summary: the run is over there.
        loop_.Remove(backend->conn->fd());
        backend->conn.reset();
        backend->decoder.reset();
        backend->state = BackendState::kDisconnected;
      } else {
        BackendFailed(backend, "eof");
      }
    }
  }
}

void OijRouter::OnBackendConnectWritable(Backend* backend) {
  if (!FinishConnect(backend->conn->fd()).ok()) {
    BackendFailed(backend, "connect refused");
    return;
  }
  backend->state = BackendState::kHandshaking;
  HelloInfo hello;
  hello.flags = kHelloWantAcks;
  std::string out;
  AppendHelloFrame(&out, hello);
  backend->conn->QueueWrite(out);
}

void OijRouter::ProcessBackendInput(Backend* backend) {
  std::string& in = backend->conn->input();
  backend->decoder->Feed(in);
  in.clear();
  WireFrame frame;
  while (backend->conn != nullptr) {
    const WireDecoder::Result r = backend->decoder->Next(&frame);
    if (r == WireDecoder::Result::kNeedMore) break;
    if (r == WireDecoder::Result::kCorrupt) {
      FanOutResults();
      BackendFailed(backend, "protocol corruption");
      return;
    }
    if (frame.type == FrameType::kResult) {
      // One send per subscriber per read, not per result.
      AppendResultFrame(&result_batch_, frame.result);
      results_fanned_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    FanOutResults();
    if (!HandleBackendFrame(backend, frame)) return;
  }
  FanOutResults();
}

void OijRouter::FanOutResults() {
  if (result_batch_.empty()) return;
  conns_.FanOut(result_batch_);
  result_batch_.clear();
}

bool OijRouter::HandleBackendFrame(Backend* backend,
                                   const WireFrame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      if (backend->state != BackendState::kHandshaking) {
        BackendFailed(backend, "unexpected hello");
        return false;
      }
      if (!frame.hello.Compatible()) {
        // A clean, decoded refusal — do not retry-hammer a peer from
        // the wrong protocol era.
        backend_hellos_rejected_.fetch_add(1, std::memory_order_relaxed);
        BackendFailed(backend, "incompatible peer");
        return false;
      }
      BackendActivated(backend, frame.hello);
      return backend->conn != nullptr;
    case FrameType::kWatermarkAck:
      backend->acks += 1;
      acks_received_.fetch_add(1, std::memory_order_relaxed);
      OnBackendAck(backend, frame.watermark, frame.ack_tuples);
      return true;
    case FrameType::kSummary:
      backend->summary_received = true;
      backend->summary = frame.text;
      if (finish_broadcast_) MaybeFinish();
      return true;
    case FrameType::kError:
      // Typical mid-recovery answer ("engine recovering; retry later")
      // or a finalized-run rejection; either way the connection is
      // done — back off and try again.
      BackendFailed(backend, "backend error frame");
      return false;
    default:
      BackendFailed(backend, "unexpected frame type");
      return false;
  }
}

void OijRouter::BackendActivated(Backend* backend, const HelloInfo& hello) {
  if (backend->connect_timer != 0) {
    timers_.Cancel(backend->connect_timer);
    backend->connect_timer = 0;
  }
  backend->state = BackendState::kActive;
  backend->ever_active = true;
  backend->backoff.Reset();
  backend->connects += 1;
  backend_connects_.fetch_add(1, std::memory_order_relaxed);
  const bool durable = (hello.flags & kHelloDurableExact) != 0;
  backend->durable_exact = durable;

  std::string out;
  AppendControlFrame(&out, FrameType::kSubscribe);
  backend->conn->QueueWrite(out);

  // Catalog convergence: replay the full standing-query journal before
  // any data. A freshly restarted durable backend already restored its
  // catalog from its own WAL manifest and treats the duplicates as
  // no-ops; a wiped or never-connected one catches up here.
  if (!catalog_journal_.empty()) {
    backend->conn->QueueWrite(catalog_journal_);
  }

  if (durable) {
    // The backend recovered exactly to `hello.recovered_watermark`
    // (watermark-cut recovery): everything it acked before the crash
    // survives, nothing past the cut does. Resend exactly the un-acked
    // suffix — sealed segments with their watermark punctuation, then
    // the open tail.
    cluster_wm_.RecordAck(backend->id, hello.recovered_watermark);
    if (hello.recovered_watermark > backend->acked) {
      backend->acked = hello.recovered_watermark;
    }
    std::string replay;
    const uint64_t resent =
        backend->replay.EncodeUnacked(hello.recovered_watermark, &replay);
    if (!replay.empty()) {
      backend->conn->QueueWrite(replay);
      backend->replays += 1;
    }
    backend->tuples_sent += resent;
    replayed_tuples_.fetch_add(resent, std::memory_order_relaxed);
  } else {
    // Bounded-loss mode: this backend's keys failed over while it was
    // gone and its pre-crash state is not exactly reconstructable, so
    // replaying could only manufacture disagreeing results. Account
    // the buffer as lost and start clean.
    replay_dropped_tuples_.fetch_add(backend->replay.buffered_tuples(),
                                     std::memory_order_relaxed);
    backend->replay.Clear();
  }
  FlushBackend(backend);
}

void OijRouter::BackendFailed(Backend* backend, const char* why) {
  (void)why;
  if (backend->connect_timer != 0) {
    timers_.Cancel(backend->connect_timer);
    backend->connect_timer = 0;
  }
  const bool was_active = backend->state == BackendState::kActive;
  if (backend->conn != nullptr) {
    loop_.Remove(backend->conn->fd());
    backend->conn.reset();
    backend->decoder.reset();
  }
  backend->state = BackendState::kDisconnected;
  if (was_active) {
    backend->disconnects += 1;
    backend_disconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  health_->ReportPassiveFailure(backend->id);
  if (!backend->durable_exact && !backend->ever_active) {
    // Never spoke to it; nothing buffered to preserve.
    backend->replay.Clear();
  }
  ScheduleReconnect(backend);
}

void OijRouter::ScheduleReconnect(Backend* backend) {
  if (stop_.load(std::memory_order_relaxed)) return;
  if (backend->retry_timer != 0) return;  // one pending retry at a time
  const int64_t delay = backend->backoff.NextDelayMs();
  backend_retries_.fetch_add(1, std::memory_order_relaxed);
  Backend* raw = backend;
  backend->retry_timer = timers_.Schedule(NowMs(), delay, [this, raw] {
    raw->retry_timer = 0;
    if (raw->state == BackendState::kDisconnected) StartConnect(raw);
  });
}

void OijRouter::OnHealthTransition(uint32_t id, bool healthy) {
  Backend* backend = backends_[id].get();
  backend->health_ok = healthy;
  if (healthy && backend->state == BackendState::kDisconnected) {
    // The admin plane answers again — skip the rest of the backoff.
    if (backend->retry_timer != 0) {
      timers_.Cancel(backend->retry_timer);
      backend->retry_timer = 0;
    }
    StartConnect(backend);
  }
}

void OijRouter::FlushBackend(Backend* backend) {
  if (backend->conn == nullptr) return;
  if (backend->conn->FlushWrites() == TcpConnection::IoResult::kError) {
    BackendFailed(backend, "flush error");
    return;
  }
  uint32_t interest = kLoopReadable;
  if (backend->state == BackendState::kConnecting ||
      backend->conn->wants_write()) {
    interest |= kLoopWritable;
  }
  loop_.SetInterest(backend->conn->fd(), interest);
}

void OijRouter::FlushBackends() {
  for (auto& backend : backends_) {
    if (backend->conn != nullptr && backend->conn->wants_write()) {
      FlushBackend(backend.get());
    }
  }
}

// --- client plane ----------------------------------------------------

bool OijRouter::HandleClientFrame(Conn* conn, const WireFrame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      HelloInfo reply;
      reply.recovered_watermark = cluster_wm_.emitted();
      std::string out;
      AppendHelloFrame(&out, reply);
      const int fd = conn->tcp.fd();
      conn->tcp.QueueWrite(out);
      conns_.Flush(conn);
      return conns_.Find(fd) != nullptr;
    }
    case FrameType::kTuple:
      tuples_in_.fetch_add(1, std::memory_order_relaxed);
      if (run_finished_.load(std::memory_order_relaxed)) {
        conns_.SendError(conn, "run already finalized; tuple rejected");
        return false;
      }
      RouteTuple(frame.event);
      return true;
    case FrameType::kWatermark:
      watermarks_in_.fetch_add(1, std::memory_order_relaxed);
      if (run_finished_.load(std::memory_order_relaxed)) return true;
      if (frame.watermark <= last_broadcast_wm_) {
        // Watermark values key replay segments, so only strictly
        // increasing punctuation is broadcast.
        watermarks_ignored_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      BroadcastWatermark(frame.watermark);
      return true;
    case FrameType::kSubscribe:
      conns_.Subscribe(conn);
      return true;
    case FrameType::kFinish: {
      if (finish_requested_) return true;
      finish_requested_ = true;
      finish_requested_ms_ = NowMs();
      conn->finisher = true;
      // With no backend left to wait for, MaybeFinish completes the run
      // right here and SendFinal may already have closed this connection.
      const int fd = conn->tcp.fd();
      MaybeFinish();
      return conns_.Find(fd) != nullptr;
    }
    case FrameType::kAddQuery:
    case FrameType::kRemoveQuery: {
      if (run_finished_.load(std::memory_order_relaxed)) {
        conns_.SendError(conn,
                         "run already finalized; catalog change rejected");
        return false;
      }
      std::string out;
      if (frame.type == FrameType::kAddQuery) {
        AppendAddQueryFrame(&out, frame.query_id, frame.query_spec);
      } else {
        AppendRemoveQueryFrame(&out, frame.query_id);
      }
      // Journal first (so a backend that is down right now still gets
      // the change on reconnect), then broadcast to the reachable ones.
      catalog_journal_ += out;
      for (auto& backend : backends_) {
        if (Eligible(*backend)) backend->conn->QueueWrite(out);
      }
      return true;
    }
    default:
      conns_.SendError(conn, "unexpected frame type from client");
      return false;
  }
}

void OijRouter::RouteTuple(const StreamEvent& event) {
  const auto eligible = [this](uint32_t id) {
    return Eligible(*backends_[id]);
  };
  const int owner = ring_.PickOwner(event.tuple.key);
  if (owner < 0) {
    tuples_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Backend* target = backends_[static_cast<size_t>(owner)].get();
  if (Eligible(*target)) {
    std::string out;
    AppendTupleFrame(&out, event);
    target->conn->QueueWrite(out);
    target->replay.Append(event);
    target->tuples_sent += 1;
    tuples_routed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (target->durable_exact) {
    // Sticky: the owner runs per_batch + watermark-cut recovery, so
    // queueing through its downtime and replaying on return is exact —
    // rerouting would instead split this key's window state across two
    // backends and corrupt both aggregates.
    target->replay.Append(event);
    tuples_queued_sticky_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int alt = ring_.PickEligible(event.tuple.key, eligible);
  if (alt < 0) {
    tuples_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Backend* failover = backends_[static_cast<size_t>(alt)].get();
  std::string out;
  AppendTupleFrame(&out, event);
  failover->conn->QueueWrite(out);
  failover->replay.Append(event);
  failover->tuples_sent += 1;
  tuples_routed_.fetch_add(1, std::memory_order_relaxed);
  tuples_failed_over_.fetch_add(1, std::memory_order_relaxed);
}

void OijRouter::BroadcastWatermark(Timestamp watermark) {
  last_broadcast_wm_ = watermark;
  std::string frame;
  AppendWatermarkFrame(&frame, watermark);
  for (auto& backend : backends_) {
    // Seal every buffer (sticky-down owners get the punctuation on
    // replay via the segment bound), send to the reachable ones.
    backend->replay.Seal(watermark);
    if (Eligible(*backend)) {
      backend->conn->QueueWrite(frame);
      backend->watermarks_sent += 1;
    }
  }
  watermarks_broadcast_.fetch_add(1, std::memory_order_relaxed);
}

void OijRouter::OnBackendAck(Backend* backend, Timestamp watermark,
                             uint64_t tuples) {
  (void)tuples;
  if (watermark > backend->acked) backend->acked = watermark;
  backend->replay.Ack(watermark);
  replay_dropped_tuples_.store(
      [this] {
        uint64_t total = 0;
        for (const auto& b : backends_) total += b->replay.dropped_tuples();
        return total;
      }(),
      std::memory_order_relaxed);
  cluster_wm_.RecordAck(backend->id, watermark);
  min_backend_acked_.store(cluster_wm_.MinAcked(),
                           std::memory_order_relaxed);
  Timestamp advanced = kMinTimestamp;
  if (cluster_wm_.TryAdvance(&advanced)) {
    cluster_watermark_.store(advanced, std::memory_order_relaxed);
    // Cluster-level punctuation to subscribers: every shard is durable
    // and complete through `advanced`.
    std::string frame;
    AppendWatermarkFrame(&frame, advanced);
    conns_.FanOut(frame);
  }
}

void OijRouter::SweepStalledClients() {
  const int64_t now = NowMs();
  const size_t stalled = conns_.CloseWhere([&](const Conn& conn) {
    return !conn.is_admin && conn.decoder.buffered() > 0 &&
           now - conn.last_frame_ms > config_.client_stall_timeout_ms;
  });
  clients_stalled_evicted_.fetch_add(stalled, std::memory_order_relaxed);
}

// --- finish ----------------------------------------------------------

void OijRouter::MaybeFinish() {
  if (!finish_requested_ || run_finished_.load(std::memory_order_relaxed)) {
    return;
  }
  if (!finish_broadcast_) {
    const bool timed_out =
        NowMs() - finish_requested_ms_ >= config_.finish_timeout_ms;
    if (!timed_out) {
      for (const auto& backend : backends_) {
        if (Eligible(*backend)) continue;
        if (backend->durable_exact ||
            backend->state == BackendState::kConnecting ||
            backend->state == BackendState::kHandshaking) {
          // Sticky backends must come back (their queued keys drain on
          // replay); in-flight connections get a moment to settle.
          return;
        }
      }
    }
    BroadcastFinish();
  }
  for (const auto& backend : backends_) {
    if (backend->finish_sent && !backend->summary_received) return;
  }
  CompleteFinish();
}

void OijRouter::BroadcastFinish() {
  finish_broadcast_ = true;
  std::string frame;
  AppendControlFrame(&frame, FrameType::kFinish);
  for (auto& backend : backends_) {
    if (!Eligible(*backend)) continue;
    backend->conn->QueueWrite(frame);
    backend->finish_sent = true;
    FlushBackend(backend.get());
  }
}

void OijRouter::CompleteFinish() {
  merged_summary_ = "cluster run: " + std::to_string(backends_.size()) +
                    " backend(s)\n";
  for (const auto& backend : backends_) {
    merged_summary_ += "--- backend " + std::to_string(backend->id) + " (" +
                       backend->addr.host + ":" +
                       std::to_string(backend->addr.data_port) + ") ---\n";
    if (backend->summary_received) {
      merged_summary_ += backend->summary;
      if (merged_summary_.empty() || merged_summary_.back() != '\n') {
        merged_summary_ += '\n';
      }
    } else {
      merged_summary_ += "(unreachable at finish)\n";
    }
  }
  run_finished_.store(true, std::memory_order_release);

  std::string summary_frame;
  AppendTextFrame(&summary_frame, FrameType::kSummary, merged_summary_);
  conns_.SendFinal(summary_frame);
}

// --- admin plane -----------------------------------------------------

RouterSnapshot OijRouter::BuildSnapshot() const {
  RouterSnapshot snap;
  snap.counters = CountersSnapshot();
  snap.run_finished = run_finished_.load(std::memory_order_relaxed);
  for (const auto& backend : backends_) {
    RouterBackendRow row;
    row.id = backend->id;
    row.state = BackendStateName(static_cast<uint8_t>(backend->state));
    row.active = backend->state == BackendState::kActive;
    row.healthy = backend->health_ok;
    row.durable_exact = backend->durable_exact;
    row.acked = backend->acked;
    row.replay_buffered_tuples = backend->replay.buffered_tuples();
    row.replay_dropped_tuples = backend->replay.dropped_tuples();
    row.tuples_sent = backend->tuples_sent;
    row.watermarks_sent = backend->watermarks_sent;
    row.acks = backend->acks;
    row.connects = backend->connects;
    row.disconnects = backend->disconnects;
    row.replays = backend->replays;
    row.probes = health_->StatsOf(backend->id);
    snap.backends.push_back(row);
  }
  return snap;
}

}  // namespace oij
