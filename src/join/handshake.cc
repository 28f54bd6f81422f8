#include "join/handshake.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/clock.h"
#include "common/thread_util.h"

namespace oij {

namespace {
/// Chain sentinel: forwarded hop to hop after the final base tuple.
constexpr Timestamp kSentinelTs = kMaxTimestamp;
}  // namespace

HandshakeOijEngine::HandshakeOijEngine(const QuerySpec& spec,
                                       const EngineOptions& options,
                                       ResultSink* sink)
    : spec_(spec), options_(options), sink_(sink) {
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    direct_queues_.push_back(
        std::make_unique<SpscQueue<Event>>(options_.queue_capacity));
    chain_queues_.push_back(
        std::make_unique<SpscQueue<ChainMsg>>(options_.queue_capacity));
    NodeArena* arena = nullptr;
    if (options_.pooled_alloc) {
      arenas_.push_back(std::make_unique<NodeArena>());
      arena = arenas_.back().get();
    }
    states_.push_back(
        std::make_unique<JoinerState>(arena, /*seed=*/0x4a5d + j));
    states_.back()->cache_probe =
        SampledCacheProbe(options_.cache_sim, options_.cache_sample_period);
  }
}

HandshakeOijEngine::~HandshakeOijEngine() {
  if (started_ && !finished_) Finish();
}

Status HandshakeOijEngine::Start() {
  if (started_) return Status::FailedPrecondition("engine already started");
  Status s = options_.Validate();
  if (!s.ok()) return s;
  s = spec_.Validate();
  if (!s.ok()) return s;
  started_ = true;
  busy_ns_.assign(options_.num_joiners, 0);
  late_gate_.Configure(spec_.late_policy, options_.late_sink);
  dropped_per_joiner_.assign(options_.num_joiners, 0);
  consumed_ = std::make_unique<PaddedCounter[]>(options_.num_joiners);
  stop_.store(false, std::memory_order_release);
  exited_.store(0, std::memory_order_release);
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    threads_.emplace_back([this, j] { JoinerMain(j); });
  }
  if (options_.enable_watchdog) StartWatchdog();
  return Status::OK();
}

void HandshakeOijEngine::InjectBase(const Tuple& base, int64_t arrival_us,
                                    Timestamp required_wm,
                                    int64_t deadline_ns) {
  ChainMsg msg;
  msg.base = base;
  msg.arrival_us = arrival_us;
  msg.required_wm = required_wm;
  msg.min = std::numeric_limits<double>::infinity();
  msg.max = -std::numeric_limits<double>::infinity();
  chain_queues_[0]->PushBounded(msg, deadline_ns, &stop_);
}

void HandshakeOijEngine::Push(const StreamEvent& event, int64_t arrival_us) {
  pushed_.fetch_add(1, std::memory_order_relaxed);
  if (stop_requested()) {
    ++overload_dropped_;
    return;
  }
  if (!late_gate_.Admit(event)) return;
  if (event.stream == StreamId::kProbe) {
    // Storage is spread round-robin across the chain.
    Event ev;
    ev.kind = Event::Kind::kTuple;
    ev.stream = StreamId::kProbe;
    ev.tuple = event.tuple;
    ev.arrival_us = arrival_us;
    const uint32_t j =
        static_cast<uint32_t>(store_rr_++ % options_.num_joiners);
    if (options_.overload_policy == OverloadPolicy::kBlock) {
      if (direct_queues_[j]->PushBounded(ev, /*deadline_ns=*/-1, &stop_) !=
          PushResult::kOk) {
        ++dropped_per_joiner_[j];
        ++overload_dropped_;
      }
    } else {
      // The chain topology has no router-side reorder point, so
      // kShedOldest degrades to kDropNewest here: bounded wait, then
      // shed the incoming probe.
      const int64_t deadline =
          options_.drop_wait_us > 0
              ? MonotonicNowNs() + options_.drop_wait_us * 1000
              : 0;
      if (direct_queues_[j]->PushBounded(ev, deadline, &stop_) !=
          PushResult::kOk) {
        ++dropped_per_joiner_[j];
        ++overload_dropped_;
      }
    }
  } else if (spec_.emit_mode == EmitMode::kEager) {
    // Eager: straight into the chain; hops gate on their local horizon.
    InjectBase(event.tuple, arrival_us, kMinTimestamp);
  } else {
    // Watermark mode: the router gates, so the chain stays ts-ordered.
    router_pending_.push(RouterPending{event.tuple, arrival_us});
  }
}

void HandshakeOijEngine::ReleaseRouterPending(Timestamp up_to,
                                              Timestamp required_wm,
                                              int64_t deadline_ns) {
  while (!router_pending_.empty() &&
         router_pending_.top().base.ts + spec_.window.fol <= up_to) {
    const RouterPending& p = router_pending_.top();
    InjectBase(p.base, p.arrival_us, required_wm, deadline_ns);
    router_pending_.pop();
  }
}

void HandshakeOijEngine::SignalWatermark(Timestamp watermark) {
  const uint64_t attempt = watermark_attempts_++;
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->WatermarkFrozen(attempt)) {
    return;
  }
  late_gate_.ObserveWatermark(watermark);
  watermarks_signaled_.fetch_add(1, std::memory_order_relaxed);
  Event ev;
  ev.kind = Event::Kind::kWatermark;
  ev.watermark = watermark;
  // Punctuations first: a base released against watermark W must find W's
  // punctuation (and every earlier probe) ahead of it in each hop's FIFO.
  // Punctuation is never dropped, whatever the overload policy.
  for (auto& q : direct_queues_) {
    q->PushBounded(ev, /*deadline_ns=*/-1, &stop_);
  }
  if (spec_.emit_mode == EmitMode::kWatermark && watermark > router_wm_) {
    router_wm_ = watermark;
    // Completeness holds strictly below the watermark.
    if (watermark != kMinTimestamp) {
      ReleaseRouterPending(watermark - 1, watermark);
    }
  }
}

bool HandshakeOijEngine::GatePassed(const JoinerState& s,
                                    const ChainMsg& msg) const {
  if (spec_.emit_mode == EmitMode::kWatermark) {
    return s.last_wm >= msg.required_wm;
  }
  Timestamp threshold = s.max_seen;
  if (s.last_wm == kMaxTimestamp) {
    threshold = kMaxTimestamp;
  } else if (s.last_wm != kMinTimestamp) {
    threshold = std::max(threshold, s.last_wm + spec_.lateness_us);
  }
  return msg.base.ts + spec_.window.fol <= threshold;
}

void HandshakeOijEngine::Emit(JoinerState& s, const ChainMsg& msg) {
  AggState agg;
  agg.sum = msg.sum;
  agg.count = msg.count;
  agg.min = msg.count == 0 ? std::numeric_limits<double>::infinity()
                           : msg.min;
  agg.max = msg.count == 0 ? -std::numeric_limits<double>::infinity()
                           : msg.max;
  JoinResult result;
  result.base = msg.base;
  result.aggregate = agg.Result(spec_.agg);
  result.match_count = agg.count;
  FillWindowStats(&result, agg);
  result.arrival_us = msg.arrival_us;
  result.emit_us = MonotonicNowUs();
  s.latency.Record(result.emit_us - msg.arrival_us);
  sink_->OnResult(result);
}

void HandshakeOijEngine::ProcessBase(uint32_t joiner, JoinerState& s,
                                     ChainMsg msg) {
  const Timestamp start = spec_.window.start_for(msg.base.ts);
  const Timestamp end = spec_.window.end_for(msg.base.ts);

  uint64_t op_visited = 0;
  uint64_t op_matched = 0;
  {
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    // The index seeks the window start and touches only in-window tuples
    // (visited == matched by construction), where the old per-key vector
    // filtered the whole buffer.
    op_visited = s.slice.ForEachInRange(
        msg.base.key, start, end, [&s, &msg](const Tuple& r) {
          s.cache_probe.Touch(&r);
          msg.sum += r.payload;
          ++msg.count;
          if (r.payload < msg.min) msg.min = r.payload;
          if (r.payload > msg.max) msg.max = r.payload;
        });
    op_matched = op_visited;
  }
  s.visited += op_visited;
  s.matched += op_matched;
  s.effectiveness_sum += op_visited == 0
                             ? 1.0
                             : static_cast<double>(op_matched) /
                                   static_cast<double>(op_visited);
  ++s.join_ops;

  if (joiner + 1 < options_.num_joiners) {
    chain_queues_[joiner + 1]->PushBounded(msg, /*deadline_ns=*/-1, &stop_);
  } else {
    Emit(s, msg);
  }
}

void HandshakeOijEngine::DrainPending(uint32_t joiner, JoinerState& s) {
  while (!s.pending.empty() && GatePassed(s, s.pending.front())) {
    ChainMsg msg = std::move(s.pending.front());
    s.pending.pop_front();
    ProcessBase(joiner, s, std::move(msg));
  }
}

void HandshakeOijEngine::Evict(JoinerState& s) {
  // The chain is ts-ordered (kWatermark), so every base this hop has not
  // yet probed for has ts >= min(oldest pending, newest chain arrival);
  // in kEager mode late bases are additionally bounded by the watermark.
  Timestamp floor = s.max_chain_ts;
  for (const ChainMsg& m : s.pending) {
    floor = std::min(floor, m.base.ts);  // front in wm mode; scan is cheap
  }
  if (spec_.emit_mode == EmitMode::kEager && s.last_wm != kMaxTimestamp) {
    floor = std::min(floor, s.last_wm);
  }
  if (floor == kMinTimestamp) return;
  const Timestamp bound =
      floor == kMaxTimestamp ? kMaxTimestamp : floor - spec_.window.pre;
  const size_t removed = s.slice.EvictBefore(bound);
  s.evicted += removed;
  s.buffered -= removed;
}

void HandshakeOijEngine::JoinerMain(uint32_t joiner) {
  SetCurrentThreadName("hs-joiner-" + std::to_string(joiner));
  if (options_.pin_threads) {
    TryPinCurrentThreadTo(static_cast<int>(joiner) % NumCpus());
  }
  JoinerState& s = *states_[joiner];
  Backoff backoff;
  bool chain_done = false;
  ChainMsg msg;

  // Direct input: probe storage and punctuations.
  auto drain_direct = [&]() {
    bool any = false;
    Event ev;
    while (direct_queues_[joiner]->TryPop(&ev)) {
      any = true;
      ++s.processed;
      consumed_[joiner].value.fetch_add(1, std::memory_order_relaxed);
      switch (ev.kind) {
        case Event::Kind::kTuple:
          if (ev.tuple.ts > s.max_seen) s.max_seen = ev.tuple.ts;
          s.slice.Insert(ev.tuple);
          ++s.buffered;
          if (s.buffered > s.peak_buffered) s.peak_buffered = s.buffered;
          break;
        case Event::Kind::kWatermark:
          // Only bookkeeping here: pending bases are drained strictly
          // after the direct queue is empty, otherwise a base could be
          // probed before probes sitting *behind* this punctuation in
          // the same queue have been stored.
          if (ev.watermark > s.last_wm) s.last_wm = ev.watermark;
          Evict(s);
          break;
        case Event::Kind::kFlush:
          s.last_wm = kMaxTimestamp;
          s.direct_flushed = true;
          break;
        case Event::Kind::kSnapshot:
        case Event::Kind::kAddQuery:
        case Event::Kind::kRemoveQuery:
          // Durability and catalog barriers are only emitted by
          // ParallelEngineBase engines; the handshake ring never sees one.
          break;
      }
    }
    return any;
  };

  const bool inject = options_.fault_injector != nullptr;
  while (!stop_requested()) {
    if (inject && !InjectFaults(joiner, s.processed)) break;
    const int64_t busy_start = MonotonicNowNs();
    bool any = drain_direct();
    // Chain input: base tuples in flight (and, eventually, the sentinel).
    bool chain_any = false;
    while (!chain_done && chain_queues_[joiner]->TryPop(&msg)) {
      any = chain_any = true;
      ++s.processed;
      consumed_[joiner].value.fetch_add(1, std::memory_order_relaxed);
      if (msg.base.ts == kSentinelTs) {
        chain_done = true;
        break;
      }
      if (msg.base.ts > s.max_seen) s.max_seen = msg.base.ts;
      if (msg.base.ts > s.max_chain_ts) s.max_chain_ts = msg.base.ts;
      s.pending.push_back(std::move(msg));
    }
    // Re-drain the direct queue before probing for the just-arrived
    // bases: popping a chain message synchronizes with the router's
    // earlier pushes, so every probe the router emitted before those
    // bases is now visible here. Without this, an eagerly gated base can
    // overtake its own in-window probes (the two queues are independent).
    if (chain_any) drain_direct();
    DrainPending(joiner, s);
    if (options_.collect_breakdown && any) {
      busy_ns_[joiner] += MonotonicNowNs() - busy_start;
    }

    if (chain_done && s.direct_flushed && s.pending.empty()) {
      // Everything drained; hand the sentinel to the next hop and exit.
      if (joiner + 1 < options_.num_joiners) {
        ChainMsg sentinel;
        sentinel.base.ts = kSentinelTs;
        chain_queues_[joiner + 1]->PushBounded(sentinel, /*deadline_ns=*/-1,
                                               &stop_);
      }
      break;
    }
    if (!any) backoff.Pause();
  }
  exited_.fetch_add(1, std::memory_order_release);
}

bool HandshakeOijEngine::InjectFaults(uint32_t joiner, uint64_t events_seen) {
  const FaultInjector* f = options_.fault_injector;
  if (f->SlowsJoiner(joiner)) {
    std::this_thread::sleep_for(std::chrono::microseconds(f->slow_delay_us));
  }
  if (f->StallsJoiner(joiner, events_seen)) {
    while (!stop_requested()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }
  return true;
}

WatchdogSample HandshakeOijEngine::SampleProgress() const {
  WatchdogSample sample;
  if (consumed_ == nullptr) return sample;  // not started yet
  const uint32_t n = options_.num_joiners;
  sample.queue_depths.reserve(n);
  sample.consumed.reserve(n);
  for (uint32_t j = 0; j < n; ++j) {
    sample.queue_depths.push_back(direct_queues_[j]->SizeApprox() +
                                  chain_queues_[j]->SizeApprox());
    sample.consumed.push_back(
        consumed_[j].value.load(std::memory_order_relaxed));
  }
  sample.pushed = pushed_.load(std::memory_order_relaxed);
  sample.watermarks = watermarks_signaled_.load(std::memory_order_relaxed);
  for (const auto& arena : arenas_) {
    const NodeArena::Stats a = arena->snapshot();
    sample.arena_bytes += a.reserved_bytes;
    sample.arena_live_nodes += a.live_nodes;
    sample.arena_slab_recycles += a.slab_recycles;
  }
  return sample;
}

void HandshakeOijEngine::StartWatchdog() {
  watchdog_.Start(
      options_.watchdog, [this] { return SampleProgress(); },
      [this](const Status& status) {
        RecordUnhealthy(status);
        stop_.store(true, std::memory_order_release);
      });
}

void HandshakeOijEngine::RecordUnhealthy(const Status& status) {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (health_.ok()) health_ = status;
}

EngineStats HandshakeOijEngine::Finish() {
  EngineStats stats;
  if (!started_ || finished_) return stats;
  finished_ = true;

  const int64_t deadline =
      MonotonicNowNs() + options_.finish_timeout_us * 1000;

  Event flush;
  flush.kind = Event::Kind::kFlush;
  flush.watermark = kMaxTimestamp;
  bool flush_ok = true;
  for (auto& q : direct_queues_) {
    if (q->PushBounded(flush, deadline, &stop_) != PushResult::kOk) {
      flush_ok = false;
    }
  }
  // Stragglers the watermark never reached, then the sentinel.
  ReleaseRouterPending(kMaxTimestamp - 1, kMaxTimestamp, deadline);
  ChainMsg sentinel;
  sentinel.base.ts = kSentinelTs;
  if (chain_queues_[0]->PushBounded(sentinel, deadline, &stop_) !=
      PushResult::kOk) {
    flush_ok = false;
  }
  if (!flush_ok) {
    RecordUnhealthy(Status::DeadlineExceeded(
        "Finish could not deliver flush before its deadline"));
    stop_.store(true, std::memory_order_release);
  }

  // Bounded wait for the chain to unwind; a wedged hop is released by the
  // stop token on deadline expiry so the joins below cannot hang.
  while (exited_.load(std::memory_order_acquire) < options_.num_joiners) {
    if (MonotonicNowNs() >= deadline) {
      RecordUnhealthy(Status::DeadlineExceeded(
          "joiners did not exit before the finish deadline"));
      stop_.store(true, std::memory_order_release);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (auto& t : threads_) t.join();
  threads_.clear();
  watchdog_.Stop();

  stats.input_tuples = pushed_.load(std::memory_order_relaxed);
  stats.overload_dropped = overload_dropped_;
  stats.per_joiner_overload_dropped = dropped_per_joiner_;
  stats.late = late_gate_.stats();
  stats.warnings = watchdog_.TakeWarnings();
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    stats.health = health_;
  }
  stats.per_joiner_processed.resize(states_.size());
  for (size_t j = 0; j < states_.size(); ++j) {
    JoinerState& s = *states_[j];
    stats.per_joiner_processed[j] = s.processed;
    stats.visited += s.visited;
    stats.matched += s.matched;
    stats.effectiveness_sum += s.effectiveness_sum;
    stats.join_ops += s.join_ops;
    stats.breakdown.Merge(s.breakdown);
    stats.latency.Merge(s.latency);
    stats.evicted_tuples += s.evicted;
    stats.peak_buffered_tuples += s.peak_buffered;
  }
  // One join op per hop; results are emitted once, at the chain tail.
  stats.results = states_.back()->join_ops;
  stats.mem.pooled = !arenas_.empty();
  for (const auto& arena : arenas_) {
    const NodeArena::Stats a = arena->snapshot();
    stats.mem.arena_reserved_bytes += a.reserved_bytes;
    stats.mem.arena_live_nodes += a.live_nodes;
    stats.mem.arena_allocations += a.allocations;
    stats.mem.arena_slab_recycles += a.slab_recycles;
    stats.mem.arena_oversize_allocs += a.oversize_allocs;
  }
  if (options_.collect_breakdown) {
    for (int64_t b : busy_ns_) stats.breakdown.busy_ns += b;
  }
  return stats;
}

}  // namespace oij
