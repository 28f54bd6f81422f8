#include "join/scale_oij.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <thread>
#include <tuple>

#include "common/clock.h"
#include "common/counter.h"

namespace oij {

namespace {
/// The rebalancer config actually run: the user's knobs plus, when
/// placement resolved a multi-node machine, the per-joiner node map
/// that makes replication prefer same-socket targets.
RebalanceConfig TopoAwareRebalance(const RebalanceConfig& base,
                                   const PlacementPlan& plan) {
  RebalanceConfig config = base;
  if (plan.active && plan.num_nodes > 1) {
    config.joiner_node = plan.joiner_node;
  }
  return config;
}
}  // namespace

ScaleOijEngine::ScaleOijEngine(const QuerySpec& spec,
                               const EngineOptions& options, ResultSink* sink)
    : ParallelEngineBase(spec, options, sink),
      ebr_(options.num_joiners + 1),
      table_(options.num_partitions, options.num_joiners),
      router_stats_(options.num_partitions),
      rebalancer_(TopoAwareRebalance(options.rebalance, placement())),
      round_robin_(options.num_partitions, 0) {
  numa_topo_ = placement().active && placement().num_nodes > 1;
  router_schedule_ = table_.Snapshot();
  states_.reserve(options.num_joiners);
  for (uint32_t j = 0; j < options.num_joiners; ++j) {
    const uint32_t slot = ebr_.RegisterThread();
    arenas_.push_back(std::make_unique<NodeArena>());
    NodeArena& arena = *arenas_.back();
    if (placement().active) {
      // Every slab this joiner's index grows onto lands on its own
      // socket (mbind, or first touch from the pinned thread).
      arena.SetNumaNode(placement().OsNodeOfJoiner(j));
    }
    states_.push_back(std::make_unique<JoinerState>(
        j, arena, &ebr_, slot, /*seed=*/0x5ca1e + j));
    states_.back()->schedule = router_schedule_;
    states_.back()->reach =
        spec.window.pre + (spec.window.pre + spec.window.fol) + 1;
    states_.back()->cache_probe =
        SampledCacheProbe(options.cache_sim, options.cache_sample_period);
  }
}

void ScaleOijEngine::OnAddQuery(uint32_t joiner, QueryRuntime& query) {
  JoinerState& s = *states_[joiner];
  if (query.ord >= s.slots.size()) s.slots.resize(query.ord + 1);
  const Timestamp reach = query.spec.window.pre +
                          (query.spec.window.pre + query.spec.window.fol) +
                          1;
  if (reach > s.reach) s.reach = reach;
}

void ScaleOijEngine::Route(const Event& event) {
  const uint32_t p = PartitionTable::PartitionOf(
      event.tuple.key, options().num_partitions);
  router_stats_.Add(p);

  const auto& team = router_schedule_->teams[p];
  // A per-partition cursor, wrapped at the team size: no divide per
  // tuple. Any member is a correct target.
  uint32_t& next = round_robin_[p];
  if (next >= team.size()) next = 0;
  const uint32_t member = team[next++];
  if (numa_topo_ && team.size() > 1 &&
      placement().NodeOfJoiner(member) != placement().NodeOfJoiner(team[0])) {
    // Driver thread only; admin threads just read.
    SingleWriterAdd(numa_cross_dispatches_, 1);
  }
  EnqueueTo(member, event);

  if (options().dynamic_schedule &&
      ++events_since_rebalance_ >= options().rebalance_interval_events) {
    events_since_rebalance_ = 0;
    RebalanceTelemetry tel;
    auto next =
        rebalancer_.Rebalance(router_schedule_, &router_stats_, &tel);
    if (next != router_schedule_) {
      ++rebalances_;
      SingleWriterAdd(numa_cross_replications_, tel.cross_node_moves);
      router_schedule_ = next;
      table_.Publish(next);
    }
  }
}

Timestamp ScaleOijEngine::LocalProgress(const JoinerState& s) const {
  // Highest event time through which this joiner's queue is complete *and*
  // processed. A future tuple may still carry ts == watermark, so in
  // kWatermark mode the guarantee is strictly below the punctuation.
  if (spec().emit_mode == EmitMode::kWatermark) {
    if (s.last_wm == kMinTimestamp || s.last_wm == kMaxTimestamp) {
      return s.last_wm;
    }
    return s.last_wm - 1;
  }
  // Eager mode: everything this joiner has observed, plus what the last
  // punctuation proves was emitted globally (wm = max emitted − l).
  Timestamp p = s.max_seen;
  if (s.last_wm != kMinTimestamp) {
    const Timestamp global = s.last_wm == kMaxTimestamp
                                 ? kMaxTimestamp
                                 : s.last_wm + spec().lateness_us;
    p = std::max(p, global);
  }
  return p;
}

void ScaleOijEngine::PublishProgress(JoinerState& s) {
  // Release: teammates that acquire this value must observe every index
  // insert performed before it.
  s.progress.store(LocalProgress(s), std::memory_order_release);
  if (spec().emit_mode == EmitMode::kWatermark) {
    // Once per punctuation: wakes the teammates' gated per-tuple drains.
    progress_epoch_.fetch_add(1, std::memory_order_release);
  }
}

void ScaleOijEngine::PublishReadFloor(JoinerState& s) {
  Timestamp basis = s.last_wm;
  for (const QuerySlot& qs : s.slots) {
    if (qs.pending > 0) basis = std::min(basis, qs.heads.top().ts);
  }
  if (basis == kMinTimestamp) return;  // nothing observed yet
  const Timestamp reach = s.reach;
  const Timestamp floor =
      basis > kMinTimestamp + reach ? basis - reach : kMinTimestamp + 1;
  // Monotone by construction, but clamp defensively.
  if (floor > s.read_floor.load(std::memory_order_relaxed)) {
    s.read_floor.store(floor, std::memory_order_release);
  }
}

Timestamp ScaleOijEngine::TeamMinProgress(
    const std::vector<uint32_t>& team) const {
  Timestamp min_p = kMaxTimestamp;
  for (uint32_t m : team) {
    min_p = std::min(min_p,
                     states_[m]->progress.load(std::memory_order_acquire));
  }
  return min_p;
}

Timestamp ScaleOijEngine::GlobalMinReadFloor() const {
  Timestamp min_f = kMaxTimestamp;
  for (const auto& s : states_) {
    min_f =
        std::min(min_f, s->read_floor.load(std::memory_order_acquire));
  }
  return min_f;
}

void ScaleOijEngine::OnTuple(uint32_t joiner, const Event& event) {
  JoinerState& s = *states_[joiner];
  ++s.processed;
  if (event.tuple.ts > s.max_seen) s.max_seen = event.tuple.ts;
  bool due = false;
  // The tuple's one key lookup.
  KeyHandle& h = Handle(s, event.tuple.key);

  if (event.stream == StreamId::kProbe) {
    if (event.late) {
      // Lateness-violating probe admitted for the best-effort queries:
      // quarantined in the annex so exact queries never scan it.
      s.annex.Insert(event.tuple);
      annex_dirty_.store(true, std::memory_order_release);
    } else {
      TimeTravelIndex::SecondLayer*& layer = h.layers[s.id];
      if (layer == nullptr) layer = s.index.GetOrCreateLayer(h.key);
      s.index.Insert(layer, event.tuple);
    }
    const size_t size = s.index.size() + s.annex.size();
    if (size > s.peak_buffered) s.peak_buffered = size;
  } else {
    const Timestamp own = s.progress.load(std::memory_order_relaxed);
    for (QueryRuntime* q : JoinerQueries(joiner)) {
      if (q == nullptr || !JoinerAccepting(joiner, q->ord)) continue;
      if (event.late &&
          q->spec.late_policy != LatePolicy::kBestEffortJoin) {
        continue;
      }
      AddPending(s, q->ord, h, event.tuple, event.arrival_us);
      // Already behind our own progress: no punctuation will drain it.
      due = due || q->spec.window.end_for(event.tuple.ts) <= own;
    }
  }

  if (spec().emit_mode == EmitMode::kEager) {
    PublishProgress(s);
    DrainPending(joiner, s);
  } else if (due || progress_epoch_.load(std::memory_order_acquire) !=
                        s.drained_epoch) {
    // Otherwise nothing can have become ready since the last drain: our
    // own progress moves only at punctuations, and no teammate's moved.
    DrainPending(joiner, s);
  }
}

void ScaleOijEngine::OnWatermark(uint32_t joiner, Timestamp watermark) {
  JoinerState& s = *states_[joiner];
  if (watermark > s.last_wm) s.last_wm = watermark;
  // Teams only grow, so refreshing to the newest schedule is always safe
  // and guarantees the view covers every member routed to so far.
  s.schedule = table_.Snapshot();
  // Publish before draining: gating is on progress, so publishing first
  // keeps the team free of circular waits; eviction safety is carried by
  // read_floor, which still reflects the undrained pending tuples.
  PublishProgress(s);
  PublishReadFloor(s);
  DrainPending(joiner, s);
  Evict(s);
}

bool ScaleOijEngine::OnIdle(uint32_t joiner) {
  // Teammate progress may have advanced while our queue is empty.
  return DrainPending(joiner, *states_[joiner]);
}

bool ScaleOijEngine::HavePending(const JoinerState& s) const {
  for (const QuerySlot& qs : s.slots) {
    if (qs.pending > 0) return true;
  }
  return false;
}

void ScaleOijEngine::OnFlush(uint32_t joiner) {
  JoinerState& s = *states_[joiner];
  // All joiners have published kMaxTimestamp progress by the time they
  // process their own flush; spin until ours drains. A teammate that died
  // before publishing would wedge this wait, so it also honors the stop
  // token.
  while (HavePending(s) && !stop_requested()) {
    DrainPending(joiner, s);
    if (HavePending(s)) std::this_thread::yield();
  }
  PublishReadFloor(s);
}

void ScaleOijEngine::PendingQueue::Push(const PendingBase& base,
                                        std::vector<PendingBase>& scratch) {
  if (size_ + inbox_ == cap_) Grow();
  if (size_ == 0 || base.ts >= buf_[Slot(size_ - 1)].ts) {
    buf_[Slot(size_++)] = base;
    return;
  }
  buf_[InboxSlot(inbox_++)] = base;
  inbox_min_ = std::min(inbox_min_, base.ts);
  if (inbox_ >= std::max(kInboxMin, size_ / 16)) MergeInbox(scratch);
}

void ScaleOijEngine::PendingQueue::MergeInbox(
    std::vector<PendingBase>& scratch) {
  if (inbox_ == 0) return;
  // Copied out first: the merged run may extend over the inbox's slots.
  scratch.clear();
  for (size_t j = 0; j < inbox_; ++j) scratch.push_back(buf_[InboxSlot(j)]);
  std::sort(scratch.begin(), scratch.end(),
            [](const PendingBase& a, const PendingBase& b) {
              return a.ts < b.ts;
            });
  // Merge from the back: only run bases newer than the inbox's oldest
  // move; the run's older prefix stays where it is.
  size_t run_left = size_;
  size_t inbox_left = inbox_;
  size_t out = size_ + inbox_;
  while (inbox_left > 0) {
    if (run_left > 0 &&
        buf_[Slot(run_left - 1)].ts > scratch[inbox_left - 1].ts) {
      buf_[Slot(--out)] = buf_[Slot(--run_left)];
    } else {
      buf_[Slot(--out)] = scratch[--inbox_left];
    }
  }
  size_ += inbox_;
  inbox_ = 0;
  inbox_min_ = kMaxTimestamp;
}

void ScaleOijEngine::PendingQueue::Grow() {
  const size_t cap = std::max<size_t>(4, cap_ * 2);
  auto grown = std::make_unique_for_overwrite<PendingBase[]>(cap);
  for (size_t i = 0; i < size_; ++i) grown[i] = buf_[Slot(i)];
  for (size_t j = 0; j < inbox_; ++j) {
    grown[cap - 1 - j] = buf_[InboxSlot(j)];
  }
  buf_ = std::move(grown);
  cap_ = cap;
  head_ = 0;
}

void ScaleOijEngine::PendingQueue::swap(PendingQueue& other) noexcept {
  buf_.swap(other.buf_);
  std::swap(cap_, other.cap_);
  std::swap(head_, other.head_);
  std::swap(size_, other.size_);
  std::swap(inbox_, other.inbox_);
  std::swap(inbox_min_, other.inbox_min_);
}

ScaleOijEngine::KeyHandle& ScaleOijEngine::KeyTable::Add(
    std::unique_ptr<KeyHandle> handle) {
  if (2 * (handles_.size() + 1) > entries_.size()) {
    entries_.assign(entries_.size() * 2, Entry{});
    for (const auto& h : handles_) Place(h.get());
  }
  Place(handle.get());
  handles_.push_back(std::move(handle));
  return *handles_.back();
}

void ScaleOijEngine::KeyTable::Place(KeyHandle* handle) {
  const size_t mask = entries_.size() - 1;
  size_t i = Mix64(handle->key) & mask;
  while (entries_[i].handle != nullptr) i = (i + 1) & mask;
  entries_[i] = {handle->key, handle};
}

ScaleOijEngine::KeyHandle& ScaleOijEngine::Handle(JoinerState& s, Key key) {
  if (KeyHandle* h = s.keys.Find(key)) return *h;
  return s.keys.Add(std::make_unique<KeyHandle>(
      key, PartitionTable::PartitionOf(key, options().num_partitions),
      states_.size()));
}

TimeTravelIndex::SecondLayer* ScaleOijEngine::MemberLayer(
    const JoinerState& s, KeyHandle& h, uint32_t m) const {
  TimeTravelIndex::SecondLayer*& layer = h.layers[m];
  if (layer == nullptr && m != s.id) {
    layer = states_[m]->index.FindLayer(h.key);
  }
  return layer;
}

void ScaleOijEngine::AddPending(JoinerState& s, uint32_t ord, KeyHandle& h,
                                const Tuple& base, int64_t arrival_us) {
  QuerySlot& slot = s.slots[ord];
  if (ord >= h.states.size()) h.states.resize(ord + 1, nullptr);
  if (h.states[ord] == nullptr) {
    slot.keys.push_back(std::make_unique<KeyState>());
    slot.keys.back()->handle = &h;
    h.states[ord] = slot.keys.back().get();
  }
  KeyState& ks = *h.states[ord];
  if (ks.pending.capacity() == 0 && !s.spare_pending.empty()) {
    ks.pending.swap(s.spare_pending.back());
    s.spare_pending.pop_back();
  }
  const bool new_head =
      ks.pending.empty() || base.ts < ks.pending.oldest();
  ks.pending.Push({base.ts, base.payload, arrival_us}, s.run);
  ++slot.pending;
  // A new oldest base supersedes the key's queued head entry.
  if (new_head) slot.heads.push({base.ts, ++ks.gen, &ks});
}

bool ScaleOijEngine::DrainPending(uint32_t joiner, JoinerState& s) {
  if (s.schedule == nullptr) s.schedule = table_.Snapshot();
  // Read before any teammate's progress: a publication this drain misses
  // then shows as a new epoch at the next tuple.
  s.drained_epoch = progress_epoch_.load(std::memory_order_acquire);
  // The joiner's own progress gates too. Its schedule snapshot may
  // predate the rebalance that added it to a key's team; once its own
  // progress passes the window end it has processed the punctuation
  // that refreshed the snapshot to cover every member holding in-window
  // probes.
  const Timestamp own = s.progress.load(std::memory_order_relaxed);
  bool popped = false;
  for (QueryRuntime* q : JoinerQueries(joiner)) {
    if (q == nullptr) continue;  // not yet announced to this joiner
    QuerySlot& qs = s.slots[q->ord];
    const IntervalWindow& window = q->spec.window;
    // Invertible incremental aggregates sweep every run, whatever its
    // size: the sweep reads only each window's delta, so it never costs
    // more than the scalar slides it replaces.
    const bool sweep = options().incremental_agg &&
                       IsInvertible(q->spec.agg) && !ScanAnnex(q->spec);
    // Heads pop in ts order: once one's window end passes our own
    // progress, every later key's does too.
    while (!qs.heads.empty() && window.end_for(qs.heads.top().ts) <= own) {
      HeadEntry head = qs.heads.top();
      qs.heads.pop();
      KeyState& ks = *head.key;
      if (head.gen != ks.gen) continue;  // superseded by an older base
      const std::vector<uint32_t>& team =
          s.schedule->teams[ks.handle->partition];
      // One gate per key: its ready prefix, in ts order.
      const Timestamp ready = std::min(TeamMinProgress(team), own);
      ks.pending.MergeInbox(s.run);
      s.run.clear();
      while (!ks.pending.empty() &&
             window.end_for(ks.pending.front().ts) <= ready) {
        s.run.push_back(ks.pending.front());
        ks.pending.pop_front();
      }
      if (ks.pending.empty()) {
        s.spare_pending.emplace_back().swap(ks.pending);
      } else {
        // Its team lags, or its next base is not due yet: re-queue once
        // the drain is over, so the loop moves on to other keys.
        head.ts = ks.pending.front().ts;
        s.deferred.push_back(head);
      }
      if (s.run.empty()) continue;
      qs.pending -= s.run.size();
      popped = true;
      if (!options().columnar_batch) {
        for (const PendingBase& base : s.run) JoinOne(s, *q, ks, team, base);
      } else if (sweep) {
        JoinGroupSweep(s, *q, ks, team);
      } else {
        JoinGroupColumnar(s, *q, ks, team);
      }
    }
    for (const HeadEntry& head : s.deferred) qs.heads.push(head);
    s.deferred.clear();
  }
  if (popped) PublishReadFloor(s);
  return popped;
}

bool ScaleOijEngine::ScanAnnex(const QuerySpec& qspec) const {
  return qspec.late_policy == LatePolicy::kBestEffortJoin &&
         annex_dirty_.load(std::memory_order_acquire);
}

void ScaleOijEngine::JoinOne(JoinerState& s, QueryRuntime& query,
                             KeyState& ks, const std::vector<uint32_t>& team,
                             const PendingBase& pending) {
  const QuerySpec& qspec = query.spec;
  KeyHandle& h = *ks.handle;
  const Tuple base{pending.ts, h.key, pending.payload};
  const Timestamp start = qspec.window.start_for(base.ts);
  const Timestamp end = qspec.window.end_for(base.ts);

  // Once any late probe entered an annex, best-effort queries trade
  // their incremental window states for full main+annex scans (the
  // annex breaks the in-order precondition incremental slides rely on).
  // Exact-policy queries never scan the annex and keep sliding.
  const bool scan_annex = ScanAnnex(qspec);

  uint64_t op_visited = 0;
  double result_value = 0.0;
  uint64_t result_count = 0;
  double out_sum = std::numeric_limits<double>::quiet_NaN();
  double out_min = std::numeric_limits<double>::quiet_NaN();
  double out_max = std::numeric_limits<double>::quiet_NaN();
  int64_t lookup_ns = 0;  // layer lookups and seeks; the rest is match
  const int64_t start_ns = MonotonicNowNs();
  {
    EpochGuard guard(ebr_, s.ebr_slot);

    // Locating the window (layer + SeekGE) is charged to lookup, the
    // walk through it to match. Main-index layers come from the key's
    // handle; the rare annex is searched per scan.
    auto scan = [&](Timestamp lo, Timestamp hi, auto&& per_tuple) {
      auto walk = [&](auto&& locate) {
        const int64_t seek_start = MonotonicNowNs();
        const TimeTravelIndex::SecondLayer* layer = locate();
        TimeTravelIndex::SecondLayer::Iterator it;
        if (layer != nullptr) it = layer->SeekGE(lo);
        lookup_ns += MonotonicNowNs() - seek_start;
        for (; it.Valid() && it.key() <= hi; it.Next()) {
          s.cache_probe.Touch(&it.value());
          per_tuple(it.value());
          ++op_visited;
        }
      };
      for (uint32_t m : team) {
        walk([&] { return MemberLayer(s, h, m); });
        if (scan_annex) {
          walk([&] { return states_[m]->annex.FindLayer(h.key); });
        }
      }
    };

    if (!scan_annex && options().incremental_agg &&
        IsInvertible(qspec.agg)) {
      IncrementalWindowState& inc = ks.inc;
      const auto slide = inc.Slide(start, end, qspec.agg, scan);
      if (slide.recomputed) {
        ++s.recomputes;
      } else {
        ++s.incremental_slides;
      }
      result_value = inc.agg().Result(qspec.agg);
      result_count = inc.agg().count;
      out_sum = inc.agg().sum;  // min/max not maintained incrementally
    } else if (!scan_annex && options().incremental_agg) {
      // Non-invertible (min/max): Two-Stacks incremental window.
      if (!ks.ni) ks.ni.emplace(qspec.agg);
      NonInvertibleWindowState& ni = *ks.ni;
      const auto slide = ni.Slide(start, end, scan);
      if (slide.recomputed) {
        ++s.recomputes;
      } else {
        ++s.incremental_slides;
      }
      result_count = ni.count();
      result_value = result_count == 0
                         ? std::numeric_limits<double>::quiet_NaN()
                         : ni.Result();
      if (result_count > 0) {
        (qspec.agg == AggKind::kMin ? out_min : out_max) = ni.Result();
      }
    } else {
      AggState agg;
      scan(start, end, [&](const Tuple& t) { agg.Add(t.payload); });
      ++s.recomputes;
      result_value = agg.Result(qspec.agg);
      result_count = agg.count;
      out_sum = agg.sum;
      if (agg.count > 0) {
        out_min = agg.min;
        out_max = agg.max;
      }
    }
  }
  s.breakdown.lookup_ns += lookup_ns;
  s.breakdown.match_ns += MonotonicNowNs() - start_ns - lookup_ns;

  s.visited += op_visited;
  s.matched += result_count;
  // Incremental slides can visit fewer tuples than are in the window;
  // effectiveness (Eq. 1) is defined on [0, 1], so clamp.
  s.effectiveness_sum +=
      op_visited == 0 ? 1.0
                      : std::min(1.0, static_cast<double>(result_count) /
                                          static_cast<double>(op_visited));
  ++s.join_ops;

  EmitOne(s, query, base, pending.arrival_us, MonotonicNowUs(), result_value,
          result_count, out_sum, out_min, out_max);
}

void ScaleOijEngine::JoinGroupSweep(JoinerState& s, QueryRuntime& query,
                                    KeyState& ks,
                                    const std::vector<uint32_t>& team) {
  const QuerySpec& qspec = query.spec;
  const size_t num_bases = s.run.size();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // The key's running window, advanced locally and handed back at the
  // end. The checks below are IncrementalWindowState::Slide's.
  IncrementalWindowState& inc = ks.inc;
  AggState agg = inc.agg();
  Timestamp prev_start = inc.prev_start();
  Timestamp prev_end = inc.prev_end();
  bool valid = inc.valid();
  auto can_slide = [&](Timestamp start, Timestamp end_ts) {
    return valid && start >= prev_start && end_ts >= prev_end &&
           start <= prev_end + 1;
  };

  s.cursors.resize(team.size());
  s.group_out.resize(num_bases);
  int64_t reseek_ns = 0;  // mid-group seeks, charged to lookup
  int64_t done_ns = 0;    // closes the timers and stamps every result
  {
    // Held only while the cursors walk: results are emitted below, after
    // release, so a slow sink never stalls reclamation.
    EpochGuard guard(ebr_, s.ebr_slot);
    const int64_t t0 = MonotonicNowNs();
    // Per member, its layer from the key's handle and one seek: `lo` at
    // the running window's start, then `hi` just past its end, walked
    // forward from `lo` (a second seek only for a window holding more
    // than kHiWalkSteps tuples). A window that cannot slide is recomputed
    // from cursors placed at its own start: here for the first base, in
    // the loop for a gap wider than the window.
    const Timestamp first_ts = s.run.front().ts;
    const Timestamp first_start = qspec.window.start_for(first_ts);
    const bool resume =
        can_slide(first_start, qspec.window.end_for(first_ts));
    for (size_t i = 0; i < team.size(); ++i) {
      SweepCursor& c = s.cursors[i];
      c.layer = MemberLayer(s, *ks.handle, team[i]);
      if (c.layer == nullptr) {
        c.lo = c.hi = {};
      } else if (resume) {
        c.lo = c.layer->SeekGE(prev_start);
        c.hi = c.lo;
        int steps = 0;
        for (; c.hi.Valid() && c.hi.key() <= prev_end; c.hi.Next()) {
          if (++steps > kHiWalkSteps) {
            c.hi = c.layer->SeekGE(prev_end + 1);
            break;
          }
        }
      } else {
        c.lo = c.hi = c.layer->SeekGE(first_start);
      }
    }
    const int64_t t1 = MonotonicNowNs();

    // Per base, the Subtract then Add passes run member by member in
    // team order — Slide's scan order — so every sum is bit-identical to
    // the scalar path's.
    for (size_t b = 0; b < num_bases; ++b) {
      const Timestamp ts = s.run[b].ts;
      const Timestamp start = qspec.window.start_for(ts);
      const Timestamp end_ts = qspec.window.end_for(ts);
      uint64_t visited = 0;
      if (can_slide(start, end_ts)) {
        for (SweepCursor& c : s.cursors) {
          for (; c.lo.Valid() && c.lo.key() < start; c.lo.Next()) {
            s.cache_probe.Touch(&c.lo.value());
            agg.Subtract(c.lo.value().payload);
            ++visited;
          }
        }
        ++s.incremental_slides;
      } else {
        if (b > 0) {
          const int64_t seek_start = MonotonicNowNs();
          for (SweepCursor& c : s.cursors) {
            if (c.layer != nullptr) c.lo = c.hi = c.layer->SeekGE(start);
          }
          reseek_ns += MonotonicNowNs() - seek_start;
        }
        agg.Reset();
        ++s.recomputes;
      }
      for (SweepCursor& c : s.cursors) {
        for (; c.hi.Valid() && c.hi.key() <= end_ts; c.hi.Next()) {
          s.cache_probe.Touch(&c.hi.value());
          agg.Add(c.hi.value().payload);
          ++visited;
        }
      }
      prev_start = start;
      prev_end = end_ts;
      valid = true;

      s.group_out[b] = {agg.Result(qspec.agg), agg.count, agg.sum, nan, nan};
      s.visited += visited;
      s.matched += agg.count;
      s.effectiveness_sum +=
          visited == 0 ? 1.0
                       : std::min(1.0, static_cast<double>(agg.count) /
                                           static_cast<double>(visited));
      ++s.join_ops;
    }
    done_ns = MonotonicNowNs();
    s.breakdown.lookup_ns += (t1 - t0) + reseek_ns;
    s.breakdown.match_ns += (done_ns - t1) - reseek_ns;
  }
  // Hand the last window to the key's incremental state: the next drain
  // (or a scalar slide) continues from it, within one window of the
  // published read floor.
  inc.Reseed(prev_start, prev_end, agg);
  EmitGroup(s, query, ks.handle->key, done_ns / 1000);
  s.columnar_bases += num_bases;
  ++s.columnar_groups;
}

void ScaleOijEngine::JoinGroupColumnar(JoinerState& s, QueryRuntime& query,
                                       KeyState& ks,
                                       const std::vector<uint32_t>& team) {
  const QuerySpec& qspec = query.spec;
  const size_t num_bases = s.run.size();

  // Engagement gate: a run too small to amortize its gather replays
  // through the scalar kernel, like the NaN fallback below.
  if (num_bases < options().columnar_min_group) {
    for (const PendingBase& base : s.run) JoinOne(s, query, ks, team, base);
    return;
  }

  const bool scan_annex = ScanAnnex(qspec);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // The run's base timestamps (popped in ts order) and the union of
  // their windows.
  s.group_ts.resize(num_bases);
  for (size_t i = 0; i < num_bases; ++i) s.group_ts[i] = s.run[i].ts;
  const Timestamp lo = qspec.window.start_for(s.group_ts[0]);
  const Timestamp hi = qspec.window.end_for(s.group_ts[num_bases - 1]);

  // Stage 1 (gather, charged to lookup): one SeekGE per team member
  // covers every base of the group; the scalar path would descend once
  // per (base, member). The epoch guard is only held here — once
  // gathered, the batch is decoupled from index memory.
  uint64_t gathered = 0;
  {
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    s.probes.Clear();
    {
      EpochGuard guard(ebr_, s.ebr_slot);
      auto touch = [&](const Tuple& t) { s.cache_probe.Touch(&t); };
      KeyHandle& h = *ks.handle;
      for (uint32_t m : team) {
        gathered += col::GatherRange(MemberLayer(s, h, m), lo, hi,
                                     &s.probes, touch);
        if (scan_annex) {
          gathered += col::GatherRange(states_[m]->annex.FindLayer(h.key),
                                       lo, hi, &s.probes, touch);
        }
      }
    }
    s.probes.EnsureSorted();
  }

  if (!s.probes.all_finite()) {
    // NaN/Inf payloads would diverge under the SIMD min/max lanes;
    // replay this group through the scalar path instead.
    ++s.columnar_fallbacks;
    for (const PendingBase& base : s.run) JoinOne(s, query, ks, team, base);
    return;
  }

  // Stage 2 (sweep merge) and stage 3 (vector aggregate), charged to
  // match: per-base window slices from two monotone cursors, then one
  // slice reduction per base, mirroring the scalar path's result-field
  // contract per configuration.
  const bool incremental = !scan_annex && options().incremental_agg;
  {
    ScopedTimerNs timer(&s.breakdown.match_ns);
    s.slices.resize(num_bases);
    col::ComputeWindowSlices(s.group_ts.data(), num_bases, qspec.window,
                             s.probes.ts(), s.probes.size(),
                             s.slices.data());
    s.group_out.resize(num_bases);
    for (size_t i = 0; i < num_bases; ++i) {
      const col::BaseSlice sl = s.slices[i];
      const col::SliceAgg sa =
          col::AggregateSlice(s.probes.payload() + sl.lo, sl.hi - sl.lo);
      if (incremental) {
        // Non-invertible (min/max): scalar emits only the requested
        // extreme.
        const bool is_min = qspec.agg == AggKind::kMin;
        const double extreme = is_min ? sa.min : sa.max;
        s.group_out[i] = {sa.count == 0 ? nan : extreme, sa.count, nan,
                          is_min && sa.count > 0 ? sa.min : nan,
                          !is_min && sa.count > 0 ? sa.max : nan};
      } else {
        // Full-scan configuration: scalar emits the complete window
        // stats.
        const AggState agg = sa.ToAggState();
        s.group_out[i] = {agg.Result(qspec.agg), agg.count, agg.sum,
                          agg.count > 0 ? agg.min : nan,
                          agg.count > 0 ? agg.max : nan};
      }
      s.matched += sa.count;
      s.effectiveness_sum +=
          gathered == 0 ? 1.0
                        : std::min(1.0, static_cast<double>(sa.count) /
                                            static_cast<double>(gathered));
      ++s.join_ops;
      ++s.recomputes;
    }
  }
  if (incremental && ks.ni) {
    // The Two-Stacks FIFO (if armed) no longer matches the last scalar
    // window; force its next slide to recompute.
    ks.ni->Invalidate();
  }
  EmitGroup(s, query, ks.handle->key, MonotonicNowUs());

  // The team's indexes were walked once for the whole group, not once
  // per base.
  s.visited += gathered;
  s.columnar_bases += num_bases;
  ++s.columnar_groups;
}

void ScaleOijEngine::EmitGroup(JoinerState& s, QueryRuntime& query, Key key,
                               int64_t emit_us) {
  for (size_t i = 0; i < s.run.size(); ++i) {
    const PendingBase& base = s.run[i];
    const GroupResult& r = s.group_out[i];
    EmitOne(s, query, Tuple{base.ts, key, base.payload}, base.arrival_us,
            emit_us, r.value, r.count, r.sum, r.min, r.max);
  }
}

void ScaleOijEngine::EmitOne(JoinerState& s, QueryRuntime& query,
                             const Tuple& base, int64_t arrival_us,
                             int64_t emit_us, double value, uint64_t count,
                             double out_sum, double out_min,
                             double out_max) {
  JoinResult result;
  result.base = base;
  result.aggregate = value;
  result.match_count = count;
  result.sum = out_sum;
  result.min = out_min;
  result.max = out_max;
  result.arrival_us = arrival_us;
  result.emit_us = emit_us;
  s.latency.Record(emit_us - arrival_us);
  EmitResult(s.id, query, result);
}

void ScaleOijEngine::Evict(JoinerState& s) {
  const Timestamp bound = GlobalMinReadFloor();
  if (bound == kMinTimestamp || bound == kMaxTimestamp) {
    // Nothing published yet, or flush already drained: evict everything
    // only in the latter case.
    if (bound == kMaxTimestamp) {
      s.evicted += s.index.EvictBefore(bound);
      s.evicted += s.annex.EvictBefore(bound);
    }
    return;
  }
  s.evicted += s.index.EvictBefore(bound);
  s.evicted += s.annex.EvictBefore(bound);
}

bool ScaleOijEngine::CollectSnapshotState(uint32_t joiner,
                                          std::vector<StreamEvent>* out) {
  // Consistent cut on the joiner thread (kSnapshot event). The index
  // walk is the arena-aware part: every node lives on this joiner's
  // contiguous slabs, so the traversal is cache-dense.
  // Probes first, then unfinalized bases; the per-key incremental
  // window states are *derived* state and are rebuilt (or recomputed
  // lazily) when the replayed tuples re-enter through normal ingest.
  // The annex (late best-effort probes) is intentionally *not*
  // snapshotted: replayed tuples re-enter under the restored watermark
  // gate, and late data is only ever best-effort. Pending bases are
  // deduplicated across query slots — replay fans a base back out to
  // every active query. (A base already finalized for a narrow-window
  // query but still pending for a wider one is re-joined for both on a
  // snapshot-based recovery; exactly-once per query across divergent
  // windows needs full-log replay, i.e. snapshots off.)
  JoinerState& s = *states_[joiner];
  out->reserve(out->size() + s.index.size());
  s.index.ForEachTuple([out](const Tuple& t) {
    StreamEvent ev;
    ev.stream = StreamId::kProbe;
    ev.tuple = t;
    out->push_back(ev);
  });
  std::vector<Tuple> bases;
  for (const QuerySlot& qs : s.slots) {
    for (const auto& ks : qs.keys) {
      ks->pending.ForEach([&bases, key = ks->handle->key](
                              const PendingBase& base) {
        bases.push_back(Tuple{base.ts, key, base.payload});
      });
    }
  }
  auto tuple_key = [](const Tuple& t) {
    return std::make_tuple(t.ts, t.key, std::bit_cast<uint64_t>(t.payload));
  };
  std::sort(bases.begin(), bases.end(), [&](const Tuple& a, const Tuple& b) {
    return tuple_key(a) < tuple_key(b);
  });
  bases.erase(std::unique(bases.begin(), bases.end(),
                          [&](const Tuple& a, const Tuple& b) {
                            return tuple_key(a) == tuple_key(b);
                          }),
              bases.end());
  for (const Tuple& t : bases) {
    StreamEvent ev;
    ev.stream = StreamId::kBase;
    ev.tuple = t;
    out->push_back(ev);
  }
  return true;
}

void ScaleOijEngine::CollectStats(EngineStats* stats) {
  stats->per_joiner_processed.resize(states_.size());
  for (size_t j = 0; j < states_.size(); ++j) {
    JoinerState& s = *states_[j];
    stats->per_joiner_processed[j] = s.processed;
    stats->results += s.join_ops;
    stats->visited += s.visited;
    stats->matched += s.matched;
    stats->effectiveness_sum += s.effectiveness_sum;
    stats->join_ops += s.join_ops;
    stats->breakdown.Merge(s.breakdown);
    stats->latency.Merge(s.latency);
    stats->evicted_tuples += s.evicted;
    stats->peak_buffered_tuples += s.peak_buffered;
    stats->columnar_bases += s.columnar_bases;
    stats->columnar_groups += s.columnar_groups;
    stats->columnar_fallbacks += s.columnar_fallbacks;
  }
  stats->rebalances = rebalances_;
  stats->final_schedule_version = router_schedule_->version;

  stats->mem.pooled = true;
  // One pass over the per-arena counters fills both the engine-wide
  // aggregate and the per-node split (each arena is wholly on its
  // joiner's node, so grouping is by the placement map — no slab walk).
  const PlacementPlan& plan = placement();
  stats->numa_node_arena_bytes.assign(plan.num_nodes, 0);
  stats->numa_node_arena_live_nodes.assign(plan.num_nodes, 0);
  for (size_t j = 0; j < arenas_.size(); ++j) {
    const NodeArena::Stats a = arenas_[j]->snapshot();
    stats->mem.arena_reserved_bytes += a.reserved_bytes;
    stats->mem.arena_live_nodes += a.live_nodes;
    stats->mem.arena_allocations += a.allocations;
    stats->mem.arena_slab_recycles += a.slab_recycles;
    stats->mem.arena_oversize_allocs += a.oversize_allocs;
    const uint32_t ord =
        std::min(plan.NodeOfJoiner(static_cast<uint32_t>(j)),
                 plan.num_nodes - 1);
    stats->numa_node_arena_bytes[ord] += a.reserved_bytes;
    stats->numa_node_arena_live_nodes[ord] += a.live_nodes;
  }
  stats->mem.ebr_retired_backlog = ebr_.PendingCountAll();
  stats->numa_cross_replications =
      numa_cross_replications_.load(std::memory_order_relaxed);
  stats->numa_cross_dispatches =
      numa_cross_dispatches_.load(std::memory_order_relaxed);
}

void ScaleOijEngine::SampleMem(WatchdogSample* sample) const {
  // Watchdog/serving threads: only the relaxed-atomic gauges are touched.
  const PlacementPlan& plan = placement();
  sample->per_node_arena_bytes.assign(plan.num_nodes, 0);
  sample->per_node_arena_live_nodes.assign(plan.num_nodes, 0);
  for (size_t j = 0; j < arenas_.size(); ++j) {
    const NodeArena::Stats a = arenas_[j]->snapshot();
    sample->arena_bytes += a.reserved_bytes;
    sample->arena_live_nodes += a.live_nodes;
    sample->arena_slab_recycles += a.slab_recycles;
    const uint32_t ord =
        std::min(plan.NodeOfJoiner(static_cast<uint32_t>(j)),
                 plan.num_nodes - 1);
    sample->per_node_arena_bytes[ord] += a.reserved_bytes;
    sample->per_node_arena_live_nodes[ord] += a.live_nodes;
  }
  sample->ebr_retired_backlog = ebr_.PendingCountAll();
  sample->numa_cross_replications =
      numa_cross_replications_.load(std::memory_order_relaxed);
  sample->numa_cross_dispatches =
      numa_cross_dispatches_.load(std::memory_order_relaxed);
}

}  // namespace oij
