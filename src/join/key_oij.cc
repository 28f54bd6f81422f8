#include "join/key_oij.h"

#include <algorithm>
#include <bit>
#include <tuple>

#include "common/clock.h"
#include "common/hash.h"

namespace oij {

KeyOijEngine::KeyOijEngine(const QuerySpec& spec,
                           const EngineOptions& options, ResultSink* sink)
    : ParallelEngineBase(spec, options, sink) {
  states_.reserve(options.num_joiners);
  for (uint32_t j = 0; j < options.num_joiners; ++j) {
    states_.push_back(std::make_unique<JoinerState>());
    states_.back()->id = j;
    states_.back()->reach = spec.window.pre + spec.window.fol;
    states_.back()->cache_probe =
        SampledCacheProbe(options.cache_sim, options.cache_sample_period);
  }
}

void KeyOijEngine::OnAddQuery(uint32_t joiner, QueryRuntime& query) {
  JoinerState& s = *states_[joiner];
  if (query.ord >= s.slots.size()) s.slots.resize(query.ord + 1);
  const Timestamp reach = query.spec.window.pre + query.spec.window.fol;
  if (reach > s.reach) s.reach = reach;
}

void KeyOijEngine::Route(const Event& event) {
  // Static binding of key hash to joiner: the defining property (and
  // weakness: at most u joiners can be busy) of Key-OIJ.
  const uint32_t joiner =
      RangePartition(Mix64(event.tuple.key), num_joiners());
  EnqueueTo(joiner, event);
}

Timestamp KeyOijEngine::FinalizeThreshold(const JoinerState& s) const {
  // Returns the highest event time T such that all data with ts <= T is
  // guaranteed present (exactly in kWatermark mode; best-effort in kEager).
  if (spec().emit_mode == EmitMode::kEager) {
    // Join-on-arrival: a base tuple waits only for its FOL offset worth of
    // locally observed event time (zero wait for PRE-only windows).
    Timestamp t = s.max_seen;
    if (s.last_wm != kMinTimestamp && s.last_wm != kMaxTimestamp) {
      t = std::max(t, s.last_wm + spec().lateness_us);
    } else if (s.last_wm == kMaxTimestamp) {
      t = kMaxTimestamp;
    }
    return t;
  }
  // A future tuple may still carry ts == watermark, so completeness is
  // only guaranteed strictly below it.
  if (s.last_wm == kMinTimestamp || s.last_wm == kMaxTimestamp) {
    return s.last_wm;
  }
  return s.last_wm - 1;
}

void KeyOijEngine::OnTuple(uint32_t joiner, const Event& event) {
  JoinerState& s = *states_[joiner];
  ++s.processed;
  if (event.tuple.ts > s.max_seen) s.max_seen = event.tuple.ts;

  if (event.stream == StreamId::kProbe) {
    (event.late ? s.annex : s.buffers)[event.tuple.key].push_back(
        event.tuple);
    ++s.buffered;
    if (s.buffered > s.peak_buffered) s.peak_buffered = s.buffered;
  } else {
    for (QueryRuntime* q : JoinerQueries(joiner)) {
      if (q == nullptr || !JoinerAccepting(joiner, q->ord)) continue;
      if (event.late &&
          q->spec.late_policy != LatePolicy::kBestEffortJoin) {
        continue;
      }
      s.slots[q->ord].pending.push(
          PendingBase{event.tuple, event.arrival_us});
    }
  }
  DrainPending(joiner, s);
}

void KeyOijEngine::OnWatermark(uint32_t joiner, Timestamp watermark) {
  JoinerState& s = *states_[joiner];
  if (watermark > s.last_wm) s.last_wm = watermark;
  DrainPending(joiner, s);
  Evict(s);
}

void KeyOijEngine::DrainPending(uint32_t joiner, JoinerState& s) {
  const Timestamp threshold = FinalizeThreshold(s);
  for (QueryRuntime* q : JoinerQueries(joiner)) {
    if (q == nullptr) continue;  // not yet announced to this joiner
    QuerySlot& qs = s.slots[q->ord];
    if (!options().columnar_batch) {
      while (!qs.pending.empty() &&
             qs.pending.top().tuple.ts + q->spec.window.fol <= threshold) {
        const PendingBase pb = qs.pending.top();
        qs.pending.pop();
        JoinOne(s, *q, pb.tuple, pb.arrival_us);
      }
      continue;
    }
    // Columnar path: release the whole finalize-ready run into the
    // stage first, then join it key-group at a time. Pop order is
    // non-decreasing ts, which SortByKey preserves within each group
    // (stable sort) — the sweep-merge precondition.
    s.stage.Clear();
    while (!qs.pending.empty() &&
           qs.pending.top().tuple.ts + q->spec.window.fol <= threshold) {
      const PendingBase pb = qs.pending.top();
      qs.pending.pop();
      s.stage.Append(pb.tuple, pb.arrival_us);
    }
    if (s.stage.empty()) continue;
    if (s.stage.size() < options().columnar_min_run) {
      // Short runs are cheaper scalar: replay in pop order, exactly
      // the sequence the legacy loop would have produced.
      for (size_t i = 0; i < s.stage.size(); ++i) {
        JoinOne(s, *q, s.stage.TupleAt(i), s.stage.ArrivalAt(i));
      }
      continue;
    }
    s.stage.SortByKey();
    s.stage.ForEachGroup([&](Key key, size_t begin, size_t end) {
      JoinGroupColumnar(s, *q, key, begin, end);
    });
  }
}

void KeyOijEngine::JoinOne(JoinerState& s, QueryRuntime& query,
                           const Tuple& base, int64_t arrival_us) {
  const QuerySpec& qspec = query.spec;
  const Timestamp start = qspec.window.start_for(base.ts);
  const Timestamp end = qspec.window.end_for(base.ts);

  // Lookup: the full scan over the key's buffer. The buffer is unsorted,
  // so every stored tuple of the key must be visited and filtered.
  // Best-effort queries additionally scan the late-probe annex.
  s.scratch_matches.clear();
  uint64_t op_visited = 0;
  {
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    auto scan_bucket = [&](const std::unordered_map<Key,
                                                    std::vector<Tuple>>&
                               buckets) {
      auto it = buckets.find(base.key);
      if (it == buckets.end()) return;
      for (const Tuple& r : it->second) {
        ++op_visited;
        s.cache_probe.Touch(&r);
        if (r.ts >= start && r.ts <= end) {
          s.scratch_matches.push_back(&r);
        }
      }
    };
    scan_bucket(s.buffers);
    if (qspec.late_policy == LatePolicy::kBestEffortJoin &&
        !s.annex.empty()) {
      scan_bucket(s.annex);
    }
  }

  // Match: aggregate the in-window tuples.
  AggState agg;
  {
    ScopedTimerNs timer(&s.breakdown.match_ns);
    for (const Tuple* r : s.scratch_matches) {
      agg.Add(r->payload);
    }
  }

  s.visited += op_visited;
  s.matched += s.scratch_matches.size();
  s.effectiveness_sum +=
      op_visited == 0
          ? 1.0
          : static_cast<double>(s.scratch_matches.size()) /
                static_cast<double>(op_visited);
  ++s.join_ops;

  Emit(s, query, base, arrival_us, agg);
}

void KeyOijEngine::JoinGroupColumnar(JoinerState& s, QueryRuntime& query,
                                     Key key, size_t begin, size_t end) {
  const QuerySpec& qspec = query.spec;
  const size_t num_bases = end - begin;

  if (num_bases < options().columnar_min_group) {
    // Too few bases to amortize the per-group gather + sort; the scalar
    // kernel is cheaper. Same replay the NaN fallback below uses.
    for (size_t i = begin; i < end; ++i) {
      JoinOne(s, query, s.stage.SortedTuple(i), s.stage.SortedArrival(i));
    }
    return;
  }

  // Stage 1 (lookup leg): transpose the key's unsorted buffer — and the
  // late-probe annex for best-effort queries — into contiguous probe
  // columns, then ts-sort them once. This replaces one full scan *per
  // base* with one transpose + sort *per group*.
  s.probes.Clear();
  uint64_t group_visited = 0;
  {
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    auto gather_bucket = [&](const std::unordered_map<Key,
                                                      std::vector<Tuple>>&
                                 buckets) {
      auto it = buckets.find(key);
      if (it == buckets.end()) return;
      for (const Tuple& r : it->second) {
        s.cache_probe.Touch(&r);
        s.probes.Append(r.ts, r.payload);
        ++group_visited;
      }
    };
    gather_bucket(s.buffers);
    if (qspec.late_policy == LatePolicy::kBestEffortJoin &&
        !s.annex.empty()) {
      gather_bucket(s.annex);
    }
    s.probes.EnsureSorted();
  }

  if (!s.probes.all_finite()) {
    // NaN/Inf payloads would diverge under the SIMD min/max lanes;
    // replay this group through the scalar path instead.
    ++s.columnar_fallbacks;
    for (size_t i = begin; i < end; ++i) {
      JoinOne(s, query, s.stage.SortedTuple(i), s.stage.SortedArrival(i));
    }
    return;
  }

  // Stage 2 (sweep merge): locate every base's window boundaries with
  // two monotone cursors over the sorted columns.
  s.group_ts.resize(num_bases);
  for (size_t i = 0; i < num_bases; ++i) {
    s.group_ts[i] = s.stage.SortedTs(begin + i);
  }
  s.slices.resize(num_bases);
  {
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    col::ComputeWindowSlices(s.group_ts.data(), num_bases, qspec.window,
                             s.probes.ts(), s.probes.size(),
                             s.slices.data());
  }

  // Stage 3 (vector aggregate): reduce each slice and emit.
  {
    ScopedTimerNs timer(&s.breakdown.match_ns);
    for (size_t i = 0; i < num_bases; ++i) {
      const col::BaseSlice sl = s.slices[i];
      const col::SliceAgg sa =
          col::AggregateSlice(s.probes.payload() + sl.lo, sl.hi - sl.lo);
      const AggState agg = sa.ToAggState();
      s.matched += agg.count;
      s.effectiveness_sum +=
          group_visited == 0
              ? 1.0
              : std::min(1.0, static_cast<double>(agg.count) /
                                  static_cast<double>(group_visited));
      ++s.join_ops;
      Emit(s, query, s.stage.SortedTuple(begin + i),
           s.stage.SortedArrival(begin + i), agg);
    }
  }
  // The buffer was walked once for the whole group, not once per base.
  s.visited += group_visited;
  s.columnar_bases += num_bases;
  ++s.columnar_groups;
}

void KeyOijEngine::Emit(JoinerState& s, QueryRuntime& query,
                        const Tuple& base, int64_t arrival_us,
                        const AggState& agg) {
  JoinResult result;
  result.base = base;
  result.aggregate = agg.Result(query.spec.agg);
  result.match_count = agg.count;
  FillWindowStats(&result, agg);
  result.arrival_us = arrival_us;
  result.emit_us = MonotonicNowUs();
  s.latency.Record(result.emit_us - arrival_us);
  EmitResult(s.id, query, result);
}

void KeyOijEngine::Evict(JoinerState& s) {
  if (s.last_wm == kMinTimestamp) return;
  // No future base tuple can have ts < last_wm (lateness bound), and
  // pending ones have ts + FOL > last_wm, so no window of any query
  // (reach = max PRE+FOL over all of them) reaches below:
  const Timestamp bound = s.last_wm - s.reach;
  auto evict_buckets =
      [&](std::unordered_map<Key, std::vector<Tuple>>& buckets) {
        for (auto& [key, buffer] : buckets) {
          auto keep_end = std::remove_if(
              buffer.begin(), buffer.end(),
              [bound](const Tuple& t) { return t.ts < bound; });
          const size_t removed =
              static_cast<size_t>(buffer.end() - keep_end);
          if (removed > 0) {
            buffer.erase(keep_end, buffer.end());
            s.evicted += removed;
            s.buffered -= removed;
          }
        }
      };
  evict_buckets(s.buffers);
  evict_buckets(s.annex);
}

bool KeyOijEngine::CollectSnapshotState(uint32_t joiner,
                                        std::vector<StreamEvent>* out) {
  // Consistent cut: runs on the joiner thread at its kSnapshot event, so
  // everything routed before the barrier is incorporated. Probes first
  // (the per-key buffers), then unfinalized bases — re-Pushing them in
  // this order through normal ingest rebuilds the state exactly.
  // The late-probe annex is intentionally not snapshotted (late data is
  // best-effort only); pending bases are deduplicated across query
  // slots — replay fans them back out to every active query.
  const JoinerState& s = *states_[joiner];
  out->reserve(out->size() + s.buffered);
  for (const auto& [key, buffer] : s.buffers) {
    for (const Tuple& t : buffer) {
      StreamEvent ev;
      ev.stream = StreamId::kProbe;
      ev.tuple = t;
      out->push_back(ev);
    }
  }
  std::vector<Tuple> bases;
  for (const QuerySlot& qs : s.slots) {
    auto pending = qs.pending;
    while (!pending.empty()) {
      bases.push_back(pending.top().tuple);
      pending.pop();
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

void KeyOijEngine::CollectStats(EngineStats* stats) {
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
}

}  // namespace oij
