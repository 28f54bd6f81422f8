#ifndef OIJ_JOIN_SCALE_OIJ_H_
#define OIJ_JOIN_SCALE_OIJ_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "col/column_batch.h"
#include "col/sweep_merge.h"
#include "common/cache_line.h"
#include "common/hash.h"
#include "ebr/epoch_manager.h"
#include "join/engine.h"
#include "mem/node_arena.h"
#include "sched/load_stats.h"
#include "sched/partition_table.h"
#include "sched/rebalancer.h"
#include "skiplist/time_travel_index.h"
#include "window/incremental_window.h"
#include "window/two_stacks.h"

namespace oij {

/// Scale-OIJ — the paper's contribution (Section V), combining:
///
///  1. *SWMR time-travel index* (per joiner): a two-layer skip-list that
///     locates window boundaries in O(log) and visits only in-window
///     tuples, making lateness irrelevant to join cost (Fig 11).
///  2. *Dynamic balanced schedule*: keys hash into partitions; each
///     partition is owned by a virtual team of joiners that grows by
///     replication whenever the greedy rebalancer (Alg. 3) finds the load
///     skewed. Tuples of a shared partition round-robin across the team;
///     every member writes its own index and reads the whole team's
///     (Figs 13/14).
///  3. *Incremental window aggregation*: per (joiner, key) running
///     aggregates slide by Subtract-on-Evict, so overlapping windows share
///     work (Fig 16). With the columnar path on, each key's ready run
///     slides with forward cursors (the delta sweep) instead of
///     re-seeking the index per base.
///
/// A joiner looks each tuple's key up once, in its own key table, whose
/// entry is the key's handle (KeyHandle): the key's partition, its
/// KeyState per query slot, and its second layer in every joiner's main
/// index. A probe inserts straight into the handle's own layer, a base
/// queues on the handle's KeyState, and every join kernel takes its team
/// members' layers from the handle, so no joiner path descends a first
/// layer for a layer the handle holds. A teammate's layer is kept once
/// found; a missing one is looked up again at each use.
///
/// Pending bases are queued per key, next to the key's running windows:
/// each key holds a sorted ring plus a small inbox for out-of-order
/// arrivals (PendingQueue), and a per-query heads queue orders the keys
/// by their oldest pending base. A drain visits keys in head order,
/// gates each key once, and hands its ready prefix straight to that
/// key's kernel, so no step orders bases across keys and a key whose
/// team lags holds back only its own bases.
///
/// In kWatermark mode a joiner's own progress moves only at
/// punctuations, which drain. Between them a tuple drains only when some
/// joiner has published progress since this joiner's last drain (a
/// lagging teammate may have caught up; see `progress_epoch_`) or when it
/// queued a base whose window end is already behind the joiner's own
/// progress (a late best-effort base). kEager mode drains every tuple.
///
/// Cross-thread protocol. Each joiner publishes `progress` — the event
/// time through which it has durably processed its queue (its last
/// watermark punctuation in kWatermark mode; max observed timestamp in
/// kEager mode). A base tuple finalizes only once min(progress) over its
/// partition's team, and the finalizing joiner's own progress, have
/// passed its window end; the acquire-load of a teammate's progress
/// synchronizes with that teammate's release-store, so every insert the
/// teammate performed earlier is visible to the scan. Teams only grow and
/// joiners refresh their schedule snapshot at least once per punctuation,
/// and the joiner's own progress proves it processed the punctuation past
/// the window end, so its team view covers every member that may hold
/// in-window tuples — even when a rebalance added it to the team after
/// its last refresh.
///
/// Eviction. Each joiner additionally publishes a monotone `read_floor`:
/// a lower bound on every index timestamp it may still scan, derived from
/// min(last watermark, top of each heads queue — never above the oldest
/// pending base) minus the window reach plus one extra window for
/// incremental subtract-scans (which, by the overlap precondition, reach
/// at most one window below their next window start).
/// Owners unlink index prefixes strictly below min(read_floor) over all
/// joiners; unlinked nodes are freed via EBR once every reader epoch
/// drains, so scans already in flight stay memory-safe.
class ScaleOijEngine : public ParallelEngineBase {
 public:
  ScaleOijEngine(const QuerySpec& spec, const EngineOptions& options,
                 ResultSink* sink);

  std::string_view name() const override { return "scale-oij"; }

  /// The driver's per-partition routing cursors (layout tests).
  const uint32_t* RouteCursorsForTest() const { return round_robin_.data(); }

 protected:
  void Route(const Event& event) override;
  void OnTuple(uint32_t joiner, const Event& event) override;
  void OnWatermark(uint32_t joiner, Timestamp watermark) override;
  bool OnIdle(uint32_t joiner) override;
  void OnFlush(uint32_t joiner) override;
  bool SupportsMultiQuery() const override { return true; }
  void OnAddQuery(uint32_t joiner, QueryRuntime& query) override;
  void CollectStats(EngineStats* stats) override;
  void SampleMem(WatchdogSample* sample) const override;
  bool CollectSnapshotState(uint32_t joiner,
                            std::vector<StreamEvent>* out) override;

 private:
  /// A base awaiting finalization; its key is its KeyState's.
  struct PendingBase {
    Timestamp ts;
    double payload;
    int64_t arrival_us;
  };

  /// One key's pending bases, kept for popping in ts order. Arrivals are
  /// nearly sorted, so the bulk lives in a sorted run in a ring buffer
  /// (power-of-two capacity, popped from the front) that in-order bases
  /// append to. A base older than the run's back goes to an unsorted
  /// inbox kept in the ring's free slots, counted back from the slot
  /// before the run's front, so it costs no storage of its own: the ring
  /// grows only when run and inbox fill it, as a heap of the same bases
  /// would. The inbox is sorted and merged into the run from the back —
  /// moving only the run's overlapping tail — once it holds
  /// max(kInboxMin, run size / 16) bases, and before the key is drained.
  /// That bound keeps a merge at O(1) amortized moves per base, whatever
  /// the disorder. Order among equal timestamps is unspecified.
  class PendingQueue {
   public:
    static constexpr size_t kInboxMin = 64;

    bool empty() const { return size_ + inbox_ == 0; }
    size_t size() const { return size_ + inbox_; }
    /// Storage held, in bases.
    size_t capacity() const { return cap_; }
    /// The oldest pending timestamp; requires !empty().
    Timestamp oldest() const {
      return size_ == 0 ? inbox_min_ : std::min(front().ts, inbox_min_);
    }

    /// Queues `base`. A merge it triggers sorts through `scratch`.
    void Push(const PendingBase& base, std::vector<PendingBase>& scratch);
    /// Folds the inbox into the run, after which front() is the oldest
    /// pending base. Sorts the inbox through `scratch`.
    void MergeInbox(std::vector<PendingBase>& scratch);
    /// The run's first base; requires a non-empty run.
    const PendingBase& front() const { return buf_[head_]; }
    /// Requires an empty inbox (merge first): the inbox is addressed
    /// from the run's front.
    void pop_front() {
      head_ = Slot(1);
      --size_;
    }
    /// Visits every pending base, run then inbox, in no set order.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (size_t i = 0; i < size_; ++i) fn(buf_[Slot(i)]);
      for (size_t j = 0; j < inbox_; ++j) fn(buf_[InboxSlot(j)]);
    }
    void swap(PendingQueue& other) noexcept;

   private:
    /// Buffer index of the run's `i`-th base.
    size_t Slot(size_t i) const { return (head_ + i) & (cap_ - 1); }
    /// Buffer index of the inbox's `j`-th base: the free slots are used
    /// from the far end, so the run can append up to them.
    size_t InboxSlot(size_t j) const { return Slot(cap_ - 1 - j); }
    /// Doubles the ring (at least 4 slots), keeping run and inbox.
    void Grow();

    std::unique_ptr<PendingBase[]> buf_;
    size_t cap_ = 0;    ///< slots in buf_, 0 or a power of two
    size_t head_ = 0;   ///< buffer index of the run's front
    size_t size_ = 0;   ///< bases in the run
    size_t inbox_ = 0;  ///< bases in the inbox
    Timestamp inbox_min_ = kMaxTimestamp;
  };

  struct KeyHandle;

  /// One key's finalization state within a query slot: its pending bases
  /// next to its running windows (Subtract-on-Evict for invertible
  /// aggregates, Two-Stacks for min/max).
  struct KeyState {
    KeyHandle* handle = nullptr;  ///< the key this state belongs to
    PendingQueue pending;
    /// Bumped whenever the key's entry in the slot's heads queue is
    /// superseded; an entry with an older generation is stale.
    uint64_t gen = 0;
    IncrementalWindowState inc;
    std::optional<NonInvertibleWindowState> ni;
  };

  /// A key as one joiner sees it: everything the joiner reaches for the
  /// key, found by one key-table lookup per tuple and touched only by
  /// the joiner's own thread.
  struct KeyHandle {
    KeyHandle(Key k, uint32_t p, size_t num_joiners)
        : key(k),
          partition(p),
          layers(std::make_unique<TimeTravelIndex::SecondLayer*[]>(
              num_joiners)) {}

    Key key;
    uint32_t partition;  ///< PartitionTable::PartitionOf(key)
    /// The key's second layer in each joiner's main index, by joiner id.
    /// The joiner's own entry is set by its first probe of the key and is
    /// exact, as only this thread creates that layer. A teammate's entry
    /// caches the layer the teammate's FindLayer returned. A null one is
    /// resolved again on every use, since the teammate may create the
    /// layer at any time; a non-null one is kept for good, since
    /// first-layer entries are never removed and a layer lives as long
    /// as its index.
    std::unique_ptr<TimeTravelIndex::SecondLayer*[]> layers;
    /// The key's finalization state per query ordinal; nullptr until
    /// that query queues a base of the key.
    std::vector<KeyState*> states;
  };

  /// A joiner's key -> handle map: open addressing with linear probing
  /// on Mix64, at most half full, owner thread only. Handles are
  /// allocated once and never move, so key states and heads entries
  /// may point at them across growth.
  class KeyTable {
   public:
    static constexpr size_t kInitialCapacity = 64;

    KeyTable() : entries_(kInitialCapacity) {}

    /// The handle of `key`, or nullptr.
    KeyHandle* Find(Key key) const {
      const size_t mask = entries_.size() - 1;
      for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
        const Entry& e = entries_[i];
        if (e.handle == nullptr || e.key == key) return e.handle;
      }
    }
    /// Takes `handle`, whose key must be absent.
    KeyHandle& Add(std::unique_ptr<KeyHandle> handle);

   private:
    struct Entry {
      Key key = 0;
      KeyHandle* handle = nullptr;  ///< nullptr: empty slot
    };
    void Place(KeyHandle* handle);

    std::vector<Entry> entries_;  ///< a power of two in size
    std::vector<std::unique_ptr<KeyHandle>> handles_;
  };

  /// A key's oldest pending timestamp, as queued when it became the head.
  struct HeadEntry {
    Timestamp ts;
    uint64_t gen;
    KeyState* key;

    bool operator>(const HeadEntry& other) const { return ts > other.ts; }
  };

  /// Per-(joiner, query) runtime state, indexed by query ordinal. Every
  /// standing query keeps its own pending bases (its window end gates
  /// finalization) and its own incremental window states, but all of
  /// them read the one shared time-travel index.
  struct QuerySlot {
    /// Owns the slot's key states; key handles and `heads` point at
    /// them.
    std::vector<std::unique_ptr<KeyState>> keys;
    /// One live entry per key with pending bases, carrying that key's
    /// oldest pending ts; stale entries are skipped when popped. Its top
    /// is therefore never above the oldest pending base.
    std::priority_queue<HeadEntry, std::vector<HeadEntry>,
                        std::greater<HeadEntry>>
        heads;
    uint64_t pending = 0;  ///< bases pending over all keys
  };

  /// One team member's forward cursors over a key's second layer: `lo`
  /// at the first tuple >= the running window's start, `hi` at the first
  /// tuple past its end.
  struct SweepCursor {
    TimeTravelIndex::SecondLayer* layer = nullptr;
    TimeTravelIndex::SecondLayer::Iterator lo;
    TimeTravelIndex::SecondLayer::Iterator hi;
  };

  /// One group-kernel result, held until the group is emitted.
  struct GroupResult {
    double value;
    uint64_t count;
    double sum;
    double min;
    double max;
  };

  struct JoinerState {
    JoinerState(uint32_t joiner, NodeArena& arena, EpochManager* ebr,
                uint32_t slot, uint64_t seed)
        : id(joiner),
          ebr_slot(slot),
          index(arena, ebr, slot, seed),
          annex(arena, ebr, slot, seed ^ 0xa22e7ULL),
          probes(&arena) {
      slots.resize(1);  // ordinal 0: the primary query
    }

    uint32_t id;  ///< joiner index (its result-counter slot)
    uint32_t ebr_slot;
    TimeTravelIndex index;
    /// Annex index for lateness-violating probes (multi-query mode with
    /// at least one best-effort query). Only best-effort queries scan
    /// it, so drop/side-channel queries keep exact, late-free windows
    /// over the main index. Shares the joiner's arena with `index`: both
    /// have the same single owner, which alone allocates, evicts and
    /// reclaims into it.
    TimeTravelIndex annex;
    std::vector<QuerySlot> slots;  ///< indexed by query ordinal
    KeyTable keys;                 ///< every key this joiner has seen
    std::shared_ptr<const Schedule> schedule;  // joiner-local snapshot

    /// The ready prefix of the key being finalized, in ts order. Also
    /// the sort buffer of inbox merges, which never overlap a drain's
    /// use of it.
    std::vector<PendingBase> run;
    /// Heads entries set aside during a drain (keys whose team lags, or
    /// keys with bases left), re-queued once it ends.
    std::vector<HeadEntry> deferred;
    /// Pending-base storage of keys that drained empty, handed to the
    /// next key that needs some, so per-key queues recycle their capacity
    /// instead of reallocating.
    std::vector<PendingQueue> spare_pending;
    /// `progress_epoch_` as read at the start of the last drain.
    uint64_t drained_epoch = 0;

    /// Columnar batch kernel scratch (src/col/, reused across drains).
    /// The probe columns gather onto slabs loaned from this joiner's own
    /// arena, so evicted index slabs recycle straight into them.
    col::ProbeColumns probes;
    std::vector<col::BaseSlice> slices;
    std::vector<Timestamp> group_ts;
    /// Delta-sweep cursors, one pair per team member.
    std::vector<SweepCursor> cursors;
    /// Each base's result in the group being joined, emitted only after
    /// the kernel released its epoch guard and stopped its timers.
    std::vector<GroupResult> group_out;
    uint64_t columnar_bases = 0;
    uint64_t columnar_groups = 0;
    uint64_t columnar_fallbacks = 0;

    /// Max window reach over every query this joiner has ever been told
    /// about (monotone — removed queries keep contributing, so already
    /// pending windows stay scannable).
    Timestamp reach = 0;

    /// Published processing progress (event time); see class comment.
    alignas(64) std::atomic<Timestamp> progress{kMinTimestamp};

    /// Published lower bound on every index timestamp this joiner may
    /// still scan: min(last watermark, oldest pending base) − PRE −
    /// (PRE+FOL) − 1 (window reach plus incremental subtract reach).
    /// Owners evict strictly below min(read_floor) over all joiners.
    alignas(64) std::atomic<Timestamp> read_floor{kMinTimestamp};

    Timestamp max_seen = kMinTimestamp;
    Timestamp last_wm = kMinTimestamp;

    uint64_t processed = 0;
    uint64_t evicted = 0;
    uint64_t peak_buffered = 0;
    uint64_t visited = 0;
    uint64_t matched = 0;
    double effectiveness_sum = 0.0;
    uint64_t join_ops = 0;
    uint64_t incremental_slides = 0;
    uint64_t recomputes = 0;
    TimeBreakdown breakdown;
    LatencyRecorder latency;
    SampledCacheProbe cache_probe;
  };

  Timestamp LocalProgress(const JoinerState& s) const;
  void PublishProgress(JoinerState& s);
  void PublishReadFloor(JoinerState& s);

  /// Smallest published progress over `team`.
  Timestamp TeamMinProgress(const std::vector<uint32_t>& team) const;
  /// Smallest published read floor over all joiners (eviction bound).
  Timestamp GlobalMinReadFloor() const;

  /// The handle of `key` in `s`'s key table, created on first sight.
  KeyHandle& Handle(JoinerState& s, Key key);
  /// `h`'s layer in joiner `m`'s main index, or nullptr while `m` holds
  /// none: the handle's entry, resolved through `m`'s first layer while
  /// it is null. A teammate's first layer is read only under `s`'s
  /// EpochGuard.
  TimeTravelIndex::SecondLayer* MemberLayer(const JoinerState& s,
                                            KeyHandle& h, uint32_t m) const;
  /// Queues `base` (of `h`'s key) on the key's pending queue in query
  /// slot `ord`.
  void AddPending(JoinerState& s, uint32_t ord, KeyHandle& h,
                  const Tuple& base, int64_t arrival_us);
  /// Finalizes every ready base, key by key in head order; returns
  /// whether any was finalized.
  bool DrainPending(uint32_t joiner, JoinerState& s);
  /// True when `qspec` must also scan the late annex (best-effort query
  /// after any late probe was admitted).
  bool ScanAnnex(const QuerySpec& qspec) const;
  void JoinOne(JoinerState& s, QueryRuntime& query, KeyState& ks,
               const std::vector<uint32_t>& team, const PendingBase& base);
  /// Steps a sweep's `hi` cursor walks forward from `lo` to the end of
  /// the running window before it falls back to a SeekGE; windows of
  /// sparse keys hold a few tuples, so the walk usually ends first.
  static constexpr int kHiWalkSteps = 8;

  /// Delta sweep for invertible incremental aggregates: joins the key's
  /// ready run (`s.run`) with two forward cursors per team member,
  /// running exactly the Subtract/Add sequence
  /// IncrementalWindowState::Slide would run base by base, then hands the
  /// last window back via Reseed.
  void JoinGroupSweep(JoinerState& s, QueryRuntime& query, KeyState& ks,
                      const std::vector<uint32_t>& team);
  /// Columnar path for min/max and full-scan runs: joins the key's ready
  /// run (`s.run`) with one gather from the team's indexes + one slice
  /// sweep, instead of one index descent per base. Invalidates the key's
  /// Two-Stacks state so an interleaved scalar slide recomputes.
  void JoinGroupColumnar(JoinerState& s, QueryRuntime& query, KeyState& ks,
                         const std::vector<uint32_t>& team);
  /// Emits the group kernels' results for `key`'s run `s.run` from
  /// `group_out`, all stamped `emit_us`.
  void EmitGroup(JoinerState& s, QueryRuntime& query, Key key,
                 int64_t emit_us);
  /// Shared result-emission tail of every join path.
  void EmitOne(JoinerState& s, QueryRuntime& query, const Tuple& base,
               int64_t arrival_us, int64_t emit_us, double value,
               uint64_t count, double out_sum, double out_min,
               double out_max);
  void Evict(JoinerState& s);
  bool HavePending(const JoinerState& s) const;

  /// Joiner-owned slab arenas, one per joiner. Declared before ebr_ and
  /// states_: destruction runs states_ (frees live nodes into the
  /// arenas), then ebr_ (drains retired runs into them), then the arenas
  /// themselves — matching NodeArena's lifetime contract.
  std::vector<std::unique_ptr<NodeArena>> arenas_;
  EpochManager ebr_;
  PartitionTable table_;
  LoadStats router_stats_;
  Rebalancer rebalancer_;

  // Router-thread-local routing state, on a cache line of its own: the
  // driver writes it per tuple, and joiners read `states_` per tuple.
  // The per-partition cursors, written per tuple too, own their lines.
  alignas(64) std::shared_ptr<const Schedule> router_schedule_;
  CacheLineVector<uint32_t> round_robin_;
  uint64_t events_since_rebalance_ = 0;
  uint64_t rebalances_ = 0;

  /// True when placement resolved more than one node: the rebalancer
  /// runs socket-aware and the cross counters are live.
  bool numa_topo_ = false;

  /// Cross-socket scheduler activity (driver thread writes, admin
  /// threads read — single-writer relaxed atomics): partition replicas
  /// the rebalancer placed on a remote node, and round-robin dispatches
  /// that left the team leader's node.
  std::atomic<uint64_t> numa_cross_replications_{0};
  std::atomic<uint64_t> numa_cross_dispatches_{0};

  alignas(64) std::vector<std::unique_ptr<JoinerState>> states_;

  /// Set (never cleared) once any joiner stored a late probe in its
  /// annex. From then on best-effort queries abandon their incremental
  /// window states and full-scan main + annex — drop/side-channel
  /// queries are unaffected either way.
  std::atomic<bool> annex_dirty_{false};

  /// Bumped after every kWatermark-mode progress publication (once per
  /// punctuation per joiner). A joiner that reads the value it read at
  /// its last drain knows no teammate's progress moved since, so the
  /// keys it deferred are still blocked and its per-tuple drain can be
  /// skipped. The bump follows the progress store, so a joiner that
  /// acquires the new value also sees the new progress.
  alignas(64) std::atomic<uint64_t> progress_epoch_{0};
};

}  // namespace oij

#endif  // OIJ_JOIN_SCALE_OIJ_H_
