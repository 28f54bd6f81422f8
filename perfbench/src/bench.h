#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_spec.h"
#include "digest.h"
#include "join/engine.h"
#include "release.h"
#include "stream/workload.h"
#include "trace.h"

namespace perfbench {

/// Tuples between watermark punctuations (the pipeline's default cadence).
inline constexpr uint64_t kWatermarkEvery = 1024;

/// Every `kDelaySampleMask + 1`-th result (chosen by identity hash, so the
/// same results are sampled on every run) carries a delay sample.
inline constexpr uint64_t kDelaySampleMask = 7;

enum class Path : uint8_t { kInProcess, kServed, kRouted };

/// One named workload: what is generated and how it reaches the engine.
struct WorkloadPlan {
  std::string name;
  std::string preset;
  uint64_t tuples = 0;
  uint32_t joiners = 0;
  Path path = Path::kInProcess;
  uint64_t rate = 0;  ///< open-loop tuples/s on the wire paths
  /// Traced runs only: feed this prefix of the input over loopback TCP,
  /// served and routed, at `rate` (0 = no wire leg).
  uint64_t wire_tuples = 0;
};

/// Looks a workload up by name; false when unknown.
bool FindPlan(const std::string& name, WorkloadPlan* out);

/// A workload materialized in memory before any timing starts, with the
/// oracle's digest over exactly these arrivals.
struct PreparedInput {
  oij::WorkloadSpec workload;
  oij::QuerySpec query;
  std::vector<oij::StreamEvent> events;
  /// Watermark after each full block of kWatermarkEvery arrivals.
  std::vector<oij::Timestamp> block_watermarks;
  /// InputHash(events, query), so a changed generator, preset or query
  /// never reuses a stale cached digest.
  uint64_t input_hash = 0;
  ResultDigest expected;
  bool oracle_cached = false;
};

/// Hash of a query and its arrivals, in order: the oracle cache's key.
uint64_t InputHash(const std::vector<oij::StreamEvent>& events,
                   const oij::QuerySpec& query);

/// Generates the plan's arrivals from `seed` and computes (or loads from
/// `cache_dir`) the ReferenceJoin digest. Returns false on a cache-dir
/// or spec error.
bool PrepareInput(const WorkloadPlan& plan, uint64_t seed,
                  const std::string& cache_dir, PreparedInput* out,
                  std::string* error);

/// ReferenceJoin digest over the first `tuples` arrivals of `input`,
/// loaded from `cache_dir` when an earlier run computed it (the oracle
/// is the slowest part of preparation). Sets `*cached` accordingly.
ResultDigest OracleDigest(const PreparedInput& input, size_t tuples,
                          const std::string& cache_dir, bool* cached);

/// A delivered result's release bookkeeping.
struct DelaySample {
  oij::Timestamp window_end = 0;  ///< base.ts + FOL
  int64_t delivered_ns = 0;       ///< sink call / subscriber receive
  int64_t emit_us = 0;            ///< engine's emit stamp (same clock)
};

/// What one consumer thread accumulates from the results it sees.
struct ResultTally {
  ResultDigest digest;
  std::vector<DelaySample> samples;

  void Add(const oij::JoinResult& result, oij::Timestamp fol,
           int64_t delivered_ns);
};

/// In-process result sink: every joiner thread accumulates into its own
/// tally (found through a thread-local cache, registered on first use),
/// so the hot path takes no lock.
class TallySink : public oij::ResultSink {
 public:
  explicit TallySink(oij::Timestamp fol);
  void OnResult(const oij::JoinResult& result) override;

  /// Merges every thread's tally; call once the engine has finished.
  ResultTally Collect() const;

 private:
  ResultTally* Local();

  oij::Timestamp fol_;
  uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ResultTally>> tallies_;  // guarded by mu_
};

/// Per-layer metric values of one traced repetition, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Outcome of one repetition of a workload.
struct RepResult {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double ingest_s = 0.0;  ///< first push to Finish() returning
  uint64_t tuples = 0;
  double peak_rss_mb = 0.0;  ///< process peak while the repetition ran
  DigestDiff diff;
  std::vector<double> delays_ms;  ///< release due -> delivery
  LayerMetrics layers;            ///< traced repetitions only
  /// Traced repetitions: time per span name (see SelfTimes).
  std::map<std::string, LayerTime> self_times;

  double ingest_tps() const {
    return ingest_s > 0.0 ? static_cast<double>(tuples) / ingest_s : 0.0;
  }
};

/// Knobs of one repetition.
struct RepOptions {
  uint32_t joiners = 1;
  size_t tuples = 0;                  ///< prefix of the input to feed
  bool trace = false;                 ///< spans, samplers, layer metrics
  oij::CacheSim* cache_sim = nullptr;  ///< in-process only
  std::string scratch_dir;            ///< WAL directories (wire paths)
  std::string span_file;              ///< where spans go when traced
  /// Oracle digest for the fed prefix; the input's full digest when null.
  const ResultDigest* expected = nullptr;
};

RepResult RunInProcessRep(const PreparedInput& input, const RepOptions& opt);
RepResult RunWireRep(const PreparedInput& input, const WorkloadPlan& plan,
                     const RepOptions& opt);

/// In-process set-up time alone (construct + Start, then tear down), for
/// the extra set-up samples a run takes.
double ProbeSetupSeconds(const PreparedInput& input, const RepOptions& opt);

/// Samples /proc for the peak resident set while a repetition runs.
class PeakRss {
 public:
  PeakRss();
  double PeakMb();  ///< stops sampling; peak seen, including the last read

 private:
  double peak_mb_ = 0.0;
  std::mutex mu_;  // guards peak_mb_
  std::unique_ptr<Sampler> sampler_;
};

/// Converts delay samples into milliseconds from the release due time.
std::vector<double> DelaysMs(const std::vector<DelaySample>& samples,
                             const ReleaseSchedule& schedule);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
