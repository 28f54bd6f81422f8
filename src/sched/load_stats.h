#ifndef OIJ_SCHED_LOAD_STATS_H_
#define OIJ_SCHED_LOAD_STATS_H_

#include <cstdint>

#include "common/cache_line.h"

namespace oij {

/// Per-partition load statistics collected at the router while it assigns
/// tuples. Counts decay geometrically at each rebalance (paper Alg. 3
/// line 13: ∀k |x_k| = λ × |x_k|) so the schedule tracks the *recent*
/// distribution — the property that lets Scale-OIJ adapt to the rotating
/// hot set of Fig 14.
///
/// Owned and mutated by a single thread (the router); the rebalancer runs
/// on that same thread between batches, so no synchronization is needed.
/// The router bumps a count per tuple, so the counts own their cache
/// lines (CacheLineVector): no joiner-read allocation shares one.
class LoadStats {
 public:
  explicit LoadStats(uint32_t num_partitions)
      : counts_(num_partitions, 0.0) {}

  void Add(uint32_t partition, double n = 1.0) { counts_[partition] += n; }

  void Decay(double lambda) {
    for (double& c : counts_) c *= lambda;
  }

  double count(uint32_t partition) const { return counts_[partition]; }
  const CacheLineVector<double>& counts() const { return counts_; }
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(counts_.size());
  }

  double Total() const {
    double t = 0;
    for (double c : counts_) t += c;
    return t;
  }

 private:
  CacheLineVector<double> counts_;
};

}  // namespace oij

#endif  // OIJ_SCHED_LOAD_STATS_H_
