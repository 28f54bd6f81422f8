#ifndef PERFBENCH_RELEASE_H_
#define PERFBENCH_RELEASE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace perfbench {

/// The watermarks a run sent, in the order sent, each with the monotonic
/// time it was *due*: the open-loop send time over the wire, the
/// SignalWatermark call in process. A result's delay is measured from the
/// due time of the watermark that released it, so a stalled sender shows
/// up in the delay while the lateness wait (event time) does not.
class ReleaseSchedule {
 public:
  void Add(oij::Timestamp watermark, int64_t due_ns);

  /// Results no watermark released are released by the end of stream.
  void SetFinishDue(int64_t due_ns) { finish_due_ns_ = due_ns; }

  /// Due time of the watermark that releases a base whose window ends at
  /// `window_end` (base.ts + FOL): the first watermark W with
  /// W - 1 >= window_end. The engines finalize strictly below the
  /// punctuation, because a later tuple may still carry ts == W. Bases no
  /// watermark passes get the finish due time.
  int64_t ReleaseDueNs(oij::Timestamp window_end) const;

 private:
  /// Running maximum of the watermarks sent: a watermark below an
  /// earlier one releases nothing new, so the first passing one is found
  /// by binary search.
  std::vector<oij::Timestamp> reach_;
  std::vector<int64_t> due_ns_;
  int64_t finish_due_ns_ = 0;
};

/// A percentile together with the number of samples it was taken over;
/// the benchmark never reports one without the other.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
};

/// Nearest-rank percentile (q in (0, 1]) of `values`, which it reorders.
/// Zero samples give {0, 0}.
Percentile PercentileOf(std::vector<double>* values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_RELEASE_H_
