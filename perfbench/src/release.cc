#include "release.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

void ReleaseSchedule::Add(oij::Timestamp watermark, int64_t due_ns) {
  const oij::Timestamp reach =
      reach_.empty() ? watermark : std::max(reach_.back(), watermark);
  reach_.push_back(reach);
  due_ns_.push_back(due_ns);
}

int64_t ReleaseSchedule::ReleaseDueNs(oij::Timestamp window_end) const {
  // First W with W > window_end, i.e. W - 1 >= window_end.
  const auto it = std::upper_bound(reach_.begin(), reach_.end(), window_end);
  if (it == reach_.end()) return finish_due_ns_;
  return due_ns_[static_cast<size_t>(it - reach_.begin())];
}

Percentile PercentileOf(std::vector<double>* values, double q) {
  Percentile p;
  p.samples = values->size();
  if (values->empty()) return p;
  const double clamped = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(
      std::ceil(clamped * static_cast<double>(values->size())));
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(values->begin(), values->begin() + rank, values->end());
  p.value = (*values)[rank];
  return p;
}

}  // namespace perfbench
