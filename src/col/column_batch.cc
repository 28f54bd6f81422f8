#include "col/column_batch.h"

#include <algorithm>
#include <numeric>

namespace oij::col {

size_t ColumnarBatchStage::SortByKey() {
  order_.resize(ts_.size());
  std::iota(order_.begin(), order_.end(), 0u);
  // Stable by the position tie-break: append order is pop order (ts
  // non-decreasing), so each key-group comes out ts-sorted without
  // comparing timestamps. std::sort, unlike std::stable_sort, allocates
  // no scratch buffer per drain.
  std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
    return key_[a] < key_[b] || (key_[a] == key_[b] && a < b);
  });
  size_t groups = 0;
  for (size_t i = 0; i < order_.size(); ++i) {
    if (i == 0 || key_[order_[i]] != key_[order_[i - 1]]) ++groups;
  }
  return groups;
}

void ProbeColumns::EnsureSorted() {
  if (sorted_ || ts_.size() < 2) {
    sorted_ = true;
    return;
  }
  const size_t n = ts_.size();
  scratch_order_.resize(n);
  std::iota(scratch_order_.begin(), scratch_order_.end(), 0u);
  std::stable_sort(scratch_order_.begin(), scratch_order_.end(),
                   [this](uint32_t a, uint32_t b) {
                     return ts_[a] < ts_[b];
                   });
  scratch_ts_.resize(n);
  scratch_payload_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch_ts_[i] = ts_[scratch_order_[i]];
    scratch_payload_[i] = payload_[scratch_order_[i]];
  }
  std::copy(scratch_ts_.begin(), scratch_ts_.end(), ts_.data());
  std::copy(scratch_payload_.begin(), scratch_payload_.end(),
            payload_.data());
  sorted_ = true;
}

}  // namespace oij::col
