#include "col/vector_agg.h"

#include <limits>

#if !defined(OIJ_PORTABLE_KERNELS) && \
    (defined(__x86_64__) || defined(__AVX2__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define OIJ_COL_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace oij::col {

namespace {

/// Folds the tail (n % 4 elements) into an already lane-reduced result.
/// Shared by both bodies so their operation order stays identical.
inline void FoldTail(const double* v, size_t from, size_t n, SliceAgg* agg) {
  for (size_t i = from; i < n; ++i) {
    const double x = v[i];
    agg->sum += x;
    if (x < agg->min) agg->min = x;
    if (x > agg->max) agg->max = x;
  }
}

}  // namespace

SliceAgg AggregateSlicePortable(const double* v, size_t n) {
  SliceAgg agg;
  agg.count = n;
  if (n == 0) return agg;
  agg.min = std::numeric_limits<double>::infinity();
  agg.max = -std::numeric_limits<double>::infinity();
  const size_t body = n & ~size_t{3};
  if (body != 0) {
    // Four virtual lanes, exactly mirroring one AVX2 register.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double mn0 = agg.min, mn1 = agg.min, mn2 = agg.min, mn3 = agg.min;
    double mx0 = agg.max, mx1 = agg.max, mx2 = agg.max, mx3 = agg.max;
    for (size_t i = 0; i < body; i += 4) {
      const double a = v[i], b = v[i + 1], c = v[i + 2], d = v[i + 3];
      s0 += a;
      s1 += b;
      s2 += c;
      s3 += d;
      if (a < mn0) mn0 = a;
      if (b < mn1) mn1 = b;
      if (c < mn2) mn2 = c;
      if (d < mn3) mn3 = d;
      if (a > mx0) mx0 = a;
      if (b > mx1) mx1 = b;
      if (c > mx2) mx2 = c;
      if (d > mx3) mx3 = d;
    }
    // Lane reduction in the AVX2 extract order: low128 + high128 gives
    // {l0+l2, l1+l3}; then element 0 + element 1.
    agg.sum = (s0 + s2) + (s1 + s3);
    agg.min = mn0;
    if (mn1 < agg.min) agg.min = mn1;
    if (mn2 < agg.min) agg.min = mn2;
    if (mn3 < agg.min) agg.min = mn3;
    agg.max = mx0;
    if (mx1 > agg.max) agg.max = mx1;
    if (mx2 > agg.max) agg.max = mx2;
    if (mx3 > agg.max) agg.max = mx3;
  }
  FoldTail(v, body, n, &agg);
  return agg;
}

#ifdef OIJ_COL_HAVE_AVX2

__attribute__((target("avx2"))) static SliceAgg AggregateSliceAvx2(
    const double* v, size_t n) {
  SliceAgg agg;
  agg.count = n;
  if (n == 0) return agg;
  agg.min = std::numeric_limits<double>::infinity();
  agg.max = -std::numeric_limits<double>::infinity();
  const size_t body = n & ~size_t{3};
  if (body != 0) {
    __m256d vsum = _mm256_setzero_pd();
    __m256d vmin = _mm256_set1_pd(agg.min);
    __m256d vmax = _mm256_set1_pd(agg.max);
    for (size_t i = 0; i < body; i += 4) {
      const __m256d x = _mm256_loadu_pd(v + i);
      vsum = _mm256_add_pd(vsum, x);
      vmin = _mm256_min_pd(vmin, x);
      vmax = _mm256_max_pd(vmax, x);
    }
    const __m128d slo = _mm256_castpd256_pd128(vsum);   // {l0, l1}
    const __m128d shi = _mm256_extractf128_pd(vsum, 1);  // {l2, l3}
    const __m128d spair = _mm_add_pd(slo, shi);          // {l0+l2, l1+l3}
    agg.sum = _mm_cvtsd_f64(spair) +
              _mm_cvtsd_f64(_mm_unpackhi_pd(spair, spair));
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vmin);
    agg.min = lanes[0];
    if (lanes[1] < agg.min) agg.min = lanes[1];
    if (lanes[2] < agg.min) agg.min = lanes[2];
    if (lanes[3] < agg.min) agg.min = lanes[3];
    _mm256_store_pd(lanes, vmax);
    agg.max = lanes[0];
    if (lanes[1] > agg.max) agg.max = lanes[1];
    if (lanes[2] > agg.max) agg.max = lanes[2];
    if (lanes[3] > agg.max) agg.max = lanes[3];
  }
  FoldTail(v, body, n, &agg);
  return agg;
}

static bool DetectAvx2() {
#if defined(__AVX2__)
  return true;  // whole TU targets AVX2 already
#else
  return __builtin_cpu_supports("avx2");
#endif
}

bool SimdActive() {
  static const bool have = DetectAvx2();
  return have;
}

SliceAgg AggregateSlice(const double* v, size_t n) {
  if (SimdActive()) return AggregateSliceAvx2(v, n);
  return AggregateSlicePortable(v, n);
}

#else  // !OIJ_COL_HAVE_AVX2

bool SimdActive() { return false; }

SliceAgg AggregateSlice(const double* v, size_t n) {
  return AggregateSlicePortable(v, n);
}

#endif  // OIJ_COL_HAVE_AVX2

}  // namespace oij::col
