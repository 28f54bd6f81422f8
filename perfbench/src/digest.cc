#include "digest.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>

namespace perfbench {

namespace {

constexpr uint64_t kFileMagic = 0x3154534744424950ULL;  // "PIBDGST1"

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t ResultId(const oij::Tuple& base) {
  uint64_t h = Mix(static_cast<uint64_t>(base.ts));
  h = Mix(h ^ base.key);
  return Mix(h ^ std::bit_cast<uint64_t>(base.payload));
}

uint64_t ResultDigest::Add(const oij::Tuple& base, uint64_t match_count,
                           double aggregate) {
  const uint64_t id = ResultId(base);
  Bucket& b = buckets_[id % kBuckets];
  ++b.count;
  b.id_sum += id;
  b.matches += match_count;
  if (std::isnan(aggregate)) {
    ++b.nan_aggs;
  } else {
    b.agg_sum += aggregate;
    b.agg_abs += std::fabs(aggregate);
  }
  return id;
}

void ResultDigest::Merge(const ResultDigest& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    Bucket& b = buckets_[i];
    const Bucket& o = other.buckets_[i];
    b.count += o.count;
    b.id_sum += o.id_sum;
    b.matches += o.matches;
    b.nan_aggs += o.nan_aggs;
    b.agg_sum += o.agg_sum;
    b.agg_abs += o.agg_abs;
  }
}

uint64_t ResultDigest::count() const {
  uint64_t n = 0;
  for (const Bucket& b : buckets_) n += b.count;
  return n;
}

std::string ResultDigest::Encode() const {
  const uint64_t header[2] = {kFileMagic, kBuckets};
  std::string out(reinterpret_cast<const char*>(header), sizeof(header));
  out.append(reinterpret_cast<const char*>(buckets_.data()),
             kBuckets * sizeof(Bucket));
  return out;
}

bool ResultDigest::Decode(std::string_view bytes) {
  uint64_t header[2] = {0, 0};
  if (bytes.size() != sizeof(header) + kBuckets * sizeof(Bucket)) return false;
  std::memcpy(header, bytes.data(), sizeof(header));
  if (header[0] != kFileMagic || header[1] != kBuckets) return false;
  std::memcpy(buckets_.data(), bytes.data() + sizeof(header),
              kBuckets * sizeof(Bucket));
  return true;
}

bool ResultDigest::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::string bytes = Encode();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool ResultDigest::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return Decode(bytes);
}

DigestDiff CompareDigests(const ResultDigest& expected,
                          const ResultDigest& delivered) {
  DigestDiff diff;
  for (size_t i = 0; i < ResultDigest::kBuckets; ++i) {
    const ResultDigest::Bucket& e = expected.buckets()[i];
    const ResultDigest::Bucket& d = delivered.buckets()[i];
    diff.expected += e.count;
    diff.delivered += d.count;
    if (d.count < e.count) {
      diff.missing += e.count - d.count;
      continue;
    }
    if (d.count > e.count) {
      diff.extra += d.count - e.count;
      continue;
    }
    // Per-result tolerance of the differential tests, plus the rounding
    // a different summation order can introduce across the bucket.
    const double tolerance = 1e-6 * static_cast<double>(e.count) +
                             1e-12 * (e.agg_abs + d.agg_abs);
    if (d.id_sum != e.id_sum || d.matches != e.matches ||
        d.nan_aggs != e.nan_aggs ||
        !(std::fabs(d.agg_sum - e.agg_sum) <= tolerance)) {
      ++diff.wrong;
    }
  }
  return diff;
}

}  // namespace perfbench
