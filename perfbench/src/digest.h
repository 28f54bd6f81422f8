#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace perfbench {

/// Identity of one result: its base tuple. Two deliveries of the same base
/// tuple are a duplicate; a result whose base tuple the oracle does not
/// know is wrong.
uint64_t ResultId(const oij::Tuple& base);

/// Order-independent multiset digest of join results.
///
/// Results are spread over fixed buckets by identity; each bucket keeps
/// exact integer sums (count, identity sum, match-count sum) and a
/// floating aggregate sum compared within the differential tests'
/// tolerance (1e-6 per result). Adding is commutative, so per-thread
/// digests merged in any order equal a digest built in reference order.
class ResultDigest {
 public:
  static constexpr size_t kBuckets = 4096;

  struct Bucket {
    uint64_t count = 0;
    uint64_t id_sum = 0;     ///< wraps; compared exactly
    uint64_t matches = 0;    ///< sum of match_count
    uint64_t nan_aggs = 0;   ///< aggregates that were NaN (not summed)
    double agg_sum = 0.0;
    double agg_abs = 0.0;    ///< sum of |aggregate|, scales rounding slack
  };

  ResultDigest() : buckets_(kBuckets) {}

  /// Adds one result; returns its ResultId.
  uint64_t Add(const oij::Tuple& base, uint64_t match_count,
               double aggregate);
  void Merge(const ResultDigest& other);

  uint64_t count() const;
  const std::vector<Bucket>& buckets() const { return buckets_; }

  /// Binary round trip (the oracle cache, and digests handed across a
  /// process boundary). Decode and Load return false on short or foreign
  /// bytes and leave the digest unchanged.
  std::string Encode() const;
  bool Decode(std::string_view bytes);
  bool Save(const std::string& path) const;
  bool Load(const std::string& path);

 private:
  std::vector<Bucket> buckets_;
};

/// Outcome of checking a delivered digest against the oracle's.
struct DigestDiff {
  uint64_t expected = 0;  ///< oracle result count
  uint64_t delivered = 0;
  uint64_t missing = 0;   ///< buckets short of results, summed
  uint64_t extra = 0;     ///< duplicated or unknown results, summed
  /// Buckets with the right count whose identities, match counts or
  /// aggregates differ; each counts as one wrong result (a lower bound).
  uint64_t wrong = 0;

  uint64_t errors() const { return missing + extra + wrong; }
  bool exact() const { return errors() == 0; }
  /// Results missing, duplicated or wrong over the oracle's result count.
  double error_ratio() const {
    return expected == 0 ? (errors() == 0 ? 0.0 : 1.0)
                         : static_cast<double>(errors()) /
                               static_cast<double>(expected);
  }
};

DigestDiff CompareDigests(const ResultDigest& expected,
                          const ResultDigest& delivered);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
