#include "stream/presets.h"

namespace oij {

namespace {
constexpr Timestamp kSecond = 1'000'000;  // one second in microseconds
}  // namespace

WorkloadSpec WorkloadA() {
  WorkloadSpec w;
  w.name = "A";
  w.num_keys = 5;
  w.window = IntervalWindow{1 * kSecond, 0};
  w.lateness_us = 1 * kSecond;
  // ~4000 matches per window: probe density per key = 4000/s, so with 5
  // keys R carries 20 K/s of the 120 K/s total.
  w.event_rate_per_sec = 120'000;
  w.pace_rate_per_sec = 120'000;
  w.probe_fraction = 20'000.0 / 120'000.0;
  // ~400 tuples arrive within the lateness range: bound the injected
  // disorder to a tenth of the lateness budget.
  w.disorder_bound_us = w.lateness_us / 10;
  w.total_tuples = 600'000;
  return w;
}

WorkloadSpec WorkloadB() {
  WorkloadSpec w;
  w.name = "B";
  w.num_keys = 111;
  w.window = IntervalWindow{150 * kSecond, 0};
  w.lateness_us = 10 * kSecond;
  // ~6000 matches per window: probe density per key = 40/s, so R carries
  // 40 * 111 = 4.44 K/s of the 200 K/s total.
  w.event_rate_per_sec = 200'000;
  w.pace_rate_per_sec = 200'000;
  w.probe_fraction = 4'440.0 / 200'000.0;
  w.disorder_bound_us = w.lateness_us;
  w.total_tuples = 1'000'000;
  return w;
}

WorkloadSpec WorkloadC() {
  WorkloadSpec w;
  w.name = "C";
  w.num_keys = 45;
  w.window = IntervalWindow{8 * kSecond, 0};
  w.lateness_us = 100 * kSecond;
  // Medium window population (~400 matches: 50/s per key over 8 s) but a
  // very large lateness range (~5000 per key over 100 s) — the regime
  // where full scans visit mostly out-of-window data.
  w.event_rate_per_sec = 100'000;
  w.pace_rate_per_sec = 0;  // "infinite" arrival rate: unthrottled
  w.probe_fraction = 2'250.0 / 100'000.0;
  w.disorder_bound_us = w.lateness_us;
  w.total_tuples = 1'000'000;
  return w;
}

WorkloadSpec WorkloadD() {
  WorkloadSpec w = WorkloadA();
  w.name = std::string("D");
  w.event_rate_per_sec = 15'000;
  w.pace_rate_per_sec = 15'000;
  // Same per-window density shape as A, scaled to the lower rate.
  w.probe_fraction = 2'500.0 / 15'000.0;
  w.lateness_us = 2 * kSecond;
  w.disorder_bound_us = w.lateness_us / 10;
  w.total_tuples = 150'000;
  return w;
}

WorkloadSpec DefaultSynthetic() {
  WorkloadSpec w;
  w.name = "default";
  w.num_keys = 100;
  w.window = IntervalWindow{1000, 0};  // |w| = 1000 us
  w.lateness_us = 100;
  w.disorder_bound_us = 100;
  w.event_rate_per_sec = 1'000'000;
  w.pace_rate_per_sec = 0;
  w.probe_fraction = 0.5;
  w.total_tuples = 1'000'000;
  return w;
}

WorkloadSpec AdversarialSynthetic() {
  WorkloadSpec w = DefaultSynthetic();
  w.name = "adversarial";
  w.num_keys = 1000;
  w.window = IntervalWindow{100, 0};  // |w| = 100 us
  w.lateness_us = 10;
  w.disorder_bound_us = 10;
  return w;
}

WorkloadSpec SkewedRotating() {
  WorkloadSpec w = DefaultSynthetic();
  w.name = "skewed";
  w.num_keys = 10'000;
  w.key_distribution = KeyDistribution::kRotatingHotSet;
  w.hot_set_size = 16;
  w.hot_fraction = 0.9;
  w.hot_rotation_period_us = 100'000;
  return w;
}

std::vector<WorkloadSpec> RealWorkloads() {
  return {WorkloadA(), WorkloadB(), WorkloadC(), WorkloadD()};
}

bool FindPreset(std::string_view name, WorkloadSpec* out) {
  if (name == "A" || name == "a") {
    *out = WorkloadA();
  } else if (name == "B" || name == "b") {
    *out = WorkloadB();
  } else if (name == "C" || name == "c") {
    *out = WorkloadC();
  } else if (name == "D" || name == "d") {
    *out = WorkloadD();
  } else if (name == "default") {
    *out = DefaultSynthetic();
  } else if (name == "adversarial") {
    *out = AdversarialSynthetic();
  } else if (name == "skewed") {
    *out = SkewedRotating();
  } else {
    return false;
  }
  return true;
}

}  // namespace oij
