#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace perfbench {

/// One timed call into the system, as the benchmark made it.
struct Span {
  const char* name = "";  ///< layer-qualified, static storage
  uint32_t thread = 0;    ///< benchmark-assigned thread ordinal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store. Each benchmark thread records into its own
/// vector (registered once, before it starts recording), so recording
/// takes no lock; the vectors are read only after their threads stopped.
class SpanLog {
 public:
  /// Returns a new vector for one thread's spans.
  std::vector<Span>* Register();

  std::vector<Span> All() const;

  /// Writes one `thread name start_ns end_ns` line per span.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> per_thread_;  // by mu_
};

/// Records [construction, destruction) into `out` when it is non-null.
class ScopedSpan {
 public:
  ScopedSpan(std::vector<Span>* out, const char* name, uint32_t thread)
      : out_(out), name_(name), thread_(thread),
        start_ns_(out != nullptr ? oij::MonotonicNowNs() : 0) {}
  ~ScopedSpan() {
    if (out_ != nullptr) {
      out_->push_back({name_, thread_, start_ns_, oij::MonotonicNowNs()});
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::vector<Span>* out_;
  const char* name_;
  uint32_t thread_;
  int64_t start_ns_;
};

struct LayerTime {
  int64_t total_ns = 0;
  int64_t self_ns = 0;  ///< total minus the time direct children cover
  uint64_t spans = 0;
};

/// Self time per span name. Spans nest per thread by interval
/// containment; a span's self time is its duration minus the durations
/// of the spans directly inside it.
std::map<std::string, LayerTime> SelfTimes(std::vector<Span> spans);

/// Share of `root`'s total time on `thread` covered by its child spans:
/// 1 - self(root) / total(root). 0 when no such root span exists.
double ChildCoverage(const std::vector<Span>& spans, uint32_t thread,
                     const std::string& root);

/// Calls `fn` every `interval_ms` on its own thread until Stop() (and
/// once more at Stop, so a short run still gets a final sample).
class Sampler {
 public:
  Sampler(int64_t interval_ms, std::function<void()> fn);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop();

 private:
  int64_t interval_ms_;
  std::function<void()> fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

// --- /proc readers (Linux; zero elsewhere) ---

std::vector<int> ListTasks();
std::string TaskName(int tid);
/// CPU time the task has run, in nanoseconds (schedstat, else stat).
int64_t TaskCpuNs(int tid);
/// Resident set size of this process in MiB.
double ResidentMb();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
