#include "trace.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace perfbench {

std::vector<Span>* SpanLog::Register() {
  std::lock_guard<std::mutex> lock(mu_);
  per_thread_.push_back(std::make_unique<std::vector<Span>>());
  per_thread_.back()->reserve(1 << 14);
  return per_thread_.back().get();
}

std::vector<Span> SpanLog::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& v : per_thread_) all.insert(all.end(), v->begin(), v->end());
  return all;
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : All()) {
    out << s.thread << '\t' << s.name << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::map<std::string, LayerTime> SelfTimes(std::vector<Span> spans) {
  // Per thread, outer spans first: by start, then longest first.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<size_t> open;  // stack of enclosing span indices
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           (spans[open.back()].thread != spans[i].thread ||
            spans[open.back()].end_ns < spans[i].end_ns)) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] += spans[i].end_ns - spans[i].start_ns;
    }
    open.push_back(i);
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t total = spans[i].end_ns - spans[i].start_ns;
    LayerTime& t = out[spans[i].name];
    t.total_ns += total;
    t.self_ns += std::max<int64_t>(0, total - child_ns[i]);
    ++t.spans;
  }
  return out;
}

double ChildCoverage(const std::vector<Span>& spans, uint32_t thread,
                     const std::string& root) {
  std::vector<Span> mine;
  for (const Span& s : spans) {
    if (s.thread == thread) mine.push_back(s);
  }
  const auto times = SelfTimes(std::move(mine));
  const auto it = times.find(root);
  if (it == times.end() || it->second.total_ns <= 0) return 0.0;
  return 1.0 - static_cast<double>(it->second.self_ns) /
                   static_cast<double>(it->second.total_ns);
}

Sampler::Sampler(int64_t interval_ms, std::function<void()> fn)
    : interval_ms_(interval_ms), fn_(std::move(fn)) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_; });
      lock.unlock();
      fn_();
      lock.lock();
    }
  });
}

Sampler::~Sampler() { Stop(); }

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

#if defined(__linux__)

std::vector<int> ListTasks() {
  std::vector<int> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::string TaskName(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/comm");
  std::string name;
  std::getline(in, name);
  return name;
}

int64_t TaskCpuNs(int tid) {
  const std::string dir = "/proc/self/task/" + std::to_string(tid);
  {
    std::ifstream in(dir + "/schedstat");
    long long run_ns = 0;
    if (in >> run_ns) return run_ns;
  }
  // Fallback: utime + stime (fields 14 and 15) in clock ticks. The comm
  // field may hold spaces, so parse after its closing parenthesis.
  std::ifstream in(dir + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) stime = std::atoll(field.c_str());
  }
  return (utime + stime) * (1'000'000'000LL / ::sysconf(_SC_CLK_TCK));
}

double ResidentMb() {
  std::ifstream in("/proc/self/statm");
  long long size = 0;
  long long resident = 0;
  if (!(in >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

#else

std::vector<int> ListTasks() { return {}; }
std::string TaskName(int) { return ""; }
int64_t TaskCpuNs(int) { return 0; }
double ResidentMb() { return 0.0; }

#endif

}  // namespace perfbench
