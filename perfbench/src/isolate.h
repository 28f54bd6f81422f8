#ifndef PERFBENCH_ISOLATE_H_
#define PERFBENCH_ISOLATE_H_

#include <functional>
#include <string>

namespace perfbench {

/// Runs `fn` in a forked child process and hands back the bytes it
/// returned. The oracle runs this way, so its allocations never reach the
/// benchmark's heap and a run's memory figures are the same whether the
/// oracle digest was computed or loaded from the cache. (Repetitions do
/// not: a forked child pays copy-on-write faults on everything it
/// touches, which made every repetition as slow as a cold first one.)
/// The caller must have no other threads running (fork copies only the
/// calling thread). Returns false, with `error` set, when the child could
/// not be started or did not exit cleanly; the child is always waited
/// for.
bool RunIsolated(const std::function<std::string()>& fn, std::string* out,
                 std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_ISOLATE_H_
