#include "isolate.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace perfbench {

namespace {

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

bool RunIsolated(const std::function<std::string()>& fn, std::string* out,
                 std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  // Buffered output would otherwise be written twice, once per process.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      const std::string bytes = fn();
      code = WriteAll(fds[1], bytes.data(), bytes.size()) ? 0 : 1;
    } catch (...) {
      code = 1;
    }
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  out->clear();
  char buf[1 << 16];
  while (true) {
    const ssize_t r = ::read(fds[0], buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    out->append(buf, static_cast<size_t>(r));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = WIFSIGNALED(status)
                 ? "repetition process killed by signal " +
                       std::to_string(WTERMSIG(status))
                 : "repetition process failed";
    return false;
  }
  return true;
}

}  // namespace perfbench
