// The coalesced daemon as a child process: started with fixed flags on a
// Unix socket, probed until it answers a ping, shut down over the wire,
// and always reaped — also when the benchmark fails half way.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Spawns `binary --socket=<socket_path> <flags...>` with its stdout
  /// and stderr appended to `log_path`, then waits (up to timeout_ms) until
  /// the socket answers a kPing. Throws std::runtime_error on failure.
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::vector<std::string>& flags, const std::string& log_path,
         int timeout_ms);
  /// Kills and reaps the child if shutdown() did not already end it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_path_;
  }

  /// Peak resident set (VmHWM) so far, in MiB; negative if unreadable.
  [[nodiscard]] double peak_rss_mib() const;

  /// Sends kShutdown and waits for a clean exit; kills it after
  /// timeout_ms. True when it exited with status 0 on its own.
  bool shutdown(int timeout_ms);

 private:
  bool reap(int timeout_ms);

  pid_t pid_ = -1;
  std::string socket_path_;
};

}  // namespace perfbench
