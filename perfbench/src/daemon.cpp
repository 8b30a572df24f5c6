#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "service/protocol.hpp"
#include "support/socket.hpp"

namespace perfbench {

namespace service = coalesce::service;

namespace {

using Clock = std::chrono::steady_clock;

bool ping(const std::string& socket_path) {
  auto connected = coalesce::support::connect_unix(socket_path);
  if (!connected.ok()) return false;
  service::Request request;
  request.type = service::MessageType::kPing;
  auto reply = service::call(connected.value(), request);
  return reply.ok() && reply.value().status == service::Status::kOk;
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::string& socket_path,
               const std::vector<std::string>& flags,
               const std::string& log_path, int timeout_ms)
    : socket_path_(socket_path) {
  std::vector<std::string> args{binary, "--socket=" + socket_path};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  pid_ = ::fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec. The daemon dies with this
    // process, so a benchmark that is killed leaves no daemon behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
    }
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);
  if (null_fd >= 0) ::close(null_fd);
  if (pid_ < 0) throw std::runtime_error("cannot start " + binary);

  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!ping(socket_path_)) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during start-up; see " +
                               log_path);
    }
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      reap(5000);
      throw std::runtime_error("daemon did not answer a ping in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    reap(5000);
  }
}

double Daemon::peak_rss_mib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return -1.0;
}

bool Daemon::shutdown(int timeout_ms) {
  if (pid_ <= 0) return false;
  auto connected = coalesce::support::connect_unix(socket_path_);
  if (connected.ok()) {
    service::Request request;
    request.type = service::MessageType::kShutdown;
    (void)service::call(connected.value(), request);
  }
  if (reap(timeout_ms)) return true;
  ::kill(pid_, SIGKILL);
  reap(5000);
  return false;
}

bool Daemon::reap(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (done < 0) {
      pid_ = -1;
      return false;
    }
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace perfbench
