#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

extern char** environ;

namespace alfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Waits up to `timeout` for `pid` to exit; returns its wait status or -1.
int wait_exit(pid_t pid, std::chrono::milliseconds timeout) {
  const auto until = Clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return -1;
    if (Clock::now() > until) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Daemon::Daemon(const std::string& exe, const std::string& plan_dir,
               const std::string& log_path)
    : log_path_(log_path) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, pipefd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> args = {exe,       "--plan-dir", plan_dir,
                                   "--port",  "0",          "--shards",
                                   "1",       "--workers",  "2"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                               environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(pipefd[1]);
  out_fd_ = pipefd[0];
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("spawn " + exe + ": " + std::strerror(rc));
  }

  try {
    wait_ready();
  } catch (...) {
    // The destructor does not run for a throwing constructor: reap here.
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(out_fd_);
    throw;
  }
}

void Daemon::wait_ready() {
  // The ready line is printed once every listening socket exists;
  // connections made after it queue in the backlog while plans load.
  std::string line;
  const auto until = Clock::now() + std::chrono::seconds(30);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - Clock::now());
    pollfd p{out_fd_, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0)
      throw std::runtime_error("alf_served did not print its ready line");
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("alf_served exited before ready");
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t at = line.find("port=");
  if (at == std::string::npos)
    throw std::runtime_error("unexpected ready line: " + line);
  port_ = static_cast<uint16_t>(std::atoi(line.c_str() + at + 5));
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

double Daemon::peak_rss_mib() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      f >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(f, rest);
  }
  throw std::runtime_error("no VmHWM for alf_served");
}

Daemon::Drain Daemon::terminate() {
  Drain d;
  ::kill(pid_, SIGTERM);
  int status = wait_exit(pid_, std::chrono::seconds(30));
  if (status == -1) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    status = -1;
  }
  pid_ = -1;
  d.exited_zero = status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;

  std::ifstream log(log_path_);
  std::string line;
  while (std::getline(log, line)) {
    const size_t at = line.find("drained:");
    if (at == std::string::npos) continue;
    unsigned long long v[5] = {0, 0, 0, 0, 0};
    if (std::sscanf(line.c_str() + at,
                    "drained: submitted=%llu ok=%llu shed=%llu rejected=%llu "
                    "orphaned=%llu",
                    &v[0], &v[1], &v[2], &v[3], &v[4]) == 5) {
      d.submitted = v[0];
      d.ok = v[1];
      d.shed = v[2];
      d.rejected = v[3];
      d.orphaned = v[4];
    }
  }
  return d;
}

}  // namespace alfbench
