// The real alf_served daemon as a child process of the benchmark:
// spawned on an ephemeral port over a plan directory, drained with
// SIGTERM at the end of every run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace alfbench {

class Daemon {
 public:
  /// Spawns `exe --plan-dir plan_dir --port 0 --shards 1 --workers 2`,
  /// stderr to `log_path`, and waits for its "ready port=N" line. Throws
  /// std::runtime_error when the daemon does not come up within 30 s.
  Daemon(const std::string& exe, const std::string& plan_dir,
         const std::string& log_path);
  /// Kills (SIGKILL) and reaps a daemon that was never drained.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }

  /// Peak resident memory of the serving process so far (VmHWM), MiB.
  double peak_rss_mib() const;

  /// Outcome of the SIGTERM drain.
  struct Drain {
    bool exited_zero = false;  ///< exit 0: submitted == ok + shed + orphaned
    uint64_t submitted = 0, ok = 0, shed = 0, rejected = 0, orphaned = 0;
  };
  /// Sends SIGTERM, waits for the exit (30 s, then SIGKILL) and parses the
  /// daemon's "drained:" line from its log.
  Drain terminate();

 private:
  /// Reads the daemon's stdout until "ready port=N"; sets port_.
  void wait_ready();

  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< read end of the daemon's stdout
  uint16_t port_ = 0;
  std::string log_path_;
};

}  // namespace alfbench
