// The `anonsafe serve` child process and the loopback connections that
// drive it.
#ifndef PERFBENCH_HARNESS_SERVER_PROCESS_H_
#define PERFBENCH_HARNESS_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// One blocking loopback TCP connection speaking the newline-delimited
/// serve protocol, one request in flight at a time.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to 127.0.0.1:`port`; false on failure.
  bool Open(uint16_t port);

  /// Writes `line` plus the newline; false when the peer is gone.
  bool Send(const std::string& line);

  /// Reads one response line (without its newline) into `out`; false on
  /// EOF or error.
  bool Receive(std::string* out);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// CPU time and peak memory of a live process, read from /proc.
struct ProcessUsage {
  double cpu_seconds = 0.0;  ///< utime + stime
  double peak_rss_mib = 0.0; ///< VmHWM
};

/// A spawned `anonsafe serve --port=0` child. The destructor kills and
/// reaps a child that was not shut down cleanly, so no process outlives
/// the harness.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary serve --port=0 --workers=N --log-file=log_path` and
  /// waits (up to 60 s) for the line announcing the bound port. False
  /// with a message in `error` on failure.
  bool Start(const std::string& binary, size_t workers,
             const std::string& log_path, std::string* error);

  /// Sends `shutdown`, waits for the drain and reaps the child; kills it
  /// after `timeout_s`. True when the child exited on its own.
  bool Stop(double timeout_s = 20.0);

  ProcessUsage Usage() const;
  uint16_t port() const { return port_; }

 private:
  void Kill();

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVER_PROCESS_H_
