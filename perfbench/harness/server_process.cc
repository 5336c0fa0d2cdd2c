#include "server_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace perfbench {

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Open(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool Connection::Send(const std::string& line) {
  std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::Receive(std::string* out) {
  for (;;) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      out->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[1 << 16];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Start(const std::string& binary, size_t workers,
                          const std::string& log_path, std::string* error) {
  port_ = 0;
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> args = {
      binary, "serve", "--port=0", "--workers=" + std::to_string(workers),
      "--log-file=" + log_path};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int dev_null = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  pid_ = ::fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec. The server dies with the
    // harness even when the harness itself is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(dev_null, STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(dev_null, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(dev_null);
  ::close(out_pipe[1]);
  if (pid_ < 0) {
    ::close(out_pipe[0]);
    *error = "cannot fork: " + std::string(std::strerror(errno));
    return false;
  }

  // The CLI prints "anonsafe serve: listening on 127.0.0.1:<port>".
  std::string text;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (port_ == 0 && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    char chunk[256];
    ssize_t n = ::read(out_pipe[0], chunk, sizeof(chunk));
    if (n <= 0) break;
    text.append(chunk, static_cast<size_t>(n));
    const std::string marker = "listening on 127.0.0.1:";
    size_t at = text.find(marker);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::stoul(text.substr(at + marker.size())));
    }
  }
  ::close(out_pipe[0]);
  if (port_ == 0) {
    *error = "server did not report a listening port";
    Kill();
    return false;
  }
  return true;
}

bool ServerProcess::Stop(double timeout_s) {
  if (pid_ < 0) return true;
  {
    Connection conn;
    if (conn.Open(port_) &&
        conn.Send("{\"schema_version\":2,\"id\":0,\"verb\":\"shutdown\"}")) {
      std::string ignored;
      conn.Receive(&ignored);
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(timeout_s * 1e3));
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Kill();
  return false;
}

void ServerProcess::Kill() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

ProcessUsage ServerProcess::Usage() const {
  ProcessUsage usage;
  if (pid_ < 0) return usage;
  const std::string proc = "/proc/" + std::to_string(pid_);
  std::ifstream stat_file(proc + "/stat");
  std::string stat((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime field 14, stime field 15.
  size_t close_paren = stat.rfind(')');
  if (close_paren != std::string::npos) {
    std::istringstream fields(stat.substr(close_paren + 2));
    std::vector<std::string> parts;
    std::string part;
    while (fields >> part) parts.push_back(part);
    if (parts.size() > 12) {
      const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
      usage.cpu_seconds =
          (std::stod(parts[11]) + std::stod(parts[12])) / ticks;
    }
  }
  std::ifstream status_file(proc + "/status");
  std::string line;
  while (std::getline(status_file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      usage.peak_rss_mib = std::stod(line.substr(6)) / 1024.0;
    }
  }
  return usage;
}

}  // namespace perfbench
