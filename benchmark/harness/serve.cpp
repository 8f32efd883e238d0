// The serve workloads (benchmark/README.md), driven from outside the
// program: `mbts_bench serve` starts the real mbts_serve, times its set-up,
// drives it with the open-loop load generator, reads its peak RSS, times
// its drain, checks the batch replay of the stream it admitted, and times
// batch runs of the same economy over generated bid streams.
//
// The load generator is one thread multiplexing every connection: three
// pipelined bid sessions plus one monitor session that asks for STATS on a
// fixed period. Bid i is due at (arrival_i - arrival_0) / scale wall seconds
// after the start, whatever the daemon is doing (open loop: independent
// clients), and its latency runs from that due time to its reply, so a
// stall also charges every bid queued behind it. The generator spins while
// a send is close, because a sleep's wake-up delay would land in every
// measured latency; how late it still ran is reported as gen_late_max_ms.
//
// Correctness is checked, not trusted: run.py requires every sent tag to be
// answered exactly once, no ERR line, a daemon that exits 0 after printing
// `replay: MATCH`, and a batch replay that reproduces its `serve` line.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "experiments/fingerprint.hpp"
#include "market/market.hpp"
#include "serve/preset.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace bench {
namespace {

constexpr std::size_t kBidConns = 3;
/// The daemon's reactors: with its engine thread and the load generator,
/// the 4 cores of the reference host.
constexpr const char* kServeSessions = "2";
constexpr auto kStatsPeriod = std::chrono::milliseconds(250);
/// A bid unanswered this long after its due time counts as failed; failed
/// bids enter the latency sample at this value (above any real latency).
constexpr double kReplyTimeoutS = 30.0;
constexpr auto kSpinWindow = std::chrono::microseconds(200);

struct Conn {
  int fd = -1;
  std::string rbuf;
  std::string wbuf;
  std::size_t woff = 0;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MBTS_CHECK_MSG(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    MBTS_CHECK_MSG(false, "cannot connect to the daemon");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

void flush(Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn.woff += static_cast<std::size_t>(n);
      continue;
    }
    MBTS_CHECK_MSG(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                   "daemon closed a bid connection");
    return;
  }
  conn.wbuf.clear();
  conn.woff = 0;
}

/// Reads what the socket holds and returns the complete lines.
std::vector<std::string> read_lines(Conn& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.rbuf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    MBTS_CHECK_MSG(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                   "daemon closed a connection");
    break;
  }
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = conn.rbuf.find('\n', start)) != std::string::npos;
       start = nl + 1)
    lines.push_back(conn.rbuf.substr(start, nl - start));
  conn.rbuf.erase(0, start);
  return lines;
}

enum class Reply : std::uint8_t { kNone, kAward, kReject, kBusy, kDraining };

/// One daemon process with its stdout on a pipe; killed and reaped on every
/// exit path.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    int out[2];
    MBTS_CHECK_MSG(::pipe(out) == 0, "pipe() failed");
    // posix_spawn, not fork: the start-up time must not grow with the size
    // of this process (it holds the whole bid stream).
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    const int rc = ::posix_spawn(&pid_, argv[0], &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    fd_ = out[0];
    if (rc != 0) pid_ = -1;
    MBTS_CHECK_MSG(rc == 0, "cannot start " + args[0]);
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (fd_ >= 0) ::close(fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for the `listening on port N` line and returns N.
  std::uint16_t wait_listening() {
    char buf[4096];
    pollfd pfd{fd_, POLLIN, 0};
    while (out_.find('\n') == std::string::npos) {
      MBTS_CHECK_MSG(::poll(&pfd, 1, 10000) == 1, "the daemon never listened");
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      MBTS_CHECK_MSG(n > 0, "the daemon exited before listening");
      out_.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t at = out_.find("listening on port ");
    MBTS_CHECK_MSG(at != std::string::npos, "unexpected daemon output: " + out_);
    return static_cast<std::uint16_t>(
        std::strtoul(out_.c_str() + at + 18, nullptr, 10));
  }

  double peak_rss_mb() const {
    return bench::peak_rss_mb("/proc/" + std::to_string(pid_) + "/status");
  }

  /// SIGTERM, read stdout to EOF, reap; returns the exit code.
  /// stdout_text() then holds everything the daemon printed.
  int terminate() {
    ::kill(pid_, SIGTERM);
    char buf[4096];
    for (ssize_t n; (n = ::read(fd_, buf, sizeof buf)) > 0;)
      out_.append(buf, static_cast<std::size_t>(n));
    int status = 0;
    MBTS_CHECK_MSG(::waitpid(pid_, &status, 0) == pid_, "waitpid() failed");
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }
  const std::string& stdout_text() const { return out_; }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string out_;
};

/// Drives `bids` into the daemon on `port` and adds the client-side
/// results to `json`. Returns the last STATS snapshot (CSV).
std::string drive(std::uint16_t port, const mbts::Trace& bids, double scale,
                  JsonObject& json) {
  const std::size_t n = bids.size();
  // Sleeps end within ~1 us of their deadline instead of the default 50 us.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<Conn> conns(kBidConns + 1);  // the last one is the monitor
  for (Conn& c : conns) c.fd = connect_loopback(port);
  Conn& monitor = conns.back();

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(n);
  for (std::size_t i = 0; i < n; ++i)
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          (bids.tasks[i].arrival - bids.tasks[0].arrival) /
                          scale));
  const Clock::time_point deadline =
      due.back() + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kReplyTimeoutS));

  std::vector<double> latency_ms(n, kReplyTimeoutS * 1e3);
  std::vector<Reply> reply(n, Reply::kNone);
  std::size_t next = 0, resolved = 0, errors = 0, violations = 0;
  double gen_late_ms = 0.0;
  std::vector<double> stats_ms;
  std::string stats_block, last_stats;
  bool stats_pending = false;
  Clock::time_point stats_sent, next_stats = t0;

  auto on_bid_line = [&](const std::string& line, Clock::time_point at) {
    const std::size_t sp = line.find(' ');
    const std::string verb = line.substr(0, sp);
    if (verb == "ERR") {
      ++errors;
      return;
    }
    std::size_t tag = n;
    if (sp != std::string::npos && line.size() > sp + 2 && line[sp + 1] == 't')
      tag = std::strtoull(line.c_str() + sp + 2, nullptr, 10);
    if (tag >= next || reply[tag] != Reply::kNone) {
      ++violations;  // unknown tag, or a second answer to one
      return;
    }
    if (verb == "AWARD") {
      reply[tag] = Reply::kAward;
    } else if (verb == "REJECT") {
      reply[tag] = Reply::kReject;
    } else if (verb == "BUSY") {
      reply[tag] = Reply::kBusy;
    } else if (verb == "DRAINING") {
      reply[tag] = Reply::kDraining;
    } else {
      ++violations;
      return;
    }
    ++resolved;
    if (reply[tag] == Reply::kAward || reply[tag] == Reply::kReject)
      latency_ms[tag] =
          std::chrono::duration<double, std::milli>(at - due[tag]).count();
  };
  auto on_monitor_line = [&](const std::string& line, Clock::time_point at) {
    if (line != "END" && line != "DRAINING") {
      stats_block += line + '\n';
      return;
    }
    stats_ms.push_back(
        std::chrono::duration<double, std::milli>(at - stats_sent).count());
    last_stats.swap(stats_block);
    stats_block.clear();
    stats_pending = false;
  };

  std::vector<pollfd> fds(conns.size());
  auto poll_and_read = [&](Clock::duration timeout) {
    for (std::size_t i = 0; i < conns.size(); ++i)
      fds[i] = pollfd{conns[i].fd,
                      static_cast<short>(POLLIN | (conns[i].wbuf.empty()
                                                       ? 0
                                                       : POLLOUT)),
                      0};
    const auto ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout)
               .count());
    const timespec ts{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    const Clock::time_point at = Clock::now();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents & POLLOUT) flush(conns[i]);
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (const std::string& line : read_lines(conns[i])) {
        if (i + 1 == conns.size()) {
          on_monitor_line(line, at);
        } else {
          on_bid_line(line, at);
        }
      }
    }
  };
  auto request_stats = [&](Clock::time_point now) {
    monitor.wbuf += "STATS\n";
    flush(monitor);
    stats_sent = now;
    stats_pending = true;
  };

  while (resolved < n && Clock::now() < deadline) {
    Clock::time_point now = Clock::now();
    if (next < n && due[next] <= now) {
      while (next < n && due[next] <= now) {
        gen_late_ms = std::max(
            gen_late_ms,
            std::chrono::duration<double, std::milli>(now - due[next]).count());
        conns[next % kBidConns].wbuf += bid_line(bids.tasks[next], next);
        ++next;
      }
      for (std::size_t c = 0; c < kBidConns; ++c) flush(conns[c]);
    }
    if (!stats_pending && now >= next_stats) {
      request_stats(now);
      next_stats = std::max(next_stats + kStatsPeriod, now);
    }
    Clock::time_point wake = std::min(deadline, next_stats);
    if (next < n) wake = std::min(wake, due[next]);
    now = Clock::now();
    poll_and_read(wake - now <= kSpinWindow ? Clock::duration::zero()
                                            : wake - now - kSpinWindow);
  }

  // A last snapshot after every reply: the per-layer serve counters.
  const Clock::time_point stats_deadline =
      Clock::now() + std::chrono::seconds(10);
  while (stats_pending && Clock::now() < stats_deadline)
    poll_and_read(std::chrono::milliseconds(10));
  request_stats(Clock::now());
  while (stats_pending && Clock::now() < stats_deadline)
    poll_and_read(std::chrono::milliseconds(10));
  for (Conn& c : conns) ::close(c.fd);

  std::size_t awarded = 0, rejected = 0, busy = 0, draining = 0;
  for (Reply r : reply) {
    awarded += r == Reply::kAward;
    rejected += r == Reply::kReject;
    busy += r == Reply::kBusy;
    draining += r == Reply::kDraining;
  }
  json.add("attempted", static_cast<double>(n));
  json.add("awarded", static_cast<double>(awarded));
  json.add("rejected", static_cast<double>(rejected));
  json.add("busy", static_cast<double>(busy));
  json.add("draining", static_cast<double>(draining));
  json.add("unanswered", static_cast<double>(n - resolved));
  json.add("errors", static_cast<double>(errors));
  json.add("violations", static_cast<double>(violations));
  json.add("final_stats", stats_pending || last_stats.empty() ? 0.0 : 1.0);
  json.add("gen_late_max_ms", gen_late_ms);
  json.add("p50_ms", quantile(latency_ms, 0.5));
  json.add("p90_ms", quantile(latency_ms, 0.9));
  json.add("p99_ms", quantile(latency_ms, 0.99));
  json.add("p9999_ms", quantile(latency_ms, 0.9999));
  json.add("max_ms", latency_ms.back());  // sorted by quantile()
  json.add("stats_p50_ms", quantile(stats_ms, 0.5));
  json.add("stats_p99_ms", quantile(stats_ms, 0.99));
  return last_stats;
}

}  // namespace

int serve_main(int argc, const char* const* argv) {
  mbts::CliParser cli("mbts_bench serve",
                      "a serve workload against the real mbts_serve");
  cli.add_flag("daemon", "", "path of the mbts_serve binary");
  cli.add_flag("seed", "42", "workload seed (bids and market)");
  cli.add_flag("load", "0.7", "sim load factor of the bid stream");
  cli.add_flag("rate", "16000", "bids per wall second");
  cli.add_flag("seconds", "10", "length of the send schedule");
  cli.add_flag("queue-cap", "256", "the daemon's --queue-cap");
  cli.add_flag("setup-launches", "31", "daemon starts timed for setup_s");
  cli.add_flag("wall-draws", "10", "bid streams timed in batch for wall_s");
  cli.add_flag("trace-out", "", "where the daemon writes the admitted stream");
  cli.add_flag("stats-out", "", "final STATS CSV path");
  cli.add_flag("out", "", "summary JSON path");
  if (!cli.parse(argc, argv)) return 2;

  const double load = cli.get_double("load");
  const double rate = cli.get_double("rate");
  const auto n = static_cast<std::size_t>(rate * cli.get_double("seconds"));
  MBTS_CHECK_MSG(n > 0, "the schedule holds no bids");
  const double scale = serve_scale(load, rate);
  char scale_text[64];
  std::snprintf(scale_text, sizeof scale_text, "%.17g", scale);
  std::vector<std::string> args = {
      cli.get_string("daemon"), "--port", "0", "--scale", scale_text,
      "--seed", cli.get_string("seed"), "--sessions", kServeSessions,
      "--queue-cap", cli.get_string("queue-cap")};
  const mbts::Trace bids = serve_bids(cli.get_uint("seed"), load, n);
  JsonObject json;

  // Set-up: exec to the `listening` line plus the generator's connections,
  // over fresh daemons that must each drain cleanly.
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < cli.get_uint("setup-launches"); ++k) {
    const Clock::time_point start = Clock::now();
    Daemon daemon(args);
    const std::uint16_t port = daemon.wait_listening();
    std::vector<int> fds;
    for (std::size_t i = 0; i <= kBidConns; ++i)
      fds.push_back(connect_loopback(port));
    setup_s.push_back(seconds_between(start, Clock::now()));
    for (int fd : fds) ::close(fd);
    MBTS_CHECK_MSG(daemon.terminate() == 0 &&
                       daemon.stdout_text().find("replay: MATCH") !=
                           std::string::npos,
                   "an idle daemon failed its drain:\n" + daemon.stdout_text());
  }
  json.add("setup_s", median(setup_s));

  const std::string trace_out = cli.get_string("trace-out");
  MBTS_CHECK_MSG(!trace_out.empty(), "--trace-out is required");
  args.push_back("--trace-out");
  args.push_back(trace_out);
  Daemon daemon(args);
  const std::string stats = drive(daemon.wait_listening(), bids, scale, json);
  json.add("peak_rss_mb", daemon.peak_rss_mb());
  const Clock::time_point drain_start = Clock::now();
  const int code = daemon.terminate();
  json.add("drain_s", seconds_between(drain_start, Clock::now()));
  json.add("daemon_exit", static_cast<double>(code));
  const std::string& text = daemon.stdout_text();
  json.add("replay_match",
           text.find("replay: MATCH") != std::string::npos ? 1.0 : 0.0);
  // The `serve` fingerprint line (without its newline) that every replay
  // must reproduce.
  const std::size_t at = text.find("\nserve ");
  const std::string fingerprint =
      at == std::string::npos
          ? std::string()
          : text.substr(at + 1, text.find('\n', at + 1) - at - 1);
  json.add("fingerprint", fingerprint);

  // The batch replay of the admitted stream must reproduce the daemon's
  // printed `serve` line.
  const mbts::MarketConfig config =
      mbts::serve::fig1_market(cli.get_uint("seed"));
  if (code == 0 && !fingerprint.empty()) {
    mbts::Market market(config);
    market.inject(mbts::load_trace_csv(trace_out));
    json.add("batch_match",
             mbts::fingerprint_line("serve", market.run()) == fingerprint + '\n'
                 ? 1.0
                 : 0.0);
  }

  // wall_s: Market::run() of the served economy in batch, the mean over the
  // served stream and further draws of the same seed, load and size. The
  // admitted stream carries the daemon's wall-clock arrival stamps, so its
  // work changes from run to run; generated streams are fixed by the seed.
  // At load 2.0 one stream's work follows how its draw grows the
  // no-admission site's backlog (6% interquartile range over ten seeds), so
  // the mean runs over several draws.
  std::vector<double> wall_s;
  for (std::size_t draw = 0; draw < cli.get_uint("wall-draws"); ++draw) {
    mbts::Market market(config);
    market.inject(serve_bids(cli.get_uint("seed"), load, n, draw));
    const Clock::time_point start = Clock::now();
    market.run();
    wall_s.push_back(seconds_between(start, Clock::now()));
  }
  json.add("wall_s", mean(wall_s));
  if (!cli.get_string("stats-out").empty()) {
    std::ofstream out(cli.get_string("stats-out"));
    MBTS_CHECK_MSG(out.good(), "cannot write " + cli.get_string("stats-out"));
    out << stats;
  }
  json.write(cli.get_string("out"));
  return 0;
}

}  // namespace bench
