// The live workload: mecdns_livewire serving a seeded MEC zone on a
// loopback UDP port, driven by an open-loop paced generator.
//
// The generator is one sender thread and one receiver thread over four
// connected UDP sockets. Query i is due at t0 + i/rate and its latency is
// taken from that due time, not from when it was sent, so a stalled sender
// shows up as latency instead of silently lowering the load. Every reply is
// checked: it must echo the ID and question, carry rcode NOERROR and the A
// address the zone serves for that name.
//
// Two phases per measurement: a fixed rate well under capacity (latency,
// loss) and an offer far above capacity (answers per second). The traced run
// repeats both against the same server stack built in-process on a
// decorated runtime, so per-layer time comes from spans around the runtime,
// socket and plugin calls.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <time.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "dns/plugin.h"
#include "dns/wire.h"
#include "netio/epoll_runtime.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "spans.h"
#include "util/rng.h"

extern char** environ;

namespace mecbench {
namespace {

using namespace mecdns;

constexpr double kFixedRate = 5000.0;      // queries/s, well under capacity
constexpr double kOverloadRate = 200000.0; // queries/s, far above capacity
constexpr double kWarmupRate = 50000.0;
constexpr std::size_t kNames = 64;
constexpr int kSockets = 4;
constexpr std::size_t kSlotBits = 18;  // 2 socket bits + 16 ID bits
constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
constexpr std::size_t kWarmupQueries = 500;
constexpr int kSegments = 12;
constexpr double kMinPhaseS = 0.4;
constexpr std::size_t kSetups = 6;
/// 100 ms of samples at the fixed rate.
constexpr std::size_t kLatencyBlock = 500;
constexpr std::size_t kCaptureLimit = 50000;
constexpr std::size_t kSpanCapacity = 3000000;
constexpr std::uint32_t kTtl = 60;
constexpr const char* kOrigin = "mec.test";
/// A run where the sender achieved less than this share of its target
/// rate, or offered less than this multiple of the answered rate at
/// overload, measured the generator rather than the server.
constexpr double kMinOfferedRatio = 0.97;
constexpr double kMinOverloadFactor = 1.2;

/// The seeded inputs: zone contents and the per-query name sequence.
struct LiveInputs {
  std::vector<std::string> names;
  std::vector<std::uint32_t> addrs;
  std::vector<std::vector<std::uint8_t>> query_wire;  ///< ID bytes zero
  std::vector<std::size_t> question_len;              ///< bytes after header
  std::vector<std::uint16_t> sequence;                ///< name of query i

  std::string records_flag() const {
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i) out += ',';
      out += names[i] + "=" + simnet::Ipv4Address(addrs[i]).to_string();
    }
    return out;
  }

  std::shared_ptr<dns::Zone> zone() const {
    auto zone = std::make_shared<dns::Zone>(dns::DnsName::must_parse(kOrigin));
    for (std::size_t i = 0; i < names.size(); ++i) {
      zone->must_add(dns::make_a(dns::DnsName::must_parse(names[i]),
                                 simnet::Ipv4Address(addrs[i]), kTtl));
    }
    return zone;
  }
};

LiveInputs make_inputs(std::uint64_t seed) {
  LiveInputs in;
  util::Rng rng(seed ^ 0x6c697665ULL);
  for (std::size_t i = 0; i < kNames; ++i) {
    std::string label;
    const std::size_t len = 3 + rng.next() % 14;
    for (std::size_t k = 0; k < len; ++k) {
      label += static_cast<char>('a' + rng.next() % 26);
    }
    in.names.push_back(label + "-" + std::to_string(i) + "." + kOrigin);
    in.addrs.push_back((10u << 24) | static_cast<std::uint32_t>(rng.next() % 0xfffffe + 1));
    const auto wire = dns::encode(dns::make_query(
        0, dns::DnsName::must_parse(in.names.back()), dns::RecordType::kA));
    in.query_wire.push_back(wire);
    in.question_len.push_back(wire.size() - 12);
  }
  in.sequence.resize(1 << 16);
  for (auto& name : in.sequence) name = static_cast<std::uint16_t>(rng.next() % kNames);
  return in;
}

// --- the generator -----------------------------------------------------------

/// Pins `pid` (0 = calling thread) to one CPU when the host has at least
/// four: server, sender and receiver each get their own, and CPU 0 stays
/// free for everything else. Migrations between CPUs otherwise swing the
/// measured capacity by a quarter between runs.
void pin(pid_t pid, int cpu) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(pid, sizeof(set), &set);  // best effort
}
constexpr int kServerCpu = 1;
constexpr int kSenderCpu = 2;
constexpr int kReceiverCpu = 3;

struct Slot {
  std::atomic<std::uint64_t> seq{0};  ///< query index + 1, set before send
  std::int64_t due_ns = 0;
  std::uint16_t name = 0;
};

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  double send_s = 0.0;
  double target_rate = 0.0;
  std::vector<double> latency_us;  ///< from due time, per answered query
  std::vector<double> lag_us;      ///< send time minus due time
  std::vector<double> window_rates;  ///< answers/s per 100 ms window
  std::vector<std::vector<std::uint8_t>> replies;  ///< capture for replay

  std::uint64_t lost() const { return sent - answered; }

  /// Accumulates another phase at the same rate.
  void merge(PhaseResult&& o) {
    sent += o.sent;
    send_errors += o.send_errors;
    answered += o.answered;
    wrong += o.wrong;
    send_s += o.send_s;
    target_rate = o.target_rate;
    latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
    lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
    window_rates.insert(window_rates.end(), o.window_rates.begin(), o.window_rates.end());
    for (auto& r : o.replies) replies.push_back(std::move(r));
  }
  double offered_ratio() const {
    return send_s > 0.0 && target_rate > 0.0
               ? static_cast<double>(sent) / send_s / target_rate
               : 0.0;
  }
  double p(double pct) const { return percentile(latency_us, pct); }
  /// Median over consecutive blocks of `block` samples of each block's
  /// median: a host stall spoils the blocks it hits, not the phase.
  double block_p50(std::size_t block) const {
    std::vector<double> medians;
    for (std::size_t k = 0; k + block <= latency_us.size(); k += block) {
      medians.push_back(median(std::vector<double>(latency_us.begin() + static_cast<long>(k),
                                                   latency_us.begin() + static_cast<long>(k + block))));
    }
    return median(std::move(medians));
  }
};

class FdGuard {
 public:
  explicit FdGuard(int fd = -1) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// Checks one reply against the slot table. Returns the slot's query index
/// + 1 for a correct first answer, 0 for a wrong or duplicate one.
std::uint64_t check_reply(const std::uint8_t* b, std::size_t len, int socket,
                          const LiveInputs& in, Slot* slots,
                          std::vector<std::uint64_t>& answered_seq) {
  if (len < 12) return 0;
  const std::uint16_t id = static_cast<std::uint16_t>(b[0] << 8 | b[1]);
  Slot& slot = slots[(static_cast<std::size_t>(id) << 2) | static_cast<std::size_t>(socket)];
  const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
  if (seq == 0) return 0;
  std::uint64_t& seen = answered_seq[(static_cast<std::size_t>(id) << 2) | static_cast<std::size_t>(socket)];
  if (seen == seq) return 0;  // duplicate
  const bool qr = (b[2] & 0x80) != 0;
  const int rcode = b[3] & 0x0f;
  const int qdcount = b[4] << 8 | b[5];
  const int ancount = b[6] << 8 | b[7];
  if (!qr || rcode != 0 || qdcount != 1 || ancount < 1) return 0;
  const auto& query = in.query_wire[slot.name];
  const std::size_t qlen = in.question_len[slot.name];
  if (len < 12 + qlen || std::memcmp(b + 12, query.data() + 12, qlen) != 0) return 0;
  std::size_t pos = 12 + qlen;
  for (int a = 0; a < ancount; ++a) {
    // Owner name: labels, optionally ending in a compression pointer.
    while (pos < len && b[pos] != 0 && (b[pos] & 0xc0) != 0xc0) pos += 1 + b[pos];
    if (pos >= len) return 0;
    pos += (b[pos] & 0xc0) == 0xc0 ? 2 : 1;
    if (pos + 10 > len) return 0;
    const int type = b[pos] << 8 | b[pos + 1];
    const int rdlen = b[pos + 8] << 8 | b[pos + 9];
    pos += 10;
    if (pos + static_cast<std::size_t>(rdlen) > len) return 0;
    if (type == 1 && rdlen == 4) {
      const std::uint32_t addr = static_cast<std::uint32_t>(b[pos]) << 24 |
                                 static_cast<std::uint32_t>(b[pos + 1]) << 16 |
                                 static_cast<std::uint32_t>(b[pos + 2]) << 8 |
                                 b[pos + 3];
      if (addr != in.addrs[slot.name]) return 0;
      seen = seq;
      return seq;
    }
    pos += static_cast<std::size_t>(rdlen);
  }
  return 0;
}

/// Sends `rate` queries/s for `seconds` to `server` and collects replies.
PhaseResult run_phase(const LiveInputs& in, const simnet::Endpoint& server,
                      double rate, double seconds, bool keep_replies) {
  PhaseResult r;
  r.target_rate = rate;
  std::vector<std::unique_ptr<FdGuard>> socks;
  FdGuard ep(::epoll_create1(0));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(server.port);
  sa.sin_addr.s_addr = htonl(server.addr.value());
  for (int s = 0; s < kSockets; ++s) {
    socks.push_back(std::make_unique<FdGuard>(
        ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0)));
    const int fd = socks.back()->get();
    const int buf = 8 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
      throw std::runtime_error("generator socket: " + std::string(std::strerror(errno)));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(s);
    ::epoll_ctl(ep.get(), EPOLL_CTL_ADD, fd, &ev);
  }

  auto slots = std::make_unique<Slot[]>(kSlots);
  std::vector<std::uint64_t> answered_seq(kSlots, 0);
  const auto total = static_cast<std::uint64_t>(std::llround(rate * seconds));
  r.lag_us.reserve(total);
  r.latency_us.reserve(total);
  const double period_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 2'000'000;
  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> sent{0};

  pin(0, kReceiverCpu);
  // A slot is reused 2^18 queries later (1.3 s at the overload rate); a
  // reply is checked within milliseconds of its query, long before that.
  std::jthread sender([&] {
    pin(0, kSenderCpu);
    std::vector<std::uint8_t> buf(512);
    for (std::uint64_t i = 0; i < total; ++i) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
        // Sleep while far ahead, spin the last stretch.
        if (due - now > 80'000) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 70'000));
      }
      const std::uint16_t name = in.sequence[i & 0xffff];
      const int socket = static_cast<int>(i & 3);
      const std::uint16_t id = static_cast<std::uint16_t>(i >> 2);
      Slot& slot = slots[i & (kSlots - 1)];
      slot.due_ns = due;
      slot.name = name;
      slot.seq.store(i + 1, std::memory_order_release);
      const auto& wire = in.query_wire[name];
      std::memcpy(buf.data(), wire.data(), wire.size());
      buf[0] = static_cast<std::uint8_t>(id >> 8);
      buf[1] = static_cast<std::uint8_t>(id);
      if (::send(socks[static_cast<std::size_t>(socket)]->get(), buf.data(), wire.size(), 0) < 0) {
        ++r.send_errors;
      }
      r.lag_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
      sent.store(i + 1, std::memory_order_release);
    }
    r.send_s = static_cast<double>(now_ns() - t0) * 1e-9;
    sender_done.store(true, std::memory_order_release);
  });

  // Receiver: this thread. Windows count answers by arrival time.
  constexpr std::int64_t kWindowNs = 100'000'000;
  std::vector<std::uint64_t> windows(static_cast<std::size_t>(seconds * 1e9 / kWindowNs) + 1, 0);
  std::uint8_t buf[4096];
  std::int64_t quiet_since = 0;
  for (;;) {
    // Busy-polls while the sender runs, so the receiver's own wakeup stays
    // out of the measured latency.
    const bool sending = !sender_done.load(std::memory_order_acquire);
    epoll_event events[kSockets];
    const int n = ::epoll_wait(ep.get(), events, kSockets, sending ? 0 : 5);
    bool got = false;
    for (int e = 0; e < n; ++e) {
      const int s = static_cast<int>(events[e].data.u32);
      for (;;) {
        const ssize_t len = ::recv(socks[static_cast<std::size_t>(s)]->get(), buf, sizeof(buf), 0);
        if (len < 0) break;
        got = true;
        const std::int64_t at = now_ns();
        const std::uint64_t seq = check_reply(buf, static_cast<std::size_t>(len), s, in,
                                              slots.get(), answered_seq);
        if (seq == 0) {
          ++r.wrong;
          continue;
        }
        ++r.answered;
        const std::int64_t due = slots[(seq - 1) & (kSlots - 1)].due_ns;
        r.latency_us.push_back(static_cast<double>(at - due) * 1e-3);
        const std::int64_t w = (at - t0) / kWindowNs;
        if (w >= 0 && static_cast<std::size_t>(w) < windows.size()) ++windows[static_cast<std::size_t>(w)];
        if (keep_replies && r.replies.size() < kCaptureLimit) {
          r.replies.emplace_back(buf, buf + len);
        }
      }
    }
    if (sending) continue;
    if (r.answered + r.wrong >= sent.load()) break;
    // Stragglers: stop once nothing has arrived for 50 ms.
    const std::int64_t now = now_ns();
    if (got || quiet_since == 0) quiet_since = now;
    if (now - quiet_since > 50'000'000) break;
  }
  sender.join();
  r.sent = sent.load();
  // Full windows only, skipping the first (ramp-up).
  const std::size_t full = static_cast<std::size_t>(r.send_s * 1e9 / kWindowNs);
  for (std::size_t w = 1; w < std::min(full, windows.size()); ++w) {
    r.window_rates.push_back(static_cast<double>(windows[w]) * 1e9 / kWindowNs);
  }
  return r;
}

// --- the shipped server as a child process ----------------------------------

class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const LiveInputs& in) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    out_fd_ = fds[0];
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    const std::string records = in.records_flag();
    const std::string ttl = std::to_string(kTtl);
    std::vector<std::string> args = {binary, "--port", "0", "--zone", kOrigin,
                                     "--records", records, "--ttl", ttl,
                                     "--duration-s", "0"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      release();
      throw std::runtime_error("cannot start " + binary + ": " + std::strerror(rc));
    }
    pin(pid_, kServerCpu);
    // The serve mode prints "LISTENING ip:port" once bound.
    for (std::string line; read_line(line, 10000);) {
      if (line.rfind("LISTENING ", 0) == 0) {
        const std::string ep = line.substr(10);
        const auto colon = ep.rfind(':');
        endpoint_ = simnet::Endpoint{simnet::Ipv4Address::must_parse(ep.substr(0, colon)),
                                     static_cast<std::uint16_t>(std::stoi(ep.substr(colon + 1)))};
        return;
      }
    }
    release();
    throw std::runtime_error("server did not report LISTENING");
  }

  ~ServerProcess() { release(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  const simnet::Endpoint& endpoint() const { return endpoint_; }

  /// CPU seconds the server has run since it was spawned.
  double cpu_s() const {
    clockid_t clock = 0;
    timespec t{};
    if (clock_getcpuclockid(pid_, &clock) != 0 || clock_gettime(clock, &t) != 0) return 0.0;
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
  }

  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
  }

  /// SIGINT, then the teardown counters: "queries=" and "timers_fired=".
  std::map<std::string, std::uint64_t> stop() {
    std::map<std::string, std::uint64_t> counters;
    ::kill(pid_, SIGINT);
    for (std::string line; read_line(line, 10000);) {
      std::istringstream words(line);
      for (std::string word; words >> word;) {
        const auto eq = word.find('=');
        if (eq == std::string::npos) continue;
        try {
          counters[word.substr(0, eq)] = std::stoull(word.substr(eq + 1));
        } catch (const std::exception&) {
        }
      }
    }
    // Output ended (or stalled for 10 s): give the process 5 s to exit,
    // then kill it.
    for (int waited_ms = 0; waited_ms < 5000; waited_ms += 10) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        exited_cleanly_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    release();
    return counters;
  }
  bool exited_cleanly() const { return exited_cleanly_; }

 private:
  /// Kills and reaps the process if it still runs; closes the pipe.
  void release() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  /// Reads one line of the child's stdout; false on EOF or timeout.
  bool read_line(std::string& line, int timeout_ms) {
    line.clear();
    for (;;) {
      const auto nl = pending_.find('\n');
      if (nl != std::string::npos) {
        line = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
      char buf[4096];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      pending_.append(buf, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;
  simnet::Endpoint endpoint_;
  bool exited_cleanly_ = false;
};

// --- the same server in-process, on decorated layers (traced run) -----------

/// Times DatagramSocket::send.
class TimedSocket final : public netio::DatagramSocket {
 public:
  TimedSocket(netio::DatagramSocket* inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}
  simnet::Endpoint endpoint() const override { return inner_->endpoint(); }
  void send(const simnet::Endpoint& dst, std::span<const std::uint8_t> payload,
            std::size_t virtual_size) override {
    ScopedSpan span(&recorder_, SpanName::kSend);
    inner_->send(dst, payload, virtual_size);
  }
  netio::DatagramSocket* inner() const { return inner_; }

 private:
  netio::DatagramSocket* inner_;
  SpanRecorder& recorder_;
};

/// A netio::Runtime that forwards to another and records a span around
/// every receive handler, timer callback and socket send.
class TracingRuntime final : public netio::Runtime {
 public:
  TracingRuntime(netio::Runtime& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  simnet::SimTime now() const override { return inner_.now(); }

  netio::TimerId schedule_after(simnet::SimTime delay, Callback fn) override {
    // Callbacks wait in a slab so the forwarded one stays small enough to
    // be stored inline (no allocation per timer).
    std::size_t slot;
    if (free_.empty()) {
      slot = pending_.size();
      pending_.push_back(std::move(fn));
    } else {
      slot = free_.back();
      free_.pop_back();
      pending_[slot] = std::move(fn);
    }
    return inner_.schedule_after(delay, [this, slot] {
      Callback fn = std::move(pending_[slot]);
      free_.push_back(slot);
      ++timers_;
      ScopedSpan span(&recorder_, SpanName::kTimer);
      fn();
    });
  }

  // A cancelled timer keeps its slot until the runtime is destroyed.
  void cancel(netio::TimerId timer) override { inner_.cancel(timer); }

  netio::DatagramSocket* open_socket(std::uint16_t port,
                                     netio::DatagramSocket::ReceiveHandler handler,
                                     simnet::Ipv4Address addr) override {
    netio::DatagramSocket* inner = inner_.open_socket(
        port,
        [this, handler = std::move(handler)](const simnet::Packet& packet) {
          const std::uint64_t request =
              packet.payload.size() >= 2
                  ? (std::uint64_t{packet.payload[0]} << 8 | packet.payload[1]) + 1
                  : 0;
          ScopedSpan span(&recorder_, SpanName::kRecvHandler, request);
          handler(packet);
        },
        addr);
    sockets_.push_back(std::make_unique<TimedSocket>(inner, recorder_));
    return sockets_.back().get();
  }

  void close_socket(netio::DatagramSocket* socket) override {
    for (auto it = sockets_.begin(); it != sockets_.end(); ++it) {
      if (it->get() == socket) {
        inner_.close_socket((*it)->inner());
        sockets_.erase(it);
        return;
      }
    }
  }

  std::uint64_t timers() const { return timers_; }

 private:
  netio::Runtime& inner_;
  SpanRecorder& recorder_;
  std::vector<Callback> pending_;
  std::vector<std::size_t> free_;
  std::vector<std::unique_ptr<TimedSocket>> sockets_;
  std::uint64_t timers_ = 0;
};

/// Times one plugin's serve() (including what it calls synchronously).
class TimedPlugin final : public dns::Plugin {
 public:
  TimedPlugin(std::unique_ptr<dns::Plugin> inner, SpanName span, SpanRecorder& recorder)
      : inner_(std::move(inner)), span_(span), recorder_(recorder) {}
  std::string name() const override { return inner_->name(); }
  void serve(const dns::PluginContext& ctx, Respond respond, Next next) override {
    ScopedSpan span(&recorder_, span_);
    inner_->serve(ctx, std::move(respond), std::move(next));
  }

 private:
  std::unique_ptr<dns::Plugin> inner_;
  SpanName span_;
  SpanRecorder& recorder_;
};

/// mecdns_livewire's serve-mode stack (zone plugin, then refuse) on a
/// TracingRuntime over an EpollRuntime, run on its own thread.
class TracedServer {
 public:
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t timers = 0;
    std::uint64_t retransmits = 0;
    util::perf::Counters perf;
  };

  TracedServer(const LiveInputs& in, SpanRecorder& recorder) : recorder_(recorder) {
    auto endpoint = bound_.get_future();
    thread_ = std::thread([this, &in] { serve(in); });
    pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_);
    endpoint_ = endpoint.get();
  }
  ~TracedServer() { stop(); }
  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  const simnet::Endpoint& endpoint() const { return endpoint_; }

  /// CPU seconds the server thread has run so far.
  double cpu_s() const {
    timespec t{};
    clock_gettime(cpu_clock_, &t);
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
  }

  /// Stops the loop and joins; the stats are final afterwards.
  const Stats& stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return stats_;
  }

 private:
  void serve(const LiveInputs& in) {
    pin(0, kServerCpu);
    netio::EpollRuntime epoll;
    TracingRuntime rt(epoll, recorder_);
    {
      dns::PluginChainServer server(
          rt, "mec-ldns", simnet::LatencyModel::constant(simnet::SimTime::zero()), 0);
      dns::PluginChain& chain = server.add_default_view("public");
      chain.add(std::make_unique<TimedPlugin>(
          std::make_unique<dns::ZonePlugin>(in.zone()), SpanName::kPluginZone, recorder_));
      chain.add(std::make_unique<TimedPlugin>(std::make_unique<dns::RefusePlugin>(),
                                              SpanName::kPluginRefuse, recorder_));
      // Polled on the undecorated loop, so it is not one of the counted timers.
      std::function<void()> poll_stop = [&] {
        if (stop_.load()) {
          epoll.stop();
        } else {
          epoll.schedule_after(simnet::SimTime::millis(20), [&] { poll_stop(); });
        }
      };
      epoll.schedule_after(simnet::SimTime::millis(20), [&] { poll_stop(); });
      const obs::PerfSnapshot snapshot = obs::PerfSnapshot::take();
      bound_.set_value(server.endpoint());
      epoll.run();
      stats_.perf = snapshot.delta();
      stats_.queries = server.stats().queries;
      stats_.retransmits = server.transport().retransmissions();
      stats_.timers = rt.timers();
    }
  }

  SpanRecorder& recorder_;
  std::atomic<bool> stop_{false};
  std::promise<simnet::Endpoint> bound_;
  simnet::Endpoint endpoint_;
  clockid_t cpu_clock_ = CLOCK_THREAD_CPUTIME_ID;
  Stats stats_;
  std::thread thread_;  // last: joined before the members it uses go
};

struct Setup {
  double cpu_s = 0.0;   ///< the server's CPU time from spawn to warmed up
  double wall_s = 0.0;  ///< spawn, LISTENING and warmup, wall clock
};

/// One launch of the shipped server: spawn, LISTENING, warmup.
Setup launch(const Options& o, const LiveInputs& in, std::unique_ptr<ServerProcess>& server,
             RunResult& out) {
  const std::int64_t start = now_ns();
  server = std::make_unique<ServerProcess>(o.livewire, in);
  const PhaseResult warm = run_phase(in, server->endpoint(), kWarmupRate,
                                     kWarmupQueries / kWarmupRate, false);
  if (warm.wrong != 0) out.correct = false;
  return Setup{server->cpu_s(), seconds_since(start)};
}

/// Stops a launched server and checks its teardown: the zone answered
/// every query it saw, and the process exited cleanly.
std::map<std::string, std::uint64_t> shut(std::unique_ptr<ServerProcess>& server,
                                          RunResult& out) {
  auto counters = server->stop();
  if (!server->exited_cleanly()) {
    out.correct = false;
    out.notes.push_back("ERROR: mecdns_livewire did not exit cleanly");
  }
  server.reset();
  return counters;
}

std::string validity(const PhaseResult& fixed, const PhaseResult& overload, double capacity) {
  std::string why;
  if (fixed.offered_ratio() < kMinOfferedRatio) why += "fixed-rate sender fell behind; ";
  if (overload.sent < kMinOverloadFactor * capacity * overload.send_s) {
    why += "overload offer did not exceed capacity; ";
  }
  return why;
}

}  // namespace

RunResult run_live(const Options& o) {
  RunResult out;
  const LiveInputs in = make_inputs(o.seed);
  out.detail["link"] = "\"host loopback (127.0.0.1), not a real link\"";
  out.detail["loop"] = "\"open (paced)\"";
  out.detail["fixed_rate_qps"] = obs::format_double(kFixedRate);
  out.detail["overload_offer_qps"] = obs::format_double(kOverloadRate);
  out.detail["sockets"] = std::to_string(kSockets);
  out.detail["zone_names"] = std::to_string(kNames);
  out.notes.push_back("traffic crossed the host loopback interface, not a real link");

  // Two servers stay up side by side: one only ever sees the fixed rate
  // (so its read count gives the kernel drops there), the other the
  // overload. Short segments alternate between them, so both phases sample
  // the run's whole spread of host conditions. Traced runs keep a shorter
  // untraced reference.
  const int segments = o.trace || o.small ? 2 : kSegments;
  // At least three 100 ms windows per segment, even at tiny budgets.
  const double segment_s =
      std::max(kMinPhaseS, o.seconds * (o.trace ? 0.2 : 0.8) / (2 * segments));

  std::unique_ptr<ServerProcess> fixed_server, overload_server, spare;
  std::vector<Setup> setups;
  std::vector<double> rss;
  PhaseResult fixed, overload;
  std::vector<double> segment_qps_cpu;  // answers per server CPU second
  setups.push_back(launch(o, in, fixed_server, out));
  setups.push_back(launch(o, in, overload_server, out));
  for (int k = 0; k < segments; ++k) {
    fixed.merge(run_phase(in, fixed_server->endpoint(), kFixedRate, segment_s, false));
    const double cpu_before = overload_server->cpu_s();
    PhaseResult segment = run_phase(in, overload_server->endpoint(), kOverloadRate, segment_s, false);
    segment_qps_cpu.push_back(ratio(segment.answered, overload_server->cpu_s() - cpu_before));
    overload.merge(std::move(segment));
  }
  // The server's own peak (getrusage on a spawned child would also count the
  // spawning process's pages from before the exec).
  rss.push_back(fixed_server->peak_rss_mb());
  rss.push_back(overload_server->peak_rss_mb());
  double kernel_drops = 0.0;  // at the fixed rate: sent minus server reads
  const auto counters = shut(fixed_server, out);
  if (const auto it = counters.find("queries"); it != counters.end()) {
    kernel_drops = static_cast<double>(fixed.sent + kWarmupQueries) -
                   static_cast<double>(it->second);
  } else {
    out.correct = false;
    out.notes.push_back("ERROR: no queries= line from mecdns_livewire");
  }
  shut(overload_server, out);
  while (setups.size() < kSetups) {
    setups.push_back(launch(o, in, spare, out));
    shut(spare, out);
  }
  std::vector<double> setup_cpu, setup_wall;
  for (const Setup& setup : setups) {
    setup_cpu.push_back(setup.cpu_s);
    setup_wall.push_back(setup.wall_s);
  }

  // Capacity per server CPU second: answers over the CPU time the saturated
  // server got, which leaves out the time the host gave the server's CPU to
  // someone else. Lower quartile over segments, as for sim.cc's qps_cpu.
  const double capacity_cpu = percentile(segment_qps_cpu, 25.0);
  const double capacity_wall = percentile(overload.window_rates, 25.0);
  const std::string invalid = validity(fixed, overload, capacity_wall);
  out.detail["valid"] = invalid.empty() ? "true" : "false";
  if (!invalid.empty()) out.notes.push_back("WARNING: run invalid, generator-bound: " + invalid);
  if (fixed.wrong != 0 || overload.wrong != 0) out.correct = false;
  if (fixed.answered == 0 || capacity_cpu <= 0.0) out.correct = false;
  out.attempted = fixed.sent;
  out.failed = fixed.lost() + fixed.wrong;

  out.detail["fixed_sent"] = std::to_string(fixed.sent);
  out.detail["fixed_lost"] = std::to_string(fixed.lost());
  out.detail["fixed_kernel_drops"] = obs::format_double(kernel_drops);
  out.detail["segments"] = std::to_string(segments);
  out.detail["overload_sent"] = std::to_string(overload.sent);
  out.detail["send_errors"] = std::to_string(fixed.send_errors + overload.send_errors);
  out.detail["overload_answered"] = std::to_string(overload.answered);
  out.detail["live_capacity_qps"] = obs::format_double(capacity_wall);
  out.detail["live_p50_us"] = obs::format_double(fixed.block_p50(kLatencyBlock));
  out.detail["live_p99_us"] = obs::format_double(fixed.p(99.0));
  out.detail["gen_lag_p99_us"] = obs::format_double(percentile(fixed.lag_us, 99.0));
  out.detail["gen_offered_ratio"] = obs::format_double(fixed.offered_ratio());
  out.detail["setup_wall_s"] = obs::format_double(median(setup_wall));

  if (!o.trace) {
    out.metrics["setup_s"] = median(setup_cpu);
    out.metrics["qps_cpu"] = capacity_cpu;
    out.metrics["peak_rss_mb"] = *std::max_element(rss.begin(), rss.end());
    return out;
  }

  // Traced: the same phases against the in-process decorated server.
  SpanRecorder recorder(kSpanCapacity);
  PhaseResult traced_fixed, traced_overload;
  TracedServer::Stats stats;
  std::int64_t fixed_start = 0, fixed_end = 0;
  double traced_overload_cpu_s = 0.0;
  {
    TracedServer traced(in, recorder);
    run_phase(in, traced.endpoint(), kWarmupRate, kWarmupQueries / kWarmupRate, false);
    fixed_start = now_ns();
    traced_fixed = run_phase(in, traced.endpoint(), kFixedRate, std::max(kMinPhaseS, o.seconds * 0.15), true);
    fixed_end = now_ns();
    const double cpu_before = traced.cpu_s();
    traced_overload = run_phase(in, traced.endpoint(), kOverloadRate, std::max(kMinPhaseS, o.seconds * 0.1), false);
    traced_overload_cpu_s = traced.cpu_s() - cpu_before;
    stats = traced.stop();
  }
  if (traced_fixed.wrong != 0 || traced_overload.wrong != 0) out.correct = false;
  // Loop busy share at the fixed rate: top-level handler and timer time
  // over the phase's wall time.
  double busy_ns = 0.0;
  for (const Span& s : recorder.spans()) {
    if (s.parent < 0 && s.end_ns != 0 && s.start_ns >= fixed_start && s.start_ns < fixed_end &&
        (s.name == SpanName::kRecvHandler || s.name == SpanName::kTimer)) {
      busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<std::vector<std::uint8_t>> messages = in.query_wire;
  messages.insert(messages.end(), traced_fixed.replies.begin(), traced_fixed.replies.end());
  replay_wire(messages, *in.zone(), recorder);

  std::filesystem::create_directories(o.out_dir);
  // One file per workload, overwritten by the next traced run.
  const std::string span_file = o.out_dir + "/spans-" + o.workload + ".csv";
  std::map<std::string, SpanTotals> totals;
  if (!write_spans(span_file, recorder.spans()) ||
      !read_span_totals(span_file, totals)) {
    out.correct = false;
    out.notes.push_back("ERROR: cannot write or read back " + span_file);
  }
  out.detail["span_file"] = "\"" + span_file + "\"";
  out.detail["spans_dropped"] = std::to_string(recorder.dropped());
  const double traced_capacity = ratio(traced_overload.answered, traced_overload_cpu_s);
  out.detail["qps_cpu_untraced"] = obs::format_double(capacity_cpu);
  out.detail["qps_cpu_traced"] = obs::format_double(traced_capacity);

  const double q = static_cast<double>(stats.queries);
  auto& m = out.metrics;
  for (const char* name : {"simnet.events_per_query", "simnet.step_ns",
                           "simnet.peak_queue_depth", "simnet.packets_per_query",
                           "dns.stub.issue_ns", "dns.cache.hit_ratio", "dns.forward.share",
                           "cdn.router.routes_per_query", "cdn.cache.hit_ratio",
                           "sim.qps_wall", "sim.dns_p50_ms", "sim.dns_p99_ms",
                           "sim.fetch_p50_ms", "sim.fetch_p99_ms"}) {
    m[name] = 0.0;  // no simulator, resolver cache, forwarder or CDN here
  }
  m["dns.wire.msgs_per_query"] = ratio(stats.perf.dns_encoded + stats.perf.dns_decoded, q);
  m["dns.wire.bytes_per_query"] =
      ratio(stats.perf.dns_bytes_encoded + stats.perf.dns_bytes_decoded, q);
  m["dns.wire.decode_ns"] = mean_self_ns(totals, "dns.wire.decode");
  m["dns.wire.encode_ns"] = mean_self_ns(totals, "dns.wire.encode");
  m["dns.zone.lookup_ns"] = mean_self_ns(totals, "dns.zone.lookup");
  const auto self_of = [&](const char* name) {
    const auto t = totals.find(name);
    return t == totals.end() ? 0.0 : t->second.self_ns;
  };
  m["dns.plugin.chain_ns"] = ratio(self_of("dns.plugin.zone") + self_of("dns.plugin.refuse"), q);
  m["dns.transport.retransmits_per_query"] = ratio(stats.retransmits, q);
  m["netio.recv_handler_ns"] = mean_self_ns(totals, "netio.recv_handler");
  m["netio.timer_ns"] = mean_self_ns(totals, "netio.timer");
  m["netio.timers_per_query"] = ratio(stats.timers, q);
  m["netio.send_ns"] = mean_self_ns(totals, "netio.send");
  m["netio.loop_busy_ratio"] = busy_ns / static_cast<double>(fixed_end - fixed_start);
  m["netio.kernel_drops"] = kernel_drops;
  m["alloc.allocs_per_query"] = ratio(stats.perf.allocs, q);
  m["alloc.bytes_per_query"] = ratio(stats.perf.alloc_bytes, q);
  m["gen.lag_p99_us"] = percentile(fixed.lag_us, 99.0);
  m["gen.offered_ratio"] = fixed.offered_ratio();
  m["live.p50_us"] = fixed.block_p50(kLatencyBlock);
  m["live.p99_us"] = fixed.p(99.0);
  m["live.capacity_wall_qps"] = capacity_wall;
  m["fail_ratio"] = ratio(out.failed, out.attempted);
  m["trace.overhead_ratio"] = 1.0 - ratio(traced_capacity, capacity_cpu);
  m["trace.spans"] = static_cast<double>(recorder.spans().size());
  return out;
}

}  // namespace mecbench
