// Clock/IO abstraction tests: the epoll runtime's timers and real UDP
// sockets, and the same DNS stack running unchanged over either runtime.
//
// The loopback round-trip here is the in-tree half of the live-wire story:
// an AuthoritativeServer bound to a real 127.0.0.1 port answers a
// StubResolver whose retransmission timers are wall-clock epoll timers.
// tools/check.sh's livewire-smoke stage drives the same path through the
// mecdns_livewire binary from outside the process.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "dns/server.h"
#include "dns/stub.h"
#include "dns/transport.h"
#include "netio/epoll_runtime.h"
#include "netio/sim_runtime.h"

namespace mecdns::netio {
namespace {

using dns::DnsName;
using dns::RecordType;
using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

TEST(EpollRuntimeTest, TimersFireInDeadlineOrder) {
  EpollRuntime rt;
  std::vector<int> fired;
  rt.schedule_after(SimTime::millis(30), [&] { fired.push_back(30); });
  rt.schedule_after(SimTime::millis(10), [&] { fired.push_back(10); });
  rt.schedule_after(SimTime::millis(20), [&] {
    fired.push_back(20);
    rt.stop();
  });
  rt.run();
  // 30 ms had not elapsed when stop() was called from the 20 ms timer...
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  rt.run_until(rt.now() + SimTime::millis(100));
  // ...and a second run() picks it up: timers survive across runs.
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(rt.timers_fired(), 3u);
}

TEST(EpollRuntimeTest, EqualDeadlinesFireInScheduleOrder) {
  // The simulator breaks deadline ties by schedule sequence; the wall-clock
  // heap must match so ported code sees the same callback order.
  EpollRuntime rt;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    rt.schedule_after(SimTime::millis(5), [&fired, i] { fired.push_back(i); });
  }
  rt.run_until(rt.now() + SimTime::millis(50));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EpollRuntimeTest, CancelledTimerNeverFires) {
  EpollRuntime rt;
  bool cancelled_fired = false;
  bool kept_fired = false;
  const TimerId doomed =
      rt.schedule_after(SimTime::millis(10), [&] { cancelled_fired = true; });
  rt.schedule_after(SimTime::millis(20), [&] { kept_fired = true; });
  rt.cancel(doomed);
  rt.cancel(doomed);  // double-cancel is harmless
  rt.cancel(kNoTimer);
  rt.run_until(rt.now() + SimTime::millis(60));
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(kept_fired);
  EXPECT_EQ(rt.timers_cancelled(), 1u);
  EXPECT_EQ(rt.timers_fired(), 1u);
}

TEST(EpollRuntimeTest, StaleIdDoesNotCancelTheSlotsNextTimer) {
  EpollRuntime rt;
  int first_fired = 0;
  int second_fired = 0;
  const TimerId first = rt.schedule_after(SimTime::zero(), [&] { ++first_fired; });
  rt.run_until(rt.now() + SimTime::millis(5));
  ASSERT_EQ(first_fired, 1);
  const TimerId second =
      rt.schedule_after(SimTime::millis(5), [&] { ++second_fired; });
  // Same slot, new generation: the fired timer's id is stale.
  EXPECT_EQ(static_cast<std::uint32_t>(first), static_cast<std::uint32_t>(second));
  EXPECT_NE(first, second);
  rt.cancel(first);
  EXPECT_EQ(rt.timers_cancelled(), 0u);
  rt.run_until(rt.now() + SimTime::millis(40));
  EXPECT_EQ(second_fired, 1);
  EXPECT_EQ(rt.timers_fired(), 2u);
}

TEST(EpollRuntimeTest, TimerCallbackCanCancelOtherTimers) {
  EpollRuntime rt;
  std::vector<int> fired;
  TimerId later = kNoTimer;
  TimerId same_deadline = kNoTimer;
  TimerId self = kNoTimer;
  self = rt.schedule_after(SimTime::millis(5), [&] {
    fired.push_back(1);
    rt.cancel(same_deadline);  // due in this very round
    rt.cancel(later);
    rt.cancel(self);  // already fired: not counted
  });
  same_deadline = rt.schedule_after(SimTime::millis(5), [&] { fired.push_back(2); });
  later = rt.schedule_after(SimTime::millis(15), [&] { fired.push_back(3); });
  rt.schedule_after(SimTime::millis(25), [&] { fired.push_back(4); });
  rt.run_until(rt.now() + SimTime::millis(60));
  EXPECT_EQ(fired, (std::vector<int>{1, 4}));
  EXPECT_EQ(rt.timers_cancelled(), 2u);
  EXPECT_EQ(rt.timers_fired(), 2u);
}

TEST(EpollRuntimeTest, NowTracksWallClock) {
  EpollRuntime rt;
  const SimTime start = rt.now();
  const auto wall_start = std::chrono::steady_clock::now();
  rt.run_until(start + SimTime::millis(40));
  const auto wall_elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - wall_start);
  EXPECT_GE(rt.now() - start, SimTime::millis(40));
  EXPECT_GE(wall_elapsed.count(), 35);  // really slept, didn't spin the clock
}

TEST(EpollRuntimeTest, LoopbackDatagramRoundTrip) {
  EpollRuntime rt;
  // Echo server on an ephemeral loopback port.
  DatagramSocket* echo = nullptr;
  echo = rt.open_socket(0, [&](const simnet::Packet& p) {
    std::vector<std::uint8_t> reply(p.payload.rbegin(), p.payload.rend());
    echo->send(p.src, reply);
  });
  ASSERT_NE(echo, nullptr);
  EXPECT_NE(echo->endpoint().port, 0);  // ephemeral bind resolved

  std::vector<std::uint8_t> got;
  DatagramSocket* client = rt.open_socket(0, [&](const simnet::Packet& p) {
    got = p.payload;
    rt.stop();
  });
  const std::vector<std::uint8_t> ping = {1, 2, 3, 4};
  client->send(echo->endpoint(), ping);
  rt.run_until(rt.now() + SimTime::millis(2000));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{4, 3, 2, 1}));
  EXPECT_EQ(rt.packets_sent(), 2u);
  EXPECT_EQ(rt.packets_received(), 2u);

  rt.close_socket(client);
  rt.close_socket(echo);
  EXPECT_EQ(rt.open_sockets(), 0u);
}

/// A stalled server loop must not lose a burst: 2,000 queries queued before
/// the loop runs all fit the 4 MiB receive buffer every socket asks for (at
/// the kernel's ~208 KiB default only a few hundred do).
TEST(EpollRuntimeTest, ReceiveBufferHoldsABurstQueuedBeforeTheLoopRuns) {
  long rmem_max = 0;
  if (std::FILE* f = std::fopen("/proc/sys/net/core/rmem_max", "r")) {
    if (std::fscanf(f, "%ld", &rmem_max) != 1) rmem_max = 0;
    std::fclose(f);
  }
  if (rmem_max < EpollRuntime::kReceiveBufferBytes) {
    GTEST_SKIP() << "net.core.rmem_max is " << rmem_max
                 << " B, below the " << EpollRuntime::kReceiveBufferBytes
                 << " B receive buffer this burst needs";
  }
  constexpr int kBurst = 2000;
  EpollRuntime rt;
  int received = 0;
  DatagramSocket* server = rt.open_socket(0, [&](const simnet::Packet&) {
    if (++received == kBurst) rt.stop();
  });
  DatagramSocket* client = rt.open_socket(0, [](const simnet::Packet&) {});
  const std::vector<std::uint8_t> query(64, 0x5a);
  for (int i = 0; i < kBurst; ++i) client->send(server->endpoint(), query);
  rt.run_until(rt.now() + SimTime::millis(5000));
  EXPECT_EQ(received, kBurst);
  rt.close_socket(client);
  rt.close_socket(server);
}

/// The live-wire acceptance path in miniature: a real DNS query over a real
/// UDP socket on 127.0.0.1, answered by the authoritative server, with all
/// components destroyed cleanly (no leaked fds) afterwards.
TEST(EpollRuntimeTest, DnsQueryRoundTripsOverLoopback) {
  EpollRuntime rt;
  {
    dns::AuthoritativeServer server(rt, "edge-auth",
                                    LatencyModel::constant(SimTime::zero()),
                                    /*port=*/0);
    dns::Zone& zone = server.add_zone(DnsName::must_parse("mec.test"));
    zone.must_add(dns::make_a(DnsName::must_parse("video.mec.test"),
                              Ipv4Address::must_parse("192.0.2.7"), 60));
    ASSERT_NE(server.endpoint().port, 0);

    dns::StubResolver stub(rt, server.endpoint());
    dns::StubResult result;
    bool done = false;
    stub.resolve(DnsName::must_parse("video.mec.test"), RecordType::kA,
                 [&](const dns::StubResult& r) {
                   result = r;
                   done = true;
                   rt.stop();
                 });
    rt.run_until(rt.now() + SimTime::millis(5000));
    ASSERT_TRUE(done) << "no answer within 5 s on loopback";
    EXPECT_TRUE(result.ok);
    ASSERT_TRUE(result.address.has_value());
    EXPECT_EQ(*result.address, Ipv4Address::must_parse("192.0.2.7"));
    EXPECT_EQ(server.stats().queries, 1u);
    EXPECT_EQ(server.stats().responses, 1u);
  }
  // Server and stub destroyed: every socket they opened must be gone.
  EXPECT_EQ(rt.open_sockets(), 0u);
}

TEST(EpollRuntimeTest, WallClockRetransmissionTimeoutFires) {
  // A bound-but-silent socket stands in for a dead server: the transport's
  // retry ladder must run on real wall-clock timers and deliver the error.
  EpollRuntime rt;
  DatagramSocket* silent = rt.open_socket(0, [](const simnet::Packet&) {});

  dns::DnsTransport transport(rt);
  dns::DnsTransport::Options options;
  options.timeout = SimTime::millis(40);
  options.max_retries = 1;
  bool done = false;
  const SimTime start = rt.now();
  SimTime elapsed = SimTime::zero();
  transport.query(silent->endpoint(),
                  dns::make_query(0, DnsName::must_parse("x.test"),
                                  RecordType::kA),
                  options, [&](util::Result<dns::Message> result, SimTime) {
                    done = true;
                    elapsed = rt.now() - start;
                    EXPECT_FALSE(result.ok());
                    rt.stop();
                  });
  rt.run_until(rt.now() + SimTime::millis(5000));
  ASSERT_TRUE(done) << "timeout never fired";
  // Initial attempt + one retry at 40 ms each: the error lands no earlier
  // than 80 ms of real elapsed time.
  EXPECT_GE(elapsed, SimTime::millis(80));
  EXPECT_EQ(transport.timeouts(), 1u);
  EXPECT_EQ(transport.retransmissions(), 1u);
  EXPECT_EQ(rt.timers_fired(), 2u);

  rt.close_socket(silent);
}

/// The same stack the epoll round-trip runs — live-wire constructors and
/// all — works identically over the simulated runtime, which is the whole
/// point of the abstraction.
TEST(SimRuntimeTest, SameDnsStackRunsOverSimulatedRuntime) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(7));
  const simnet::NodeId node =
      net.add_node("edge", Ipv4Address::must_parse("10.0.0.1"));
  SimRuntime rt(net, node);

  dns::AuthoritativeServer server(rt, "edge-auth",
                                  LatencyModel::constant(SimTime::micros(500)),
                                  dns::kDnsPort);
  dns::Zone& zone = server.add_zone(DnsName::must_parse("mec.test"));
  zone.must_add(dns::make_a(DnsName::must_parse("video.mec.test"),
                            Ipv4Address::must_parse("192.0.2.7"), 60));

  dns::StubResolver stub(rt, server.endpoint());
  dns::StubResult result;
  bool done = false;
  stub.resolve(DnsName::must_parse("video.mec.test"), RecordType::kA,
               [&](const dns::StubResult& r) {
                 result = r;
                 done = true;
               });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  ASSERT_TRUE(result.address.has_value());
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("192.0.2.7"));
}

}  // namespace
}  // namespace mecdns::netio
