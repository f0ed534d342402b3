// RAN substrate tests: access profiles, the NAT'ing P-GW, the DNS tap, the
// UE and handoff.
#include <gtest/gtest.h>

#include "dns/server.h"
#include "dns/wire.h"
#include "ran/handoff.h"
#include "ran/profiles.h"
#include "ran/segment.h"
#include "ran/tap.h"
#include "ran/ue.h"
#include "util/stats.h"

namespace mecdns::ran {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

TEST(Profiles, LteIsSlowerAndMoreVariableThanWired) {
  util::Rng rng(1);
  util::SampleSet lte_samples;
  util::SampleSet wired_samples;
  const AccessProfile lte_profile = lte();
  const AccessProfile wired_profile = wired_campus();
  for (int i = 0; i < 5000; ++i) {
    lte_samples.add(lte_profile.uplink.sample(rng).to_millis());
    wired_samples.add(wired_profile.uplink.sample(rng).to_millis());
  }
  EXPECT_GT(lte_samples.mean(), 8.0);
  EXPECT_LT(lte_samples.mean(), 13.0);
  EXPECT_LT(wired_samples.mean(), 0.5);
  EXPECT_GT(lte_samples.stddev(), 5 * wired_samples.stddev());
}

TEST(Profiles, FiveGBeatsLte) {
  util::Rng rng(2);
  const AccessProfile nr = nr5g();
  const AccessProfile lte_profile = lte();
  double nr_sum = 0;
  double lte_sum = 0;
  for (int i = 0; i < 2000; ++i) {
    nr_sum += nr.uplink.sample(rng).to_millis();
    lte_sum += lte_profile.uplink.sample(rng).to_millis();
  }
  EXPECT_LT(nr_sum * 4, lte_sum);  // 5G at least 4x faster
}

class SegmentTest : public ::testing::Test {
 protected:
  SegmentTest() : net_(sim_, util::Rng(7)) {
    RanSegment::Config config;
    config.name = "lte";
    config.enb_addr = Ipv4Address::must_parse("10.100.0.1");
    config.sgw_addr = Ipv4Address::must_parse("10.100.0.2");
    config.pgw_addr = Ipv4Address::must_parse("203.0.113.1");
    config.ue_subnet = simnet::Cidr::must_parse("10.45.0.0/16");
    config.access = AccessProfile{
        "fixed", LatencyModel::constant(SimTime::millis(10)),
        LatencyModel::constant(SimTime::millis(10))};
    segment_ = std::make_unique<RanSegment>(net_, config);

    server_node_ =
        net_.add_node("server", Ipv4Address::must_parse("198.51.100.1"));
    net_.add_link(segment_->pgw(), server_node_,
                  LatencyModel::constant(SimTime::millis(1)));
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  std::unique_ptr<RanSegment> segment_;
  simnet::NodeId server_node_;
};

TEST_F(SegmentTest, UplinkSourceIsNatted) {
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  Endpoint seen_src;
  net_.open_socket(server_node_, 80, [&](const simnet::Packet& p) {
    seen_src = p.src;
  });
  net_.open_socket(ue, 0, nullptr)
      ->send_to(Endpoint{Ipv4Address::must_parse("198.51.100.1"), 80}, {1});
  sim_.run();
  // The server sees the P-GW's public address, never the UE's.
  EXPECT_EQ(seen_src.addr, Ipv4Address::must_parse("203.0.113.1"));
  EXPECT_GE(seen_src.port, 20000);
  EXPECT_EQ(segment_->nat_entries(), 1u);
}

TEST_F(SegmentTest, ReplyIsTranslatedBackToUe) {
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  net_.open_socket(server_node_, 80, [&](const simnet::Packet& p) {
    // Echo back to whoever we saw (the NAT'd endpoint).
    net_.open_socket(server_node_, 0, nullptr)->send_to(p.src, {9});
  });
  bool ue_got_reply = false;
  simnet::UdpSocket* ue_socket = net_.open_socket(
      ue, 0, [&](const simnet::Packet&) { ue_got_reply = true; });
  ue_socket->send_to(Endpoint{Ipv4Address::must_parse("198.51.100.1"), 80},
                     {1});
  sim_.run();
  EXPECT_TRUE(ue_got_reply);
}

TEST_F(SegmentTest, UnsolicitedInboundDropped) {
  segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  // A packet to the P-GW public address on an unmapped port: dropped.
  net_.open_socket(server_node_, 0, nullptr)
      ->send_to(Endpoint{Ipv4Address::must_parse("203.0.113.1"), 31337}, {1});
  sim_.run();
  EXPECT_EQ(net_.stats().dropped_by_hook, 1u);
}

TEST_F(SegmentTest, TwoUesGetDistinctNatPorts) {
  const simnet::NodeId ue1 =
      segment_->attach_ue("ue1", Ipv4Address::must_parse("10.45.0.2"));
  const simnet::NodeId ue2 =
      segment_->attach_ue("ue2", Ipv4Address::must_parse("10.45.0.3"));
  std::set<std::uint16_t> ports;
  net_.open_socket(server_node_, 80, [&](const simnet::Packet& p) {
    ports.insert(p.src.port);
  });
  net_.open_socket(ue1, 0, nullptr)
      ->send_to(Endpoint{Ipv4Address::must_parse("198.51.100.1"), 80}, {1});
  net_.open_socket(ue2, 0, nullptr)
      ->send_to(Endpoint{Ipv4Address::must_parse("198.51.100.1"), 80}, {1});
  sim_.run();
  EXPECT_EQ(ports.size(), 2u);
  EXPECT_EQ(segment_->nat_entries(), 2u);
}

TEST_F(SegmentTest, UeOutsideSubnetRejected) {
  EXPECT_THROW(
      segment_->attach_ue("bad", Ipv4Address::must_parse("192.168.1.1")),
      std::invalid_argument);
}

TEST_F(SegmentTest, DnsTapRecordsCrossings) {
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  DnsTap tap(net_, segment_->pgw());

  // A DNS server beyond the P-GW.
  auto server = std::make_unique<dns::AuthoritativeServer>(
      net_, server_node_, "auth", LatencyModel::constant(SimTime::millis(5)));
  dns::Zone& zone = server->add_zone(dns::DnsName::must_parse("example.com"));
  zone.must_add(dns::make_a(dns::DnsName::must_parse("www.example.com"),
                            Ipv4Address::must_parse("198.18.0.1"), 60));

  dns::StubResolver stub(net_, ue,
                         Endpoint{Ipv4Address::must_parse("198.51.100.1"),
                                  dns::kDnsPort});
  dns::StubResult out;
  stub.resolve(dns::DnsName::must_parse("www.example.com"),
               dns::RecordType::kA,
               [&](const dns::StubResult& result) { out = result; });
  sim_.run();
  ASSERT_TRUE(out.ok);

  const auto crossing =
      tap.crossing(out.response.header.id, "www.example.com");
  ASSERT_TRUE(crossing.has_value());
  ASSERT_TRUE(crossing->has_query);
  ASSERT_TRUE(crossing->has_response);
  // Query crossed after ~10.3ms (air+fronthaul+core), response ~2ms+5ms
  // processing later.
  const double beyond_ms =
      (crossing->response_seen - crossing->query_seen).to_millis();
  EXPECT_NEAR(beyond_ms, 7.0, 0.5);
  // Total = 2x10.6 wireless/core + beyond.
  EXPECT_NEAR(out.latency.to_millis() - beyond_ms, 21.2, 1.0);
  EXPECT_EQ(tap.observed_queries(), 1u);
  EXPECT_EQ(tap.observed_responses(), 1u);
}

TEST_F(SegmentTest, DnsTapFilterExcludesTraffic) {
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  DnsTap tap(net_, segment_->pgw(),
             [](const simnet::Packet&) { return false; });
  dns::StubResolver stub(
      net_, ue,
      Endpoint{Ipv4Address::must_parse("198.51.100.1"), dns::kDnsPort},
      dns::DnsTransport::Options{SimTime::millis(50), 0});
  stub.resolve(dns::DnsName::must_parse("www.example.com"),
               dns::RecordType::kA, [](const dns::StubResult&) {});
  sim_.run();
  EXPECT_EQ(tap.observed_queries(), 0u);
}

TEST_F(SegmentTest, DnsTapStartsANewTransactionWhenAnIdIsReused) {
  // One transport wraps its 16-bit ids after 65535 lookups; the tap must
  // not time a later lookup against an earlier one's query crossing.
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  DnsTap tap(net_, segment_->pgw());
  auto server = std::make_unique<dns::AuthoritativeServer>(
      net_, server_node_, "auth", LatencyModel::constant(SimTime::millis(5)));
  dns::Zone& zone = server->add_zone(dns::DnsName::must_parse("example.com"));
  zone.must_add(dns::make_a(dns::DnsName::must_parse("www.example.com"),
                            Ipv4Address::must_parse("198.18.0.1"), 60));
  dns::StubResolver stub(net_, ue,
                         Endpoint{Ipv4Address::must_parse("198.51.100.1"),
                                  dns::kDnsPort});
  const auto lookup = [&] {
    stub.transport().set_next_id(4242);
    dns::StubResult out;
    stub.resolve(dns::DnsName::must_parse("www.example.com"),
                 dns::RecordType::kA,
                 [&](const dns::StubResult& result) { out = result; });
    sim_.run();
    return out;
  };
  const dns::StubResult first = lookup();
  ASSERT_TRUE(first.ok);
  const auto first_crossing = tap.crossing(4242, "www.example.com");
  ASSERT_TRUE(first_crossing.has_value());

  sim_.run_until(sim_.now() + SimTime::seconds(1));
  const dns::StubResult second = lookup();
  ASSERT_TRUE(second.ok);
  ASSERT_EQ(second.response.header.id, 4242);
  // Keys match case-insensitively, like every other DNS name comparison.
  const auto crossing = tap.crossing(4242, "WWW.example.COM");
  ASSERT_TRUE(crossing.has_value());
  ASSERT_TRUE(crossing->has_query && crossing->has_response);
  EXPECT_GT(crossing->query_seen, first_crossing->response_seen);
  const double beyond_ms =
      (crossing->response_seen - crossing->query_seen).to_millis();
  EXPECT_NEAR(beyond_ms, 7.0, 0.5);
  EXPECT_GE(second.latency.to_millis() - beyond_ms, 0.0);
  EXPECT_EQ(tap.observed_queries(), 2u);
  EXPECT_EQ(tap.observed_responses(), 2u);
}

/// The tap's header-only parse against the full decoder.
TEST(DnsHeaderView, MatchesDecodeOnQueriesAndResponses) {
  using dns::DnsName;
  std::vector<dns::Message> corpus;
  corpus.push_back(dns::make_query(1, DnsName::must_parse("www.example.com"),
                                   dns::RecordType::kA));
  // Mixed case, as DNS-0x20 sends it.
  corpus.push_back(dns::make_query(
      0xbeef, DnsName::must_parse("ViDeO.MeC-CdN.ExAmPlE"),
      dns::RecordType::kAaaa));
  dns::Message with_ecs = dns::make_query(
      65535, DnsName::must_parse("cdn.example"), dns::RecordType::kA);
  with_ecs.edns = dns::Edns{};
  with_ecs.edns->client_subnet =
      dns::ClientSubnet{Ipv4Address::must_parse("10.45.0.0"), 24, 0};
  corpus.push_back(with_ecs);
  // A response whose answers compress against the question name.
  dns::Message response = dns::make_response(corpus.front());
  response.answers.push_back(dns::make_cname(
      DnsName::must_parse("www.example.com"),
      DnsName::must_parse("edge.www.example.com"), 30));
  response.answers.push_back(
      dns::make_a(DnsName::must_parse("edge.www.example.com"),
                  Ipv4Address::must_parse("198.18.0.9"), 30));
  response.edns = dns::Edns{};
  corpus.push_back(response);
  corpus.push_back(dns::make_response(with_ecs, dns::RCode::kNxDomain));

  for (const dns::Message& message : corpus) {
    const std::vector<std::uint8_t> wire = dns::encode(message);
    const auto decoded = dns::decode(wire);
    ASSERT_TRUE(decoded.ok());
    const auto view = read_dns_header(wire);
    ASSERT_TRUE(view.has_value()) << message.question().to_string();
    EXPECT_EQ(view->id, decoded.value().header.id);
    EXPECT_EQ(view->qr, decoded.value().header.qr);
    EXPECT_TRUE(view->qname.equals_exact(decoded.value().question().name))
        << view->qname.to_string();
  }
}

TEST(DnsHeaderView, IgnoresWhatItCannotReadInBounds) {
  const std::vector<std::uint8_t> query = dns::encode(dns::make_query(
      7, dns::DnsName::must_parse("www.example.com"), dns::RecordType::kA));
  // Truncated header.
  EXPECT_FALSE(read_dns_header({query.data(), 11}).has_value());
  EXPECT_FALSE(read_dns_header({}).has_value());
  // Header only: QDCOUNT says one question, the name is missing.
  EXPECT_FALSE(read_dns_header({query.data(), 12}).has_value());
  // Name cut inside a label, and before its root byte.
  EXPECT_FALSE(read_dns_header({query.data(), 15}).has_value());
  EXPECT_FALSE(read_dns_header({query.data(), query.size() - 5}).has_value());
  // QDCOUNT zero.
  dns::Message empty;
  empty.header.id = 9;
  const std::vector<std::uint8_t> no_question = dns::encode(empty);
  EXPECT_FALSE(read_dns_header(no_question).has_value());
  // A compression pointer as the first qname (pointing at itself).
  std::vector<std::uint8_t> pointer(query.begin(), query.begin() + 12);
  pointer.push_back(0xc0);
  pointer.push_back(0x0c);
  EXPECT_FALSE(read_dns_header(pointer).has_value());
  // A label byte the decoder rejects (a space).
  std::vector<std::uint8_t> bad_label(query.begin(), query.begin() + 12);
  for (const char b : {'\3', 'a', ' ', 'c', '\0'}) {
    bad_label.push_back(static_cast<std::uint8_t>(b));
  }
  EXPECT_FALSE(dns::decode(bad_label).ok());
  EXPECT_FALSE(read_dns_header(bad_label).has_value());
}

TEST_F(SegmentTest, UserEquipmentFetchFailsCleanlyWithoutServers) {
  UserEquipment ue(net_, *segment_, "ue",
                   Ipv4Address::must_parse("10.45.0.2"),
                   Endpoint{Ipv4Address::must_parse("198.51.100.1"),
                            dns::kDnsPort},
                   dns::DnsTransport::Options{SimTime::millis(100), 0});
  bool done = false;
  ue.resolve_and_fetch(cdn::Url::must_parse("video.mycdn.test/x"),
                       [&](const UserEquipment::FetchOutcome& outcome) {
                         done = true;
                         EXPECT_FALSE(outcome.ok);
                         EXPECT_FALSE(outcome.error.empty());
                       });
  sim_.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace mecdns::ran
