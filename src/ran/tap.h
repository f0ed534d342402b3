// DNS traffic tap — the paper's "tcpdump at P-GW".
//
// §4: "We perform the measurements using both dig from the client side and
// tcpdump at P-GW to track the DNS request packets", splitting each lookup
// into (i) the wireless delay between UE and P-GW and (ii) everything
// beyond the P-GW (core, resolvers, up/downlink). DnsTap observes packets
// at a node and timestamps when each transaction's query and response
// crossed — letting the experiment harness compute the same breakdown.
//
// Like tcpdump matching a transaction, the tap reads only what identifies
// one: the header's id and QR bit and the first question's name, straight
// from the payload (no full message decode). Crossings are kept in a flat
// hash map keyed by (interned qname, id).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "dns/name.h"
#include "simnet/network.h"
#include "util/flat_map.h"

namespace mecdns::ran {

/// What the tap reads from a DNS payload.
struct DnsHeaderView {
  std::uint16_t id = 0;
  bool qr = false;
  dns::DnsName qname;  ///< the first question's name
};

/// Reads id, QR and the first qname from `payload` without decoding the
/// rest of the message. nullopt (never an out-of-bounds read) for a
/// truncated header or name, QDCOUNT 0, a compression pointer or reserved
/// label type in the first qname, or a label the full decoder would reject.
std::optional<DnsHeaderView> read_dns_header(
    std::span<const std::uint8_t> payload);

class DnsTap {
 public:
  struct Crossing {
    simnet::SimTime query_seen;     ///< first time the query crossed
    simnet::SimTime response_seen;  ///< last time the response crossed
    bool has_query = false;
    bool has_response = false;
  };

  /// Selects which packets the tap records (beyond the DNS-port check).
  /// Typical use: restrict to client-side traffic so a resolver hairpinning
  /// its upstream queries through the same gateway is not captured.
  using Filter = std::function<bool(const simnet::Packet&)>;

  /// Installs a tap on `node` (typically the P-GW).
  DnsTap(simnet::Network& net, simnet::NodeId node, Filter filter = nullptr);

  /// Crossing times for the transaction (id, qname), if observed. The qname
  /// matches case-insensitively (RFC 4343). A query that crosses after its
  /// key's response has crossed starts a new transaction on that key (ids
  /// wrap after 65535 lookups from one transport).
  std::optional<Crossing> crossing(std::uint16_t dns_id,
                                   const std::string& qname) const;

  std::uint64_t observed_queries() const { return observed_queries_; }
  std::uint64_t observed_responses() const { return observed_responses_; }

  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(std::uint64_t key) const {
      key ^= key >> 29;
      key *= 0x9e3779b97f4a7c15ULL;
      return static_cast<std::size_t>(key ^ (key >> 32));
    }
  };

  void observe(const simnet::Packet& packet, simnet::SimTime at);

  Filter filter_;
  /// Every qname seen, numbered in order of first sight.
  util::FlatHashMap<dns::DnsName, std::uint32_t> qname_ids_;
  /// Crossings by (qname id << 16 | dns id).
  util::FlatHashMap<std::uint64_t, Crossing, KeyHash> crossings_;
  std::uint64_t observed_queries_ = 0;
  std::uint64_t observed_responses_ = 0;
};

}  // namespace mecdns::ran
