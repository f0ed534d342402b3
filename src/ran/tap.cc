#include "ran/tap.h"

#include <string_view>

#include "dns/server.h"

namespace mecdns::ran {

std::optional<DnsHeaderView> read_dns_header(
    std::span<const std::uint8_t> payload) {
  constexpr std::size_t kHeaderSize = 12;
  if (payload.size() < kHeaderSize) return std::nullopt;
  const auto u16_at = [&](std::size_t at) {
    return static_cast<std::uint16_t>(payload[at] << 8 | payload[at + 1]);
  };
  if (u16_at(4) == 0) return std::nullopt;  // QDCOUNT
  DnsHeaderView view;
  view.id = u16_at(0);
  view.qr = (payload[2] & 0x80) != 0;
  std::size_t at = kHeaderSize;
  while (true) {
    if (at >= payload.size()) return std::nullopt;
    const std::uint8_t len = payload[at];
    if (len == 0) break;
    // A pointer (or reserved label type) cannot start the first qname of a
    // message dns::encode wrote; refuse it rather than chase it.
    if ((len & 0xc0) != 0) return std::nullopt;
    if (at + 1 + len > payload.size()) return std::nullopt;
    const std::string_view label(
        reinterpret_cast<const char*>(payload.data() + at + 1), len);
    if (!view.qname.append_label(label).ok()) return std::nullopt;
    at += 1 + len;
  }
  return view;
}

DnsTap::DnsTap(simnet::Network& net, simnet::NodeId node, Filter filter)
    : filter_(std::move(filter)) {
  net.add_tap(node, [this](const simnet::Packet& packet, simnet::SimTime at) {
    observe(packet, at);
  });
}

void DnsTap::observe(const simnet::Packet& packet, simnet::SimTime at) {
  // Only DNS traffic: to or from port 53.
  if (packet.dst.port != dns::kDnsPort && packet.src.port != dns::kDnsPort) {
    return;
  }
  if (filter_ && !filter_(packet)) return;
  const std::optional<DnsHeaderView> header = read_dns_header(packet.payload);
  if (!header.has_value()) return;
  const auto next_id = static_cast<std::uint32_t>(qname_ids_.size());
  const std::uint32_t qname_id =
      qname_ids_.emplace(header->qname, next_id).first->second;
  Crossing& crossing =
      crossings_[std::uint64_t{qname_id} << 16 | header->id];
  if (header->qr) {
    crossing.response_seen = at;
    crossing.has_response = true;
    ++observed_responses_;
  } else {
    // A retransmission keeps the first crossing; a query after the key's
    // response is a new lookup that reuses a wrapped id.
    if (!crossing.has_query || crossing.has_response) {
      crossing = Crossing{};
      crossing.query_seen = at;
      crossing.has_query = true;
    }
    ++observed_queries_;
  }
}

std::optional<DnsTap::Crossing> DnsTap::crossing(
    std::uint16_t dns_id, const std::string& qname) const {
  const auto name = dns::DnsName::parse(qname);
  if (!name.ok()) return std::nullopt;
  const auto qname_id = qname_ids_.find(name.value());
  if (qname_id == qname_ids_.end()) return std::nullopt;
  const auto it =
      crossings_.find(std::uint64_t{qname_id->second} << 16 | dns_id);
  if (it == crossings_.end()) return std::nullopt;
  return it->second;
}

void DnsTap::clear() { crossings_.clear(); }

}  // namespace mecdns::ran
