// DNS server base class and the authoritative server.
//
// A DnsServer binds a UDP port on a netio::Runtime — port 53 of a simulated
// node, or a real socket under the epoll event loop — decodes incoming
// queries, applies a configurable processing delay (the "time spent in the
// DNS resolvers" component the paper measures) and hands the query to a
// subclass. Responses may be produced asynchronously, so servers that need
// upstream lookups (forwarders, recursive resolvers, the CDN router's
// mid-tier referral) fit the same interface.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/wire.h"
#include "dns/zone.h"
#include "netio/runtime.h"
#include "obs/trace.h"
#include "simnet/latency.h"
#include "simnet/network.h"
#include "util/rng.h"

namespace mecdns::dns {

inline constexpr std::uint16_t kDnsPort = 53;

struct ServerStats {
  std::uint64_t queries = 0;
  std::uint64_t responses = 0;
  std::uint64_t malformed = 0;
  std::uint64_t refused = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t servfail = 0;
  std::uint64_t truncated = 0;  ///< responses cut down to TC stubs
  std::uint64_t dropped = 0;    ///< transactions ended without a response
};

/// Network-level facts about a received query.
struct QueryContext {
  simnet::Endpoint client;      ///< source endpoint as seen by the server
  simnet::SimTime received;     ///< arrival time (before processing delay)
};

/// One query in flight at a server: the decoded message and the facts of
/// its arrival. DnsServer keeps one per transaction in a slot that lives
/// until the transaction's Responder is called or destroyed, so handle()
/// and everything it starts may refer to it (and its query) until then.
struct ServerQuery {
  Message query;
  QueryContext net;
};

class DnsServer;

/// The right to answer one query: a small move-only handle onto the
/// server's transaction slot. Calling it encodes and sends the response
/// (truncating past the client's payload limit) and frees the slot;
/// destroying it uncalled frees the slot and counts a drop
/// (ServerStats::dropped). Each transaction thus ends in exactly one
/// response or one counted drop. Once the server is gone a Responder is
/// inert.
class Responder {
 public:
  Responder() = default;
  Responder(Responder&& other) noexcept;
  Responder& operator=(Responder&& other) noexcept;
  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;
  ~Responder() { release(); }

  /// Sends `response`; later calls do nothing.
  void operator()(Message&& response);

 private:
  friend class DnsServer;
  Responder(DnsServer* server, std::shared_ptr<bool> alive,
            std::uint32_t slot)
      : server_(server), alive_(std::move(alive)), slot_(slot) {}
  /// Frees the slot (counting a drop) if this handle still owns it.
  void release();

  DnsServer* server_ = nullptr;
  std::shared_ptr<bool> alive_;
  std::uint32_t slot_ = 0;
};

class DnsServer {
 public:
  using Responder = dns::Responder;

  /// Binds port 53 at `addr` on `node` of the simulated network (default:
  /// node's first address). Wraps the network in an owned SimRuntime.
  DnsServer(simnet::Network& net, simnet::NodeId node, std::string name,
            simnet::LatencyModel processing_delay,
            simnet::Ipv4Address addr = simnet::Ipv4Address());

  /// Binds `port` (0 = ephemeral, useful for tests) on `runtime` — the
  /// live-wire constructor. `seed` keeps the processing-delay RNG
  /// deterministic per server.
  DnsServer(netio::Runtime& runtime, std::string name,
            simnet::LatencyModel processing_delay,
            std::uint16_t port = kDnsPort, std::uint64_t seed = 1,
            simnet::Ipv4Address addr = simnet::Ipv4Address());

  virtual ~DnsServer();
  DnsServer(const DnsServer&) = delete;
  DnsServer& operator=(const DnsServer&) = delete;

  const std::string& name() const { return name_; }
  simnet::Endpoint endpoint() const { return socket_->endpoint(); }
  /// The simulated node (sim constructor only; kInvalidNode on live wire).
  simnet::NodeId node() const { return node_; }
  const ServerStats& stats() const { return stats_; }
  /// Transactions in flight (slots held by a Responder or queued work).
  std::size_t open_transactions() const {
    return slots_.size() - free_slots_.size();
  }

  /// Bounds service concurrency: at most `workers` queries are in their
  /// processing-delay phase at once; excess queries wait in a FIFO queue of
  /// at most `max_queue` entries (overflow is silently dropped, like a full
  /// socket buffer). `workers` = 0 restores the default: unlimited
  /// concurrency (an idealized server). Queueing makes saturation visible:
  /// latency rises smoothly with load until the server melts down — the
  /// regime the paper's ingress-overload policy exists for.
  void set_service_capacity(std::size_t workers, std::size_t max_queue = 256);

  std::uint64_t dropped_overflow() const { return dropped_overflow_; }
  std::size_t queue_depth() const { return work_queue_.size(); }
  /// Deepest the worker FIFO has ever been — the saturation high-water mark
  /// the load generator's queue-depth gauge reports.
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  /// Fixed latency added on top of each sampled processing delay — the
  /// chaos layer's server-brownout knob (a degraded-but-alive server).
  /// Zero (the default) restores nominal service time; no RNG is drawn.
  void set_extra_processing(simnet::SimTime extra) { extra_processing_ = extra; }
  simnet::SimTime extra_processing() const { return extra_processing_; }

 protected:
  /// Subclass hook. `in` is the transaction's slot: valid until `respond`
  /// is called or destroyed. Not calling it drops the query (the client's
  /// timeout handles it, as on a real network).
  virtual void handle(const ServerQuery& in, Responder respond) = 0;

  util::Rng& rng() { return rng_; }
  /// The server's clock (simulated or wall), for cache TTL math etc.
  simnet::SimTime now() const { return rt_->now(); }
  /// The runtime this server is bound to, for subclasses that open their
  /// own upstream transports.
  netio::Runtime& runtime() { return *rt_; }

 private:
  friend class dns::Responder;

  /// One transaction: the query (its answer goes back to in.net.client).
  struct Slot {
    ServerQuery in;
    std::size_t payload_limit = 512;
    obs::SpanRef span;  ///< serve span; queued work keeps its own context
  };

  void on_packet(const simnet::Packet& packet);
  /// Runs handle() on a slot whose processing delay has elapsed.
  void process(std::uint32_t slot);
  void enqueue(std::uint32_t slot);
  void pump();
  void send_response(std::uint32_t slot, Message&& response);
  void free_slot(std::uint32_t slot);

  /// Owned by the sim-compat constructor (null otherwise); rt_ always set.
  std::unique_ptr<netio::Runtime> owned_runtime_;
  netio::Runtime* rt_;
  simnet::NodeId node_ = simnet::kInvalidNode;
  std::string name_;
  simnet::LatencyModel processing_delay_;
  netio::DatagramSocket* socket_;
  util::Rng rng_;
  /// Disarms scheduled processing events after destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  ServerStats stats_;
  std::size_t workers_ = 0;  ///< 0 = unlimited
  std::size_t max_queue_ = 256;
  simnet::SimTime extra_processing_ = simnet::SimTime::zero();
  std::size_t busy_ = 0;
  /// Transaction slots; a deque keeps them in place as it grows, so a
  /// ServerQuery's address is stable for its transaction.
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::deque<std::uint32_t> work_queue_;
  std::size_t max_queue_depth_ = 0;
  std::uint64_t dropped_overflow_ = 0;
};

/// Serves one or more zones authoritatively; chases in-zone CNAME chains and
/// emits referrals at zone cuts.
class AuthoritativeServer : public DnsServer {
 public:
  AuthoritativeServer(simnet::Network& net, simnet::NodeId node,
                      std::string name, simnet::LatencyModel processing_delay,
                      simnet::Ipv4Address addr = simnet::Ipv4Address());

  /// Live-wire constructor: serve zones on a real (or test) runtime port.
  AuthoritativeServer(netio::Runtime& runtime, std::string name,
                      simnet::LatencyModel processing_delay,
                      std::uint16_t port = kDnsPort, std::uint64_t seed = 1,
                      simnet::Ipv4Address addr = simnet::Ipv4Address());

  /// Adds a zone. Zones must not be nested within each other's origins
  /// except via explicit delegation records.
  Zone& add_zone(DnsName origin);

  /// The zone with the longest origin matching `name`, or nullptr.
  Zone* find_zone(const DnsName& name);
  const Zone* find_zone(const DnsName& name) const;

  std::vector<Zone>& zones() { return zones_; }

  /// Rotates multi-record answer RRsets round-robin across responses — the
  /// classic poor-man's load balancing; clients that "take the first A"
  /// then spread across the set.
  void set_rotate_answers(bool rotate) { rotate_answers_ = rotate; }

 protected:
  void handle(const ServerQuery& in, Responder respond) override;

 private:
  std::vector<Zone> zones_;
  bool rotate_answers_ = false;
  std::uint64_t rotation_ = 0;
};

}  // namespace mecdns::dns
