// The two simulated workloads: core::Fig5Testbed (mec-mec deployment)
// driven by workload::LoadGenerator.
//
//   sim-mec-dns      every arrival resolves the MEC content name: UE -> MEC
//                    L-DNS -> stub-domain -> in-cluster TrafficRouter.
//   sim-split-fetch  provider_fallback on; each arrival draws 50/50 between
//                    a resolve_and_fetch of a Zipf(0.9) catalog object and
//                    a lookup of web_name(), which the L-DNS forwards to the
//                    provider resolver.
//
// An untraced run repeats the whole set-up and load window until the time
// budget is spent; every repetition uses the same inputs, so the sim-time
// results must be identical across repetitions (checked). A traced run does
// one untraced repetition (the overhead reference) and one traced one.
#include <filesystem>
#include <memory>

#include "bench.h"
#include "core/fig5.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "spans.h"
#include "workload/loadgen.h"
#include "workload/zipf.h"

namespace mecbench {
namespace {

using namespace mecdns;

// bench_throughput's defaults, so `--seed 42` reproduces its mec-mec row.
constexpr std::uint32_t kUes = 100000;
constexpr std::uint32_t kSmallUes = 10000;
constexpr double kRateHz = 0.02;
constexpr double kDurationS = 15.0;
constexpr double kSmallDurationS = 3.0;
constexpr std::size_t kWarmupQueries = 5;
constexpr double kZipfSkew = 0.9;
/// Messages kept from the tap for the codec/zone replay.
constexpr std::size_t kCaptureLimit = 200000;
constexpr std::size_t kSpanCapacity = 4000000;

/// The demo catalog as core/fig5.cc deploys it: 32 two-MiB segments and a
/// 4 KiB manifest under the content host.
cdn::ContentCatalog demo_catalog(const dns::DnsName& host) {
  cdn::ContentCatalog catalog;
  catalog.add_series(host, "segment", 32, 2 * 1024 * 1024);
  cdn::Url manifest;
  manifest.host = host;
  manifest.path = "/index.m3u8";
  catalog.add(manifest, 4 * 1024);
  return catalog;
}

/// The A record core/fig5.cc serves for web_name() (img.webshop.test).
const simnet::Ipv4Address kWebAddress =
    simnet::Ipv4Address::must_parse("198.18.0.99");

struct LayerCounters {
  std::uint64_t routed = 0;
  std::uint64_t edge_requests = 0;
  std::uint64_t edge_hits = 0;
  std::uint64_t provider_queries = 0;
  std::uint64_t provider_cache_hits = 0;
  std::uint64_t provider_cache_misses = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t packets = 0;

  static LayerCounters take(core::Fig5Testbed& testbed) {
    LayerCounters c;
    core::MecCdnSite& site = testbed.site();
    if (site.router() != nullptr) c.routed = site.router()->router_stats().routed;
    for (cdn::CacheServer* cache : site.caches()) {
      c.edge_requests += cache->stats().requests;
      c.edge_hits += cache->stats().hits;
    }
    if (dns::RecursiveResolver* provider = testbed.provider_ldns()) {
      c.provider_queries = provider->stats().queries;
      c.provider_cache_hits = provider->cache().stats().hits;
      c.provider_cache_misses = provider->cache().stats().misses;
    }
    c.retransmits = testbed.ue().resolver().transport().retransmissions() +
                    site.ldns().transport().retransmissions();
    c.packets = testbed.network().stats().sent;
    return c;
  }

  LayerCounters minus(const LayerCounters& b) const {
    LayerCounters d;
    d.routed = routed - b.routed;
    d.edge_requests = edge_requests - b.edge_requests;
    d.edge_hits = edge_hits - b.edge_hits;
    d.provider_queries = provider_queries - b.provider_queries;
    d.provider_cache_hits = provider_cache_hits - b.provider_cache_hits;
    d.provider_cache_misses = provider_cache_misses - b.provider_cache_misses;
    d.retransmits = retransmits - b.retransmits;
    d.packets = packets - b.packets;
    return d;
  }
};

struct Rep {
  // Sim-time results: a pure function of the inputs.
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;  ///< no answer / fetch error
  std::uint64_t wrong = 0;   ///< answered, but not what the check expects
  std::uint64_t fetches = 0;
  /// Lookup-only arrivals: the content name on sim-mec-dns, web_name() on
  /// sim-split-fetch. Fetches keep their DNS part apart, because the median
  /// of a 50/50 mix of the two paths falls between their modes and swings
  /// with the draw.
  obs::LatencyHistogram dns;
  obs::LatencyHistogram fetch_dns;
  obs::LatencyHistogram fetch;  ///< DNS plus fetch
  std::uint64_t events = 0;
  std::size_t peak_queue = 0;
  LayerCounters layers;
  util::perf::Counters perf;
  // Wall clock and CPU time of the simulating thread.
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;
  double load_s = 0.0;
  double load_cpu_s = 0.0;
  /// Untraced: per sim-second throughput, per CPU second and per wall second.
  std::vector<double> slice_qps_cpu;
  std::vector<double> slice_qps;
  // Traced repetition only.
  std::vector<std::vector<std::uint8_t>> messages;
  std::uint64_t dns_messages = 0;
  std::uint64_t dns_bytes = 0;

  double qps_wall() const {
    return load_s > 0.0 ? static_cast<double>(issued) / load_s : 0.0;
  }
  double qps_cpu() const {
    return load_cpu_s > 0.0 ? static_cast<double>(issued) / load_cpu_s : 0.0;
  }
  bool same_sim_results(const Rep& o) const {
    return issued == o.issued && failed == o.failed && wrong == o.wrong &&
           fetches == o.fetches && dns == o.dns && fetch_dns == o.fetch_dns &&
           fetch == o.fetch &&
           events == o.events && peak_queue == o.peak_queue;
  }
};

struct SimParams {
  bool split = false;
  std::uint64_t seed = 0;
  std::uint32_t ues = kUes;
  double duration_s = kDurationS;
};

/// One set-up plus load window. With `recorder` set, every simulator step
/// and every issue call is a span, and a tap on every node copies the DNS
/// wire messages of the load window (each packet once, at its origin).
Rep run_rep(const SimParams& p, SpanRecorder* recorder,
            std::shared_ptr<dns::Zone>* zone_out) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  const double c0 = thread_cpu_s();
  const std::uint64_t testbed_seed = core::job_seed(p.seed, 0);

  core::Fig5Testbed::Config tc;
  tc.deployment = core::Fig5Deployment::kMecLdnsMecCdns;
  tc.seed = testbed_seed;
  tc.provider_fallback = p.split;
  core::Fig5Testbed testbed(tc);
  simnet::Simulator& sim = testbed.simulator();

  // Prime delegation chains and caches (as bench_throughput does), so the
  // window measures steady-state cost.
  testbed.measure_name(testbed.content_name(), kWarmupQueries,
                       simnet::SimTime::millis(200), /*warmup=*/0);
  if (p.split) {
    testbed.measure_name(testbed.web_name(), kWarmupQueries,
                         simnet::SimTime::millis(200), /*warmup=*/0);
  }

  const dns::DnsName& content = testbed.content_name();
  const dns::DnsName& web = testbed.web_name();
  dns::StubResolver& stub = testbed.ue().resolver();
  const cdn::ContentCatalog catalog = demo_catalog(content);
  workload::RequestGenerator requests(catalog, kZipfSkew,
                                      core::job_seed(p.seed, 2));
  util::Rng mix(core::job_seed(p.seed, 1));

  workload::LoadGenerator::Options lo;
  lo.ues = p.ues;
  lo.rate_hz = kRateHz;
  lo.duration = simnet::SimTime::seconds(p.duration_s);
  lo.seed = testbed_seed;

  const auto on_lookup = [&rep, &testbed](const dns::StubResult& r,
                                          bool expect_web) {
    if (!r.ok || !r.address) {
      ++rep.failed;
      return;
    }
    const bool right = expect_web ? *r.address == kWebAddress
                                  : testbed.is_mec_cache(*r.address);
    if (!right) {
      ++rep.wrong;
      return;
    }
    rep.dns.add(r.latency.to_millis());
  };

  workload::LoadGenerator gen(sim, lo, [&](std::uint32_t ue) {
    ScopedSpan span(recorder, SpanName::kStubIssue, ue + 1ull);
    if (!p.split) {
      stub.resolve(content, dns::RecordType::kA,
                   [&on_lookup](const dns::StubResult& r) { on_lookup(r, false); });
      return;
    }
    if ((mix.next() & 1) == 0) {
      stub.resolve(web, dns::RecordType::kA,
                   [&on_lookup](const dns::StubResult& r) { on_lookup(r, true); });
      return;
    }
    const cdn::Url& url = requests.next();
    // Map nodes are stable, so the callback can hold the expected object.
    const cdn::ContentObject* object = &catalog.objects().at(url);
    ++rep.fetches;
    testbed.ue().resolve_and_fetch(
        url, [&rep, &testbed, object](const ran::UserEquipment::FetchOutcome& o) {
          if (!o.ok) {
            ++rep.failed;
            return;
          }
          if (o.response.status != 200 ||
              o.response.size_bytes != object->size_bytes ||
              !(o.response.url == object->url) ||
              !testbed.is_mec_cache(o.server)) {
            ++rep.wrong;
            return;
          }
          rep.fetch_dns.add(o.dns_latency.to_millis());
          rep.fetch.add(o.total.to_millis());
        });
  });

  if (recorder != nullptr) {
    simnet::Network& net = testbed.network();
    for (simnet::NodeId node = 0; node < net.node_count(); ++node) {
      net.add_tap(node, [&rep](const simnet::Packet& packet, simnet::SimTime) {
        if (packet.hops.size() != 1) return;  // seen at its origin already
        if (packet.src.port != dns::kDnsPort && packet.dst.port != dns::kDnsPort) {
          return;
        }
        ++rep.dns_messages;
        rep.dns_bytes += packet.payload.size();
        if (rep.messages.size() < kCaptureLimit) rep.messages.push_back(packet.payload);
      });
    }
  }

  const std::uint64_t events_before = sim.executed();
  const LayerCounters layers_before = LayerCounters::take(testbed);
  const obs::PerfSnapshot snapshot = obs::PerfSnapshot::take();
  const std::int64_t t1 = now_ns();
  const double c1 = thread_cpu_s();
  rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.setup_cpu_s = c1 - c0;

  gen.start();
  if (recorder == nullptr) {
    // One-sim-second slices: each gives a throughput sample (arrivals in
    // the slice over the CPU and wall time it took), so a run's throughput
    // rests on many samples. Slicing adds no events and leaves the order
    // unchanged.
    const simnet::SimTime start = sim.now();
    for (int s = 1; s <= static_cast<int>(p.duration_s); ++s) {
      const double arrivals_before = static_cast<double>(gen.issued());
      const std::int64_t slice_start = now_ns();
      const double slice_cpu = thread_cpu_s();
      sim.run_until(start + simnet::SimTime::seconds(s));
      const double arrivals = static_cast<double>(gen.issued()) - arrivals_before;
      const double cpu = thread_cpu_s() - slice_cpu;
      const double wall = seconds_since(slice_start);
      if (cpu > 0.0 && wall > 0.0) {
        rep.slice_qps_cpu.push_back(arrivals / cpu);
        rep.slice_qps.push_back(arrivals / wall);
      }
    }
    sim.run();
  } else {
    for (;;) {
      const std::int32_t id = recorder->begin(SpanName::kSimStep);
      const bool more = sim.step();
      recorder->end(id);
      if (!more) break;
    }
  }

  rep.load_s = seconds_since(t1);
  rep.load_cpu_s = thread_cpu_s() - c1;
  rep.perf = snapshot.delta();
  rep.layers = LayerCounters::take(testbed).minus(layers_before);
  rep.events = sim.executed() - events_before;
  rep.peak_queue = sim.max_queue_depth();
  rep.issued = gen.issued();
  if (zone_out != nullptr) *zone_out = testbed.site().orchestrator().public_zone();
  return rep;
}

}  // namespace

RunResult run_sim(const Options& options, bool split) {
  SimParams p;
  p.split = split;
  p.seed = options.seed;
  p.ues = options.small ? kSmallUes : kUes;
  p.duration_s = options.small ? kSmallDurationS : kDurationS;
  const double expected_arrivals = p.ues * kRateHz * p.duration_s;

  RunResult out;
  out.detail["ues"] = std::to_string(p.ues);
  out.detail["rate_hz_per_ue"] = obs::format_double(kRateHz);
  out.detail["load_window_sim_s"] = obs::format_double(p.duration_s);
  out.detail["loop"] = "\"open (Poisson per UE)\"";
  out.detail["testbed_seed"] = std::to_string(core::job_seed(p.seed, 0));

  if (!options.trace) {
    const std::int64_t start = now_ns();
    std::vector<Rep> reps;
    // At least three repetitions, so set-up and throughput are medians.
    while (reps.size() < 3 || seconds_since(start) < options.seconds) {
      reps.push_back(run_rep(p, nullptr, nullptr));
    }
    const Rep& first = reps.front();
    std::vector<double> setup, setup_wall, qps_cpu, qps_wall;
    for (const Rep& rep : reps) {
      setup.push_back(rep.setup_cpu_s);
      setup_wall.push_back(rep.setup_s);
      qps_cpu.insert(qps_cpu.end(), rep.slice_qps_cpu.begin(), rep.slice_qps_cpu.end());
      qps_wall.insert(qps_wall.end(), rep.slice_qps.begin(), rep.slice_qps.end());
      out.attempted += rep.issued;
      out.failed += rep.failed + rep.wrong;
      if (rep.wrong != 0) out.correct = false;
      if (!rep.same_sim_results(first)) {
        out.correct = false;
        out.notes.push_back("ERROR: repetitions with identical inputs gave different sim-time results");
      }
    }
    if (first.dns.count() == 0) out.correct = false;
    out.metrics["setup_s"] = median(setup);
    // The rate sustained in three quarters of the slices. Even per CPU
    // second the host's speed swings between two levels for seconds at a
    // time, and the share of time at the fast one differs between runs; the
    // lower quartile tracks the steady level.
    out.metrics["qps_cpu"] = percentile(qps_cpu, 25.0);
    out.metrics["peak_rss_mb"] = self_peak_rss_mb();
    out.detail["setup_wall_s"] = obs::format_double(median(setup_wall));
    out.detail["qps_wall"] = obs::format_double(median(qps_wall));
    out.detail["qps_cpu_median"] = obs::format_double(median(qps_cpu));
    out.detail["dns_p50_ms"] = obs::format_double(first.dns.percentile(50.0));

    out.detail["repetitions"] = std::to_string(reps.size());
    out.detail["queries_per_repetition"] = std::to_string(first.issued);
    out.detail["fetches_per_repetition"] = std::to_string(first.fetches);
    out.detail["events_per_query"] =
        obs::format_double(ratio(first.events, first.issued));
    out.detail["dns_mean_ms"] = obs::format_double(first.dns.mean());
    out.detail["dns_p99_ms"] = obs::format_double(first.dns.percentile(99.0));
    out.detail["fetch_p50_ms"] = obs::format_double(first.fetch.percentile(50.0));
    out.detail["fetch_dns_p50_ms"] = obs::format_double(first.fetch_dns.percentile(50.0));
    out.detail["fetch_p99_ms"] = obs::format_double(first.fetch.percentile(99.0));
    out.detail["dns_samples"] = std::to_string(first.dns.count());
    out.detail["fetch_samples"] = std::to_string(first.fetch.count());
    out.notes.push_back("repetitions=" + std::to_string(reps.size()) +
                        " queries/repetition=" + std::to_string(first.issued) +
                        " (identical inputs; sim-time results from repetition 1)");
    return out;
  }

  // Traced: an untraced reference repetition, then the traced one.
  const Rep plain = run_rep(p, nullptr, nullptr);
  SpanRecorder recorder(kSpanCapacity);
  std::shared_ptr<dns::Zone> zone;
  const Rep traced = run_rep(p, &recorder, &zone);
  replay_wire(traced.messages, *zone, recorder);

  std::filesystem::create_directories(options.out_dir);
  // One file per workload, overwritten by the next traced run.
  const std::string span_file = options.out_dir + "/spans-" + options.workload + ".csv";
  std::map<std::string, SpanTotals> totals;
  if (!write_spans(span_file, recorder.spans()) ||
      !read_span_totals(span_file, totals)) {
    out.correct = false;
    out.notes.push_back("ERROR: cannot write or read back " + span_file);
  }
  out.detail["span_file"] = "\"" + span_file + "\"";
  out.detail["spans_dropped"] = std::to_string(recorder.dropped());

  const double q = static_cast<double>(plain.issued);
  out.attempted = plain.issued + traced.issued;
  out.failed = plain.failed + plain.wrong + traced.failed + traced.wrong;
  out.correct = out.correct && plain.wrong == 0 && traced.wrong == 0 &&
                plain.same_sim_results(traced);

  auto& m = out.metrics;
  m["simnet.events_per_query"] = ratio(plain.events, q);
  m["simnet.step_ns"] = mean_self_ns(totals, "simnet.step");
  m["simnet.peak_queue_depth"] = static_cast<double>(plain.peak_queue);
  m["simnet.packets_per_query"] = ratio(plain.layers.packets, q);
  m["dns.wire.msgs_per_query"] = ratio(traced.dns_messages, q);
  m["dns.wire.bytes_per_query"] = ratio(traced.dns_bytes, q);
  m["dns.wire.decode_ns"] = mean_self_ns(totals, "dns.wire.decode");
  m["dns.wire.encode_ns"] = mean_self_ns(totals, "dns.wire.encode");
  m["dns.stub.issue_ns"] = mean_self_ns(totals, "dns.stub.issue");
  m["dns.zone.lookup_ns"] = mean_self_ns(totals, "dns.zone.lookup");
  m["dns.plugin.chain_ns"] = 0.0;  // the sim L-DNS chain is not decorated
  const LayerCounters& l = plain.layers;
  m["dns.cache.hit_ratio"] =
      ratio(l.provider_cache_hits, l.provider_cache_hits + l.provider_cache_misses);
  m["dns.forward.share"] = ratio(l.provider_queries, q);
  m["dns.transport.retransmits_per_query"] = ratio(l.retransmits, q);
  m["cdn.router.routes_per_query"] = ratio(l.routed, q);
  m["cdn.cache.hit_ratio"] = ratio(l.edge_hits, l.edge_requests);
  for (const char* name : {"netio.recv_handler_ns", "netio.timer_ns",
                           "netio.timers_per_query", "netio.send_ns",
                           "netio.loop_busy_ratio", "netio.kernel_drops",
                           "gen.lag_p99_us", "live.p50_us", "live.p99_us",
                           "live.capacity_wall_qps"}) {
    m[name] = 0.0;  // no live runtime and no wall-clock generator here
  }
  m["alloc.allocs_per_query"] = ratio(plain.perf.allocs, q);
  m["alloc.bytes_per_query"] = ratio(plain.perf.alloc_bytes, q);
  m["gen.offered_ratio"] = ratio(q, expected_arrivals);
  m["fail_ratio"] = ratio(plain.failed + plain.wrong, q);
  m["sim.qps_wall"] = plain.qps_wall();
  m["sim.dns_p50_ms"] = plain.dns.percentile(50.0);
  m["sim.dns_p99_ms"] = plain.dns.percentile(99.0);
  m["sim.fetch_p50_ms"] = plain.fetch.percentile(50.0);  // 0 without fetches
  m["sim.fetch_p99_ms"] = plain.fetch.percentile(99.0);
  m["trace.overhead_ratio"] = 1.0 - ratio(traced.qps_cpu(), plain.qps_cpu());
  m["trace.spans"] = static_cast<double>(recorder.spans().size());

  out.detail["qps_cpu_untraced"] = obs::format_double(plain.qps_cpu());
  out.detail["qps_cpu_traced"] = obs::format_double(traced.qps_cpu());
  out.detail["replayed_messages"] = std::to_string(traced.messages.size());
  return out;
}

}  // namespace mecbench
