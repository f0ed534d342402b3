// mecbench: one benchmark for the MEC-CDN stack.
//
//   mecbench --workload sim-mec-dns|sim-split-fetch|live-udp --seed N
//            --seconds S --trace 0|1 [--small] [--out-dir DIR]
//            [--livewire PATH]
//
// Prints a human-readable report, a `detail` JSON line (provenance, run
// facts) and, last, one JSON result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Exits 1 when any answer was wrong, 2 on a usage or
// set-up error (without a result line). README.md maps every metric to its
// layer and workload.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <span>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "spans.h"
#include "util/args.h"

#ifndef MECBENCH_BUILD_TYPE
#define MECBENCH_BUILD_TYPE "unknown"
#endif

namespace mecbench {

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

namespace {

using namespace mecdns;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of the set its mode prints.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"qps_cpu", "1/cpu_s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"simnet.events_per_query", "count"},
    {"simnet.step_ns", "ns"},
    {"simnet.peak_queue_depth", "count"},
    {"simnet.packets_per_query", "count"},
    {"dns.wire.msgs_per_query", "count"},
    {"dns.wire.bytes_per_query", "B"},
    {"dns.wire.decode_ns", "ns"},
    {"dns.wire.encode_ns", "ns"},
    {"dns.stub.issue_ns", "ns"},
    {"dns.zone.lookup_ns", "ns"},
    {"dns.plugin.chain_ns", "ns"},
    {"dns.cache.hit_ratio", "ratio"},
    {"dns.forward.share", "ratio"},
    {"dns.transport.retransmits_per_query", "count"},
    {"cdn.router.routes_per_query", "count"},
    {"cdn.cache.hit_ratio", "ratio"},
    {"netio.recv_handler_ns", "ns"},
    {"netio.timer_ns", "ns"},
    {"netio.timers_per_query", "count"},
    {"netio.send_ns", "ns"},
    {"netio.loop_busy_ratio", "ratio"},
    {"netio.kernel_drops", "count"},
    {"alloc.allocs_per_query", "count"},
    {"alloc.bytes_per_query", "B"},
    {"gen.lag_p99_us", "us"},
    {"gen.offered_ratio", "ratio"},
    {"live.p50_us", "us"},
    {"live.p99_us", "us"},
    {"live.capacity_wall_qps", "1/s"},
    {"sim.qps_wall", "1/s"},
    {"sim.dns_p50_ms", "ms"},
    {"sim.dns_p99_ms", "ms"},
    {"sim.fetch_p50_ms", "ms"},
    {"sim.fetch_p99_ms", "ms"},
    {"fail_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

/// Shortest round-trip decimal form: every digit as measured.
std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& text) {
  std::string out;
  obs::append_json_string(out, text);
  return out;
}

int run(int argc, char** argv) {
  util::ArgParser args("mecbench: end-to-end and per-layer benchmark of the MEC-CDN stack");
  args.add_string("workload", "", "sim-mec-dns, sim-split-fetch or live-udp");
  args.add_int("seed", 1, "input seed");
  args.add_double("seconds", 10.0, "measurement budget, wall seconds");
  args.add_int("trace", 0, "1 = traced run (per-layer metrics and a span file)");
  args.add_bool("small", false, "small inputs (self-check)");
  args.add_string("out-dir", ".bench_build/mecbench-out", "span and detail files");
  args.add_string("livewire", ".bench_build/mecdns_livewire", "server binary");
  if (auto parsed = args.parse(argc - 1, argv + 1); !parsed.ok()) {
    std::fprintf(stderr, "error: %s\n%s", parsed.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }
  Options o;
  o.workload = args.get_string("workload");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  o.seconds = args.get_double("seconds");
  o.trace = args.get_int("trace") != 0;
  o.small = args.get_bool("small");
  o.out_dir = args.get_string("out-dir");
  o.livewire = args.get_string("livewire");

  RunResult r;
  if (o.workload == "sim-mec-dns") {
    r = run_sim(o, false);
  } else if (o.workload == "sim-split-fetch") {
    r = run_sim(o, true);
  } else if (o.workload == "live-udp") {
    r = run_live(o);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  std::string metrics;
  for (const MetricSpec& spec : o.trace ? std::span<const MetricSpec>(kPerLayer)
                                        : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = r.metrics.find(spec.name);
    if (it == r.metrics.end()) {
      std::fprintf(stderr, "error: workload produced no %s\n", spec.name);
      return 2;
    }
    std::printf("metric %-38s %s %s\n", spec.name, number(it->second).c_str(), spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec.name) + ": {\"value\": " + number(it->second) +
               ", \"unit\": " + json_string(spec.unit) + "}";
  }
  for (const std::string& note : r.notes) std::printf("note %s\n", note.c_str());

  std::string detail = "{" + obs::provenance_json("mecbench", o.seed) +
                       ", \"workload\": " + json_string(o.workload) +
                       ", \"seed\": " + std::to_string(o.seed) +
                       ", \"trace\": " + (o.trace ? "1" : "0") +
                       ", \"build_type\": " + json_string(MECBENCH_BUILD_TYPE) +
                       ", \"hardware_concurrency\": " +
                       std::to_string(std::thread::hardware_concurrency());
  if (o.trace) {
    detail += ", \"tracing_overhead_ratio\": " +
              number(r.metrics.at("trace.overhead_ratio"));
  }
  for (const auto& [key, value] : r.detail) detail += ", " + json_string(key) + ": " + value;
  detail += "}";
  std::printf("detail %s\n", detail.c_str());
  std::filesystem::create_directories(o.out_dir);
  obs::write_text_file(o.out_dir + "/result-" + o.workload + "-" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0") + ".json",
                       detail + "\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace mecbench

int main(int argc, char** argv) {
  try {
    return mecbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
