// Throughput measurement: the load generator driven against the Figure 5
// deployments, with hot-path cost accounting.
//
// Where core::QueryRunner measures *latency* of a handful of dig-style
// queries, ThroughputRun measures *cost under load*: a LoadGenerator drives
// 10^5–10^6 UEs' worth of arrivals through a testbed's full resolution
// stack while the perf-counter layer (obs/perf.h) accounts allocations,
// wire codec work and simulator events. The result splits cleanly into
//
//   * deterministic metrics — queries, events/query, allocs/query, p50/p99
//     latency under load, peak queue depth — serialized by
//     throughput_json(), byte-identical for any --workers value, and gated
//     by `mecdns_report --diff`;
//   * wall-clock metrics — queries/sec and events/sec of real time —
//     serialized by throughput_wall_json(), machine-dependent by nature and
//     therefore reported but never byte-compared (the same split
//     BENCH_parallel.json already uses).
//
// Each deployment is one parallel-campaign job with a private testbed,
// seeded job_seed(seed, index); allocation counts are per-thread deltas
// taken inside the job body, so they too are worker-count-independent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fig5.h"
#include "obs/metrics.h"

namespace mecdns::core {

struct ThroughputConfig {
  std::vector<Fig5Deployment> deployments;
  std::uint32_t ues = 100000;
  double rate_hz = 0.02;     ///< per-UE arrival rate (queries / sim second)
  double duration_s = 15.0;  ///< load-generation window
  bool closed_loop = false;
  double think_s = 1.0;            ///< closed-loop mean think time
  std::size_t warmup_queries = 5;  ///< dig-style queries priming caches
  std::uint64_t seed = 42;
  /// Attach a flight-recorder journal to every hot-path component (UE
  /// transport, L-DNS cache, C-DNS router). Steady-state traffic records
  /// nothing — the flag exists so the allocs/query ceiling can be
  /// re-verified with journaling armed, proving attachment is free.
  bool journal = false;
};

struct ThroughputResult {
  std::string scenario;  ///< deployment slug
  // --- deterministic -------------------------------------------------------
  std::uint32_t ues = 0;
  std::uint64_t queries = 0;   ///< arrivals the load generator issued
  std::uint64_t failures = 0;  ///< lookups that did not return an address
  double duration_s = 0.0;
  double qps_sim = 0.0;  ///< queries per *simulated* second (offered load)
  std::uint64_t events = 0;  ///< simulator events over the load window
  double events_per_query = 0.0;
  double dns_encoded_per_query = 0.0;
  double dns_decoded_per_query = 0.0;
  double wire_bytes_per_query = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t peak_queue_depth = 0;  ///< event-queue high-water mark
  bool alloc_counted = false;  ///< obs/alloc_hooks.cc linked in this binary
  double allocs_per_query = 0.0;        ///< 0 unless alloc_counted
  double alloc_bytes_per_query = 0.0;   ///< 0 unless alloc_counted
  // --- wall clock (machine-dependent; excluded from throughput_json) ------
  double wall_ms = 0.0;
  double qps_wall = 0.0;
  double events_per_sec_wall = 0.0;
};

struct ThroughputOutput {
  ThroughputResult result;
  /// Everything a --metrics-out consumer wants: perf counters and
  /// per-query gauges under "perf.", loadgen counters and the
  /// under-load latency histogram under "loadgen.", simulator gauges and
  /// the full component export of the testbed.
  obs::Registry metrics;
};

/// Runs deployment `index` of `config` on the calling thread, seeded
/// job_seed(config.seed, index): one campaign job.
ThroughputOutput run_throughput_job(const ThroughputConfig& config,
                                    std::size_t index);

/// Deterministic BENCH_throughput.json body (trailing newline included).
/// `seed` only feeds the provenance meta block.
std::string throughput_json(const std::vector<ThroughputResult>& results,
                            std::uint64_t seed = 42);

/// Wall-clock side artifact (BENCH_throughput_wall.json body).
std::string throughput_wall_json(const std::vector<ThroughputResult>& results,
                                 std::size_t workers,
                                 std::uint64_t seed = 42);

}  // namespace mecdns::core
