// Shared types of the mecbench binary: run options, the per-run result and
// small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mecbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the self-check (fewer UEs, shorter phases).
  bool small = false;
  /// Where span files and the detail JSON go.
  std::string out_dir;
  /// The mecdns_livewire binary the live workload serves from.
  std::string livewire;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value; units are fixed per name in main.cc.
  std::map<std::string, double> metrics;
  /// Workload-specific facts for the detail JSON (already JSON values).
  std::map<std::string, std::string> detail;
  /// Human-readable report lines.
  std::vector<std::string> notes;
};

RunResult run_sim(const Options& options, bool split_fetch);
RunResult run_live(const Options& options);

/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }
/// Median of `values` (0 for an empty list).
double median(std::vector<double> values);
/// The p-th percentile (0..100) by nearest rank over `values`.
double percentile(std::vector<double> values, double p);
/// Peak resident set of this process, in MB.
double self_peak_rss_mb();
/// Seconds since `start_ns` (a now_ns() value).
double seconds_since(std::int64_t start_ns);
/// CPU seconds the calling thread has run. Time the host or the scheduler
/// took the CPU away is not counted, so CPU-based rates hold steady on a
/// contended host where wall-clock rates swing.
double thread_cpu_s();

}  // namespace mecbench
