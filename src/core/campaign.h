// The campaign harness: one front end for every experiment entry point.
//
// The paper's evidence is a set of grids — the Fig 2 (site × network)
// cells, the six Fig 5 deployments, the A1–A7 ablations, the fault and
// mobility matrices, the throughput sweep — and every grid runs the same
// way: parse --seed/--workers and some artifact flags, run independent jobs
// on core::ParallelCampaign, serialize each job's observers inside the job,
// then merge and write in job order. A Campaign owns all of that, so an
// entry point only says what one job does and how its rows print:
//
//   * Flags. The constructor registers --seed and --workers, --json-out
//     when the spec names a default path, and exactly the artifact flags
//     the spec lists (CampaignFlag).
//   * Per-job sinks. JobSinks builds the TraceSink, Registry and TimeSeries
//     the artifact flags ask for (nothing else), on the job's simulator,
//     and serializes them into the job's JobArtifacts.
//   * Artifact naming. A per-job file is with_slug(flag value, job name):
//     the name goes in before the extension, '/' becoming '.'. A job named
//     "" (a campaign of one) writes to the flag's path unchanged.
//   * Metrics. Every job's registry merges into one --metrics-out file,
//     summed, or prefixed "<job name>." when the spec asks for it.
//   * Writing. Every file goes through obs::write_text_file on the calling
//     thread, per-job files in job order, after all jobs have joined.
//   * Failures. Every failed job and every failed write is reported on
//     stderr as "error: ...". The remaining jobs' files are still written
//     and exit_code() is then 1; a campaign with nothing failed exits 0.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "simnet/simulator.h"
#include "util/args.h"

namespace mecdns::core {

/// The artifact flags a campaign may register, beyond --json-out.
enum CampaignFlag : unsigned {
  kTraceOut = 1u << 0,          ///< --trace-out: per-job Chrome trace
  kMetricsOut = 1u << 1,        ///< --metrics-out: the merged registry
  kTimeSeriesOut = 1u << 2,     ///< --timeseries-out: per-job series
  kTimeSeriesWindow = 1u << 3,  ///< --timeseries-window-ms for JobSinks
  kJournalOut = 1u << 4,        ///< --journal-out: per-job journal
  kIncidentsOut = 1u << 5,      ///< --incidents-out: incident report
  kWallOut = 1u << 6,           ///< --wall-out: wall-clock side artifact
};

struct CampaignSpec {
  std::int64_t seed = 42;  ///< --seed default
  std::string json_out{};  ///< --json-out default; "" registers no flag
  unsigned flags = 0;      ///< CampaignFlag bits
  /// Merge --metrics-out as "<job name>.<metric>" rather than summing.
  bool prefix_metrics = false;
};

/// What one job hands back besides its result: serialized per-job files
/// (written only when their flag is on) and the registry to merge.
struct JobArtifacts {
  std::string trace_json;
  std::string timeseries_json;
  std::string journal_json;
  obs::Registry metrics;
};

/// "trace.json" + "fault/robust" -> "trace.fault.robust.json"; a path
/// without an extension gets ".<name>" appended; "" leaves `path` as is.
std::string with_slug(const std::string& path, std::string name);

/// Merges `src` into `dst` with every metric renamed "<prefix>.<name>", so
/// runs that share metric names sit side by side. An empty prefix is a
/// plain Registry::merge.
void merge_prefixed(obs::Registry& dst, const std::string& prefix,
                    const obs::Registry& src);

class Campaign {
 public:
  /// Registers the spec's flags on `args`, which must outlive the campaign.
  Campaign(util::ArgParser& args, CampaignSpec spec);

  /// Parses argv; on error prints the message and usage to stderr and
  /// returns false (the caller exits 2).
  bool parse(int argc, const char* const* argv);

  std::uint64_t seed() const;
  /// job_seed(seed(), index).
  std::uint64_t job_seed(std::size_t index) const;
  /// The --workers value resolved to a thread count.
  std::size_t workers() const;

  /// True when `flag` is registered and set to a non-empty path.
  bool on(CampaignFlag flag) const;
  /// The registered flag's path ("" when unset).
  const std::string& path(CampaignFlag flag) const;
  /// The --json-out path ("" when disabled or not registered).
  const std::string& json_out() const;
  /// Width of JobSinks' series: --timeseries-window-ms, else 500 ms.
  simnet::SimTime series_window() const;

  /// Runs fn(index, artifacts) for one job per name on workers() threads,
  /// then, on this thread and in job order, reports every failed job and
  /// writes the per-job files and the merged --metrics-out of the rest.
  template <typename Result>
  std::vector<JobOutcome<Result>> run(
      const std::vector<std::string>& names,
      const std::function<Result(std::size_t, JobArtifacts&)>& fn) {
    std::vector<JobArtifacts> artifacts(names.size());
    auto outcomes = ParallelCampaign(workers()).run<Result>(
        names.size(),
        [&fn, &artifacts](std::size_t i) { return fn(i, artifacts[i]); });
    std::vector<const std::string*> errors(names.size(), nullptr);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].ok) errors[i] = &outcomes[i].error;
    }
    finish_jobs(names, errors, artifacts);
    return outcomes;
  }

  /// Writes `body` to `path`; on failure reports it and marks the campaign
  /// failed. Returns whether the file was written.
  bool write(const std::string& path, const std::string& body);

  /// 0 when every job and every write succeeded, else 1.
  int exit_code() const { return ok_ ? 0 : 1; }

 private:
  void finish_jobs(const std::vector<std::string>& names,
                   const std::vector<const std::string*>& errors,
                   const std::vector<JobArtifacts>& artifacts);
  void write_job_file(CampaignFlag flag, const std::string& name,
                      const std::string& body);

  util::ArgParser& args_;
  CampaignSpec spec_;
  bool ok_ = true;
};

/// The observers one job's artifact flags ask for, on the job's simulator.
/// Construct after the simulator (so the sinks die first), hand trace(),
/// metrics() and timeseries() to the components — each is null when its
/// flag is off — and call collect() once the simulation is done.
class JobSinks {
 public:
  JobSinks(const Campaign& campaign, const simnet::Simulator& sim);

  obs::TraceSink* trace() { return trace_ ? &*trace_ : nullptr; }
  obs::Registry* metrics() { return metrics_ ? &*metrics_ : nullptr; }
  obs::TimeSeries* timeseries() { return series_ ? &*series_ : nullptr; }

  /// Serializes every sink into `out` (the registry is moved).
  void collect(JobArtifacts& out);

 private:
  std::optional<obs::TraceSink> trace_;
  std::optional<obs::Registry> metrics_;
  std::optional<obs::TimeSeries> series_;
};

}  // namespace mecdns::core
