#include "core/campaign.h"

#include <algorithm>
#include <cstdio>

namespace mecdns::core {

namespace {

const std::string kNoPath;

const char* flag_name(CampaignFlag flag) {
  switch (flag) {
    case kTraceOut: return "trace-out";
    case kMetricsOut: return "metrics-out";
    case kTimeSeriesOut: return "timeseries-out";
    case kTimeSeriesWindow: return "timeseries-window-ms";
    case kJournalOut: return "journal-out";
    case kIncidentsOut: return "incidents-out";
    case kWallOut: return "wall-out";
  }
  return "?";
}

}  // namespace

std::string with_slug(const std::string& path, std::string name) {
  if (name.empty()) return path;
  std::replace(name.begin(), name.end(), '/', '.');
  const auto dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + name;
  }
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

void merge_prefixed(obs::Registry& dst, const std::string& prefix,
                    const obs::Registry& src) {
  if (prefix.empty()) {
    dst.merge(src);
    return;
  }
  for (const auto& [key, value] : src.counters()) {
    dst.add(prefix + "." + key, value);
  }
  for (const auto& [key, value] : src.gauges()) {
    dst.set_gauge(prefix + "." + key, value);
  }
  for (const auto& [key, histogram] : src.histograms()) {
    dst.histogram(prefix + "." + key).merge(histogram);
  }
}

Campaign::Campaign(util::ArgParser& args, CampaignSpec spec)
    : args_(args), spec_(std::move(spec)) {
  args_.add_int("seed", spec_.seed,
                "campaign seed; each job runs with split_mix64(seed ^ "
                "job_index)");
  args_.add_int("workers", 0,
                "parallel campaign workers (0 = hardware concurrency, "
                "1 = serial); deterministic output is byte-identical for "
                "any value");
  if (!spec_.json_out.empty()) {
    args_.add_string("json-out", spec_.json_out,
                     "write the campaign summary as JSON ('' disables)");
  }
  const auto has = [this](CampaignFlag flag) {
    return (spec_.flags & flag) != 0;
  };
  if (has(kTraceOut)) {
    args_.add_string("trace-out", "",
                     "Chrome trace-event JSON per job (job slug inserted "
                     "before the extension; '' disables)");
  }
  if (has(kMetricsOut)) {
    args_.add_string("metrics-out", "",
                     spec_.prefix_metrics
                         ? "combined metrics JSON, names prefixed per job"
                         : "combined metrics JSON, summed across jobs");
  }
  if (has(kTimeSeriesOut)) {
    args_.add_string("timeseries-out", "",
                     "sim-time-windowed metrics JSON per job (job slug "
                     "inserted before the extension; '' disables)");
  }
  if (has(kTimeSeriesWindow)) {
    args_.add_double("timeseries-window-ms", 500.0,
                     "sim-time window width for --timeseries-out");
  }
  if (has(kJournalOut)) {
    args_.add_string("journal-out", "",
                     "flight-recorder journal JSON per job (job slug "
                     "inserted before the extension; '' disables)");
  }
  if (has(kIncidentsOut)) {
    args_.add_string("incidents-out", "",
                     "correlated incident forensics (BENCH_incidents.json "
                     "shape: MTTD/MTTR per scenario; '' disables)");
  }
  if (has(kWallOut)) {
    args_.add_string("wall-out", "",
                     "wall-clock throughput JSON (machine-dependent; "
                     "'' disables)");
  }
}

bool Campaign::parse(int argc, const char* const* argv) {
  if (auto result = args_.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args_.usage(argv[0]).c_str());
    return false;
  }
  return true;
}

std::uint64_t Campaign::seed() const {
  return static_cast<std::uint64_t>(args_.get_int("seed"));
}

std::uint64_t Campaign::job_seed(std::size_t index) const {
  return core::job_seed(seed(), index);
}

std::size_t Campaign::workers() const {
  return resolve_workers(args_.get_int("workers"));
}

bool Campaign::on(CampaignFlag flag) const {
  return (spec_.flags & flag) != 0 && !path(flag).empty();
}

const std::string& Campaign::path(CampaignFlag flag) const {
  if ((spec_.flags & flag) == 0) return kNoPath;
  return args_.get_string(flag_name(flag));
}

const std::string& Campaign::json_out() const {
  return spec_.json_out.empty() ? kNoPath : args_.get_string("json-out");
}

simnet::SimTime Campaign::series_window() const {
  if ((spec_.flags & kTimeSeriesWindow) == 0) {
    return simnet::SimTime::millis(500);
  }
  return simnet::SimTime::millis(args_.get_double("timeseries-window-ms"));
}

bool Campaign::write(const std::string& path, const std::string& body) {
  if (obs::write_text_file(path, body)) return true;
  std::fprintf(stderr, "error: failed to write %s\n", path.c_str());
  ok_ = false;
  return false;
}

void Campaign::write_job_file(CampaignFlag flag, const std::string& name,
                              const std::string& body) {
  if (on(flag)) write(with_slug(path(flag), name), body);
}

void Campaign::finish_jobs(const std::vector<std::string>& names,
                           const std::vector<const std::string*>& errors,
                           const std::vector<JobArtifacts>& artifacts) {
  obs::Registry combined;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (errors[i] != nullptr) {
      std::fprintf(stderr, "error: %s failed: %s\n",
                   names[i].empty() ? "run" : names[i].c_str(),
                   errors[i]->c_str());
      ok_ = false;
      continue;
    }
    const JobArtifacts& job = artifacts[i];
    write_job_file(kTraceOut, names[i], job.trace_json);
    write_job_file(kTimeSeriesOut, names[i], job.timeseries_json);
    write_job_file(kJournalOut, names[i], job.journal_json);
    if (on(kMetricsOut)) {
      merge_prefixed(combined, spec_.prefix_metrics ? names[i] : "",
                     job.metrics);
    }
  }
  if (on(kMetricsOut)) write(path(kMetricsOut), combined.to_json());
}

JobSinks::JobSinks(const Campaign& campaign, const simnet::Simulator& sim) {
  if (campaign.on(kTraceOut)) trace_.emplace(sim);
  if (campaign.on(kMetricsOut)) metrics_.emplace();
  if (campaign.on(kTimeSeriesOut)) {
    series_.emplace(sim, campaign.series_window());
  }
}

void JobSinks::collect(JobArtifacts& out) {
  if (trace_) out.trace_json = trace_->to_chrome_trace();
  if (series_) out.timeseries_json = series_->to_json();
  if (metrics_) out.metrics = std::move(*metrics_);
}

}  // namespace mecdns::core
