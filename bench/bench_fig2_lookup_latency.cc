// Figure 2: DNS lookup latency for the Table 1 CDN domains over three types
// of Internet connectivity.
//
// Regenerates the paper's five per-site bar groups. Each bar is the mean of
// the 8th-92nd percentile of the per-query lookup latencies ("Each bar is
// based on at least 12 tests, only including the results from the 8th- to
// the 92th-percentile"), with untrimmed min/max as the whiskers. The paper
// observes: cellular-mobile is substantially slower and more variable than
// wired-campus and wifi-home, across all five domains.
//
// Each (site, network) cell is one parallel-campaign job with a private
// MeasurementStudy seeded split_mix64(seed ^ cell_index) — the historical
// single-study version threaded one RNG through all fifteen cells, so every
// cell's numbers depended on the cells that ran before it. Output is merged
// in cell order and is byte-identical for any --workers value.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/study.h"
#include "obs/provenance.h"
#include "util/args.h"
#include "util/strings.h"

using namespace mecdns;

namespace {

/// "Booking.com" + "wifi-home" -> "booking-com.wifi-home": a filename-safe
/// cell label for the per-cell trace/timeseries files.
std::string cell_slug(const std::string& website,
                      const std::string& network_class) {
  std::string out;
  for (const char c : website) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '-') {
      out += '-';
    }
  }
  return out + "." + network_class;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_fig2: Figure 2 DNS lookup latency bars");
  core::Campaign campaign(
      args, {.seed = 7,
             .json_out = "BENCH_fig2.json",
             .flags = core::kTraceOut | core::kMetricsOut |
                      core::kTimeSeriesOut | core::kTimeSeriesWindow});
  if (!campaign.parse(argc, argv)) return 2;

  std::printf("=== Table 1: tested CDN domain names ===\n");
  for (const auto& entry : workload::table1_domains()) {
    std::printf("  %-14s | %s\n", entry.website.c_str(),
                entry.cdn_domain.c_str());
  }

  // One job per (site, network) cell: a private study, observers and RNG.
  const auto& profiles = workload::figure3_profiles();
  const auto& classes = workload::network_classes();
  std::vector<std::string> names;
  for (const auto& profile : profiles) {
    for (const std::string& network_class : classes) {
      names.push_back(cell_slug(profile.website, network_class));
    }
  }
  const auto outcomes = campaign.run<core::MeasurementStudy::CellResult>(
      names, [&](std::size_t index, core::JobArtifacts& artifacts) {
        core::MeasurementStudy::Config config;
        config.queries_per_cell = 40;
        config.seed = campaign.job_seed(index);
        core::MeasurementStudy study(config);
        core::JobSinks sinks(campaign, study.network().simulator());
        study.set_observers(sinks.trace(), sinks.metrics());
        study.set_timeseries(sinks.timeseries());
        auto cell = study.run_cell(index / classes.size(),
                                   classes[index % classes.size()]);
        sinks.collect(artifacts);
        return cell;
      });

  std::printf("\n=== Figure 2: DNS lookup latency (ms) ===\n");
  std::printf("%-14s %-18s %10s %8s %8s %8s\n", "website", "network",
              "bar(mean)", "min", "max", "samples");

  struct Bar {
    std::string website;
    std::string network;
    util::Summary trimmed;
  };
  std::vector<Bar> bars;
  double scale = 0.0;
  double wired_mean = 0.0;
  for (const auto& outcome : outcomes) {
    if (!outcome.ok) continue;
    const auto& cell = outcome.value;
    std::printf("%-14s %-18s %10.1f %8.1f %8.1f %8zu\n", cell.website.c_str(),
                cell.network_class.c_str(), cell.trimmed.mean,
                cell.trimmed.min, cell.trimmed.max,
                cell.latencies_ms.size());
    if (cell.network_class == workload::kWiredCampus) {
      wired_mean = cell.trimmed.mean;
    }
    if (cell.network_class == workload::kCellularMobile && wired_mean > 0.0) {
      std::printf("%-14s %-18s %9.1fx slower than wired\n", "", "-> cellular",
                  cell.trimmed.mean / wired_mean);
    }
    bars.push_back(Bar{cell.website, cell.network_class, cell.trimmed});
    scale = std::max(scale, cell.trimmed.max);
  }

  std::printf("\n%-34s 0 %s %.0f ms\n", "", std::string(38, '-').c_str(),
              scale);
  for (const Bar& bar : bars) {
    std::printf("%-14s %-18s |%s| %.1f\n", bar.website.c_str(),
                bar.network.c_str(),
                util::ascii_bar(bar.trimmed.mean, scale, 40).c_str(),
                bar.trimmed.mean);
  }
  std::printf(
      "\nexpected shape (paper): cellular-mobile bars are the tallest and "
      "most variable in every group\n");

  const std::string& json_out = campaign.json_out();
  if (!json_out.empty()) {
    std::string body =
        "{\n  \"bench\": \"fig2_lookup_latency\",\n  " +
        obs::provenance_json("fig2_lookup_latency", campaign.seed()) +
        ",\n  \"unit\": \"ms\",\n  \"scenarios\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < bars.size(); ++i) {
      const Bar& bar = bars[i];
      const util::Summary& s = bar.trimmed;
      std::snprintf(
          buf, sizeof(buf),
          "    {\"scenario\": \"%s/%s\", \"count\": %zu, \"mean\": %.3f, "
          "\"stddev\": %.3f, \"min\": %.3f, \"max\": %.3f, \"p50\": %.3f, "
          "\"p90\": %.3f, \"p99\": %.3f}%s\n",
          bar.website.c_str(), bar.network.c_str(), s.count, s.mean, s.stddev,
          s.min, s.max, s.p50, s.p90, s.p99,
          i + 1 < bars.size() ? "," : "");
      body += buf;
    }
    body += "  ]\n}\n";
    if (campaign.write(json_out, body)) {
      std::fprintf(stderr, "wrote %zu scenarios to %s\n", bars.size(),
                   json_out.c_str());
    }
  }
  return campaign.exit_code();
}
