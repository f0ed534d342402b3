// Figure 5: DNS lookup latency on the LTE testbed for different local
// resolvers and for MEC-CDN.
//
// Regenerates the paper's bar chart: six deployments, each bar split into
// the wireless (UE<->P-GW) segment and the DNS-query segment beyond the
// P-GW, with min/max whiskers. Prints Table 2 (ecosystem roles) as a
// preamble since the deployments are exactly the points in that ecosystem
// where a resolver can live.
//
// Paper reference values (ms): MEC/MEC 29.4, MEC/LAN 34.8, MEC/WAN 60.9,
// LAN L-DNS 114.6, Google 112.5, Cloudflare 285.7 — "up to 9x lower
// resolution latency". Shape, not absolute values, is the reproduction
// target.
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/fig5.h"
#include "core/roles.h"
#include "obs/provenance.h"
#include "util/args.h"
#include "util/strings.h"

using namespace mecdns;

int main(int argc, char** argv) {
  util::ArgParser args("bench_fig5: Figure 5 deployment latency bars");
  core::Campaign campaign(
      args, {.json_out = "BENCH_fig5.json",
             .flags = core::kTraceOut | core::kMetricsOut |
                      core::kTimeSeriesOut | core::kTimeSeriesWindow,
             .prefix_metrics = true});
  if (!campaign.parse(argc, argv)) return 2;

  std::printf("=== Table 2: entities and roles in MEC CDN ===\n");
  for (const auto& role : core::ecosystem_roles()) {
    std::printf("  %-18s | %s\n", role.entity.c_str(), role.role.c_str());
  }

  std::printf("\n=== Figure 5: DNS lookup latency on the LTE testbed ===\n");
  std::printf("%-24s %10s %12s %12s %8s %8s %s\n", "deployment", "mean(ms)",
              "wireless", "dns-query", "min", "max", "answers");

  struct Row {
    core::Fig5Deployment deployment;
    util::Summary summary;
    double wireless;
    double beyond;
    std::string answers;
  };
  // Each deployment is one campaign job: a private testbed (simulator,
  // network, RNG, observers), seeded independently of every other job.
  const auto& deployments = core::all_fig5_deployments();
  std::vector<std::string> names;
  for (const auto deployment : deployments) {
    names.push_back(core::fig5_slug(deployment));
  }
  const auto outcomes = campaign.run<Row>(
      names, [&](std::size_t index, core::JobArtifacts& artifacts) {
        const auto deployment = deployments[index];
        core::Fig5Testbed::Config config;
        config.deployment = deployment;
        config.seed = campaign.job_seed(index);
        core::Fig5Testbed testbed(config);
        core::JobSinks sinks(campaign, testbed.simulator());
        testbed.set_observers(sinks.trace(), sinks.metrics());
        testbed.set_timeseries(sinks.timeseries());
        const core::SeriesResult result = testbed.measure(50);
        if (sinks.metrics() != nullptr) {
          testbed.export_metrics(*sinks.metrics());
        }
        sinks.collect(artifacts);

        Row row;
        row.deployment = deployment;
        row.summary = result.totals().summarize();
        row.wireless = result.wireless().mean();
        row.beyond = result.beyond_pgw().mean();
        const double mec_share = result.answer_share(
            [&](simnet::Ipv4Address a) { return testbed.is_mec_cache(a); });
        const double cloud_share = result.answer_share(
            [&](simnet::Ipv4Address a) { return testbed.is_cloud_cache(a); });
        if (mec_share == 1.0) {
          row.answers = "all MEC caches";
        } else if (cloud_share == 1.0) {
          row.answers = "all cloud cache";
        } else {
          row.answers = util::fmt_fixed(100.0 * mec_share, 0) + "% MEC / " +
                        util::fmt_fixed(100.0 * cloud_share, 0) + "% cloud";
        }
        return row;
      });

  std::vector<Row> rows;
  double mec_mean = 0.0;
  double worst_mean = 0.0;
  for (const auto& outcome : outcomes) {
    if (!outcome.ok) continue;
    const Row& row = outcome.value;
    std::printf("%-24s %10.1f %12.1f %12.1f %8.1f %8.1f %s\n",
                core::to_string(row.deployment).c_str(), row.summary.mean,
                row.wireless, row.beyond, row.summary.min, row.summary.max,
                row.answers.c_str());
    if (row.deployment == core::Fig5Deployment::kMecLdnsMecCdns) {
      mec_mean = row.summary.mean;
    }
    if (row.summary.mean > worst_mean) worst_mean = row.summary.mean;
    rows.push_back(row);
  }

  std::printf("\n%-24s 0 %s %.0f ms\n", "", std::string(38, '-').c_str(),
              worst_mean);
  for (const Row& row : rows) {
    // Two segments, like the paper's stacked bars: wireless ('=') then the
    // DNS-query time beyond the P-GW ('#').
    std::string bar = util::ascii_bar(row.wireless, worst_mean, 40);
    const std::string full =
        util::ascii_bar(row.wireless + row.beyond, worst_mean, 40);
    for (std::size_t i = 0; i < bar.size(); ++i) {
      if (bar[i] == '#') {
        bar[i] = '=';
      } else if (full[i] == '#') {
        bar[i] = '#';
      }
    }
    std::printf("%-24s|%s| %.1f\n", core::to_string(row.deployment).c_str(),
                bar.c_str(), row.summary.mean);
  }
  std::printf("%-24s legend: '=' wireless (UE<->P-GW), '#' DNS query beyond "
              "the P-GW\n", "");

  if (mec_mean > 0.0) {
    std::printf(
        "\nMEC-CDN speedup vs worst non-MEC deployment: %.1fx (paper: up to "
        "9x)\n",
        worst_mean / mec_mean);
  }
  std::printf(
      "paper reference means (ms): 29.4 / 34.8 / 60.9 / 114.6 / 112.5 / "
      "285.7\n");

  const std::string& json_out = campaign.json_out();
  if (!json_out.empty()) {
    std::string body =
        "{\n  \"bench\": \"fig5_deployments\",\n  " +
        obs::provenance_json("fig5_deployments", campaign.seed()) +
        ",\n  \"unit\": \"ms\",\n  \"scenarios\": [\n";
    char buf[640];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const util::Summary& s = row.summary;
      std::snprintf(
          buf, sizeof(buf),
          "    {\"scenario\": \"%s\", \"count\": %zu, \"mean\": %.3f, "
          "\"stddev\": %.3f, \"min\": %.3f, \"max\": %.3f, \"p50\": %.3f, "
          "\"p90\": %.3f, \"p99\": %.3f, \"wireless_ms\": %.3f, "
          "\"beyond_pgw_ms\": %.3f, \"answers\": \"%s\"}%s\n",
          core::fig5_slug(row.deployment).c_str(), s.count, s.mean, s.stddev,
          s.min, s.max, s.p50, s.p90, s.p99, row.wireless, row.beyond,
          row.answers.c_str(), i + 1 < rows.size() ? "," : "");
      body += buf;
    }
    body += "  ]\n}\n";
    if (campaign.write(json_out, body)) {
      std::fprintf(stderr, "wrote %zu scenarios to %s\n", rows.size(),
                   json_out.c_str());
    }
  }
  return campaign.exit_code();
}
