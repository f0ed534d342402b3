// mecdns_testbed — run the paper's experiments from the command line.
//
//   mecdns_testbed --experiment fig5 --deployment mec-mec --queries 50
//   mecdns_testbed --experiment fig5 --deployment google --csv
//   mecdns_testbed --experiment study --site 0 --network cellular-mobile
//   mecdns_testbed --experiment ecs --deployment mec-lan
//
// Prints a human-readable summary, or CSV rows (--csv) for plotting.
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/fig5.h"
#include "core/study.h"
#include "util/args.h"

using namespace mecdns;

namespace {

/// Applies the --trace-sample* flags to the sink. A rate of 1.0 leaves
/// sampling off entirely so the span stream is bit-identical to a plain
/// unsampled run.
void configure_sampling(const util::ArgParser& args, obs::TraceSink& trace) {
  const double rate = args.get_double("trace-sample");
  if (rate >= 1.0) return;
  obs::TraceSink::SamplingConfig sampling;
  sampling.head_rate = rate;
  sampling.seed = static_cast<std::uint64_t>(args.get_int("seed")) ^
                  static_cast<std::uint64_t>(args.get_int("trace-sample-seed"));
  sampling.keep_slower_than =
      simnet::SimTime::millis(args.get_double("trace-slow-keep-ms"));
  trace.set_sampling(sampling);
}

/// Reads --deployment through the fig5 name table; reports unknown names.
bool deployment_from_flag(const util::ArgParser& args,
                          core::Fig5Deployment& out) {
  const std::string& text = args.get_string("deployment");
  if (core::fig5_from_slug(text, out)) return true;
  std::string known;
  for (const auto deployment : core::all_fig5_deployments()) {
    known += (known.empty() ? "" : "|") + core::fig5_slug(deployment);
  }
  std::fprintf(stderr, "unknown deployment '%s' (%s)\n", text.c_str(),
               known.c_str());
  return false;
}

/// --experiment fig5. One deployment is a campaign of one job named "",
/// seeded --seed, whose artifacts keep their paths as given;
/// --deployment all is the six-deployment sweep, one job per deployment
/// seeded split_mix64(seed ^ deployment_index), artifacts slugged and
/// metrics prefixed per deployment (byte-identical for any --workers).
int run_fig5(const util::ArgParser& args, core::Campaign& campaign) {
  const bool sweep = args.get_string("deployment") == "all";
  std::vector<core::Fig5Deployment> deployments;
  std::vector<std::string> names;
  if (sweep) {
    deployments = core::all_fig5_deployments();
    for (const auto deployment : deployments) {
      names.push_back(core::fig5_slug(deployment));
    }
  } else {
    core::Fig5Deployment deployment;
    if (!deployment_from_flag(args, deployment)) return 2;
    deployments.push_back(deployment);
    names.emplace_back();
  }
  const bool csv = args.get_bool("csv");
  const auto queries = static_cast<std::size_t>(args.get_int("queries"));
  const auto outcomes = campaign.run<std::string>(
      names, [&](std::size_t index, core::JobArtifacts& artifacts) {
        core::Fig5Testbed::Config config;
        config.deployment = deployments[index];
        config.seed = sweep ? campaign.job_seed(index) : campaign.seed();
        config.enable_ecs = args.get_bool("ecs");
        core::Fig5Testbed testbed(config);
        core::JobSinks sinks(campaign, testbed.simulator());
        if (sinks.trace() != nullptr) configure_sampling(args, *sinks.trace());
        testbed.set_observers(sinks.trace(), sinks.metrics());
        testbed.set_timeseries(sinks.timeseries());
        const core::SeriesResult result = testbed.measure(queries);
        if (sinks.metrics() != nullptr) {
          testbed.export_metrics(*sinks.metrics());
        }
        sinks.collect(artifacts);

        // The job's stdout block, printed below in deployment order.
        std::string out;
        char buf[256];
        if (csv) {
          for (std::size_t i = 0; i < result.samples.size(); ++i) {
            const auto& sample = result.samples[i];
            std::snprintf(buf, sizeof(buf), "%s,%zu,%.3f,%.3f,%.3f,%s\n",
                          core::fig5_slug(config.deployment).c_str(), i,
                          sample.total_ms, sample.wireless_ms,
                          sample.beyond_pgw_ms,
                          sample.address.to_string().c_str());
            out += buf;
          }
          return out;
        }
        const util::Summary summary = result.totals().summarize();
        std::snprintf(buf, sizeof(buf),
                      "%s: mean %.1f ms (wireless %.1f + dns %.1f), min "
                      "%.1f, max %.1f, failures %zu\n",
                      core::to_string(config.deployment).c_str(),
                      summary.mean, result.wireless().mean(),
                      result.beyond_pgw().mean(), summary.min, summary.max,
                      result.failures());
        out += buf;
        const double mec_share = result.answer_share(
            [&](simnet::Ipv4Address a) { return testbed.is_mec_cache(a); });
        std::snprintf(buf, sizeof(buf), "answers from MEC caches: %.0f%%\n",
                      100.0 * mec_share);
        out += buf;
        return out;
      });

  if (csv) {
    std::printf("deployment,query,total_ms,wireless_ms,beyond_pgw_ms,answer\n");
  }
  for (const auto& outcome : outcomes) {
    if (outcome.ok) std::fputs(outcome.value.c_str(), stdout);
  }
  return campaign.exit_code();
}

/// --experiment study: one (site, network) cell as a campaign of one job.
int run_study(const util::ArgParser& args, core::Campaign& campaign) {
  const auto site = static_cast<std::size_t>(args.get_int("site"));
  if (site >= workload::figure3_profiles().size()) {
    std::fprintf(stderr, "site index out of range (0-%zu)\n",
                 workload::figure3_profiles().size() - 1);
    return 2;
  }
  const auto outcomes = campaign.run<core::MeasurementStudy::CellResult>(
      {""}, [&](std::size_t, core::JobArtifacts& artifacts) {
        core::MeasurementStudy::Config config;
        config.seed = campaign.seed();
        config.queries_per_cell =
            static_cast<std::size_t>(args.get_int("queries"));
        core::MeasurementStudy study(config);
        core::JobSinks sinks(campaign, study.network().simulator());
        if (sinks.trace() != nullptr) configure_sampling(args, *sinks.trace());
        study.set_observers(sinks.trace(), sinks.metrics());
        study.set_timeseries(sinks.timeseries());
        auto cell = study.run_cell(site, args.get_string("network"));
        sinks.collect(artifacts);
        return cell;
      });
  if (!outcomes.front().ok) return 1;
  const auto& cell = outcomes.front().value;

  if (args.get_bool("csv")) {
    std::printf("website,network,query,latency_ms\n");
    const auto& values = cell.latencies_ms.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::printf("%s,%s,%zu,%.3f\n", cell.website.c_str(),
                  cell.network_class.c_str(), i, values[i]);
    }
    return campaign.exit_code();
  }
  std::printf("%s over %s: bar %.1f ms (8th-92nd pct), min %.1f, max %.1f\n",
              cell.website.c_str(), cell.network_class.c_str(),
              cell.trimmed.mean, cell.trimmed.min, cell.trimmed.max);
  for (const auto& key : cell.distribution.keys_by_count()) {
    std::printf("  %-40s %.0f%%\n", key.c_str(),
                100.0 * cell.distribution.share(key));
  }
  return campaign.exit_code();
}

int run_ecs(const util::ArgParser& args) {
  core::Fig5Deployment deployment;
  if (!deployment_from_flag(args, deployment)) return 2;
  const auto queries = static_cast<std::size_t>(args.get_int("queries"));
  double means[2];
  for (const bool ecs : {false, true}) {
    core::Fig5Testbed::Config config;
    config.deployment = deployment;
    config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    config.enable_ecs = ecs;
    core::Fig5Testbed testbed(config);
    means[ecs ? 1 : 0] = testbed.measure(queries).totals().mean();
  }
  std::printf("%s: no-ECS %.1f ms, ECS %.1f ms, ratio %.2fx\n",
              core::to_string(deployment).c_str(), means[0], means[1],
              means[1] / means[0]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "mecdns_testbed: run the MEC-CDN paper's experiments from the CLI");
  args.add_string("experiment", "fig5", "fig5 | study | ecs");
  args.add_string("deployment", "mec-mec",
                  "fig5/ecs deployment: mec-mec|mec-lan|mec-wan|provider|"
                  "google|cloudflare, or 'all' (fig5) for the whole sweep");
  args.add_int("queries", 50, "measured queries per series");
  args.add_bool("ecs", false, "enable EDNS Client Subnet (fig5)");
  args.add_int("site", 0, "study: Table 1 site index (0-4)");
  args.add_string("network", "cellular-mobile",
                  "study: wired-campus | wifi-home | cellular-mobile");
  args.add_bool("csv", false, "emit per-query CSV instead of a summary");
  args.add_double("trace-sample", 1.0,
                  "head-sampling rate for root query spans (1.0 = keep all; "
                  "slow or failed lookups are always kept)");
  args.add_int("trace-sample-seed", 0,
               "extra seed XORed into the sampling hash");
  args.add_double("trace-slow-keep-ms", 20.0,
                  "tail-keep threshold: sampled-out lookups slower than this "
                  "are kept anyway");
  args.add_bool("help", false, "print usage");
  core::Campaign campaign(
      args, {.flags = core::kTraceOut | core::kMetricsOut |
                      core::kTimeSeriesOut | core::kTimeSeriesWindow,
             .prefix_metrics = true});
  if (!campaign.parse(argc, argv)) return 2;
  if (args.get_bool("help")) {
    std::printf("%s", args.usage(argv[0]).c_str());
    return 0;
  }

  const std::string experiment = args.get_string("experiment");
  if (experiment == "fig5") return run_fig5(args, campaign);
  if (experiment == "study") return run_study(args, campaign);
  if (experiment == "ecs") return run_ecs(args);
  std::fprintf(stderr, "unknown experiment '%s'\n%s", experiment.c_str(),
               args.usage(argv[0]).c_str());
  return 2;
}
