// bench_throughput — queries/sec and per-query hot-path cost of the Figure 5
// deployments under load from 10^5+ simulated UEs.
//
// A workload::LoadGenerator drives every UE's Poisson arrivals through the
// testbed's full resolution stack while the obs/perf counter layer (plus
// the counting allocator linked into this binary) accounts what each query
// costs: allocations, wire-codec invocations, simulator events, and the
// event-queue high-water mark. Output splits by determinism:
//
//   --json-out BENCH_throughput.json   deterministic metrics only —
//       byte-identical for any --workers value, diffable with
//       `mecdns_report --diff` as a perf regression gate;
//   --wall-out BENCH_throughput_wall.json   wall-clock throughput
//       (queries/sec, events/sec of real time) — machine-dependent,
//       reported for humans, never byte-compared;
//   --metrics-out metrics.json         full registries, names prefixed per
//       deployment slug.
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/throughput.h"
#include "obs/perf.h"
#include "util/args.h"
#include "util/strings.h"

using namespace mecdns;

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_throughput: load-generator throughput and per-query cost "
      "across fig5 deployments");
  args.add_string("deployments", "mec-mec,provider",
                  "comma-separated deployment slugs (mec-mec, mec-lan, "
                  "mec-wan, provider, google, cloudflare) or 'all'");
  args.add_int("ues", 100000, "simulated UE population per deployment");
  args.add_double("rate-hz", 0.02,
                  "per-UE Poisson arrival rate (queries per sim second)");
  args.add_double("duration-s", 15.0, "load-generation window, sim seconds");
  args.add_bool("closed-loop", false,
                "closed-loop arrivals (think time between completions) "
                "instead of open-loop Poisson");
  args.add_double("think-s", 1.0, "closed-loop mean think time, seconds");
  args.add_int("warmup-queries", 5,
               "cache-priming queries before the measured window");
  args.add_bool("journal", false,
                "attach a flight-recorder journal to every hot-path "
                "component (steady-state records nothing; used to verify "
                "the allocs/query ceiling with journaling armed)");
  core::Campaign campaign(
      args, {.json_out = "BENCH_throughput.json",
             .flags = core::kMetricsOut | core::kWallOut,
             .prefix_metrics = true});
  if (!campaign.parse(argc, argv)) return 2;

  core::ThroughputConfig config;
  const std::string spec = args.get_string("deployments");
  if (spec == "all") {
    config.deployments = core::all_fig5_deployments();
  } else {
    for (const std::string& part : util::split(spec, ',')) {
      const std::string slug = util::trim(part);
      if (slug.empty()) continue;
      core::Fig5Deployment deployment;
      if (!core::fig5_from_slug(slug, deployment)) {
        std::fprintf(stderr, "error: unknown deployment '%s'\n",
                     slug.c_str());
        return 2;
      }
      config.deployments.push_back(deployment);
    }
  }
  if (config.deployments.empty()) {
    std::fprintf(stderr, "error: no deployments selected\n");
    return 2;
  }
  config.ues = static_cast<std::uint32_t>(args.get_int("ues"));
  config.rate_hz = args.get_double("rate-hz");
  config.duration_s = args.get_double("duration-s");
  config.closed_loop = args.get_bool("closed-loop");
  config.think_s = args.get_double("think-s");
  config.warmup_queries =
      static_cast<std::size_t>(args.get_int("warmup-queries"));
  config.seed = campaign.seed();
  config.journal = args.get_bool("journal");

  if (!obs::alloc_counting_active()) {
    std::fprintf(stderr,
                 "warning: counting allocator not linked; allocs_per_query "
                 "will be absent from the output\n");
  }

  std::vector<std::string> names;
  for (const core::Fig5Deployment deployment : config.deployments) {
    names.push_back(core::fig5_slug(deployment));
  }
  const auto outcomes = campaign.run<core::ThroughputResult>(
      names, [&config](std::size_t index, core::JobArtifacts& artifacts) {
        core::ThroughputOutput out = core::run_throughput_job(config, index);
        artifacts.metrics = std::move(out.metrics);
        return out.result;
      });
  std::vector<core::ThroughputResult> rows;
  for (const auto& outcome : outcomes) {
    if (outcome.ok) rows.push_back(outcome.value);
  }

  std::printf("=== throughput: %u UEs x %s qps, %s s window ===\n",
              config.ues, util::fmt_fixed(config.rate_hz, 3).c_str(),
              util::fmt_fixed(config.duration_s, 1).c_str());
  std::printf("%-12s %9s %9s %8s %8s %9s %8s %8s %12s\n", "deployment",
              "queries", "qps_sim", "ev/q", "alloc/q", "wireB/q", "p50",
              "p99", "qps_wall");
  for (const core::ThroughputResult& r : rows) {
    std::printf("%-12s %9llu %9.1f %8.2f ", r.scenario.c_str(),
                static_cast<unsigned long long>(r.queries), r.qps_sim,
                r.events_per_query);
    if (r.alloc_counted) {
      std::printf("%8.1f ", r.allocs_per_query);
    } else {
      std::printf("%8s ", "-");
    }
    std::printf("%9.1f %8.3f %8.3f %12.0f\n", r.wire_bytes_per_query,
                r.p50_ms, r.p99_ms, r.qps_wall);
  }

  const std::string& json_out = campaign.json_out();
  if (!json_out.empty() &&
      campaign.write(json_out, core::throughput_json(rows, config.seed))) {
    std::fprintf(stderr, "wrote %zu scenarios to %s\n", rows.size(),
                 json_out.c_str());
  }
  if (campaign.on(core::kWallOut)) {
    campaign.write(campaign.path(core::kWallOut),
                   core::throughput_wall_json(rows, campaign.workers(),
                                              config.seed));
  }
  return campaign.exit_code();
}
