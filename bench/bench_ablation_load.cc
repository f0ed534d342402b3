// Ablation A7: MEC L-DNS under load (queueing saturation).
//
// The MEC DNS is a small, edge-local service; unlike anycast cloud
// resolvers it cannot absorb arbitrary load — which is why §3 P1 pairs it
// with the orchestrator's ingress monitoring. This bench gives the MEC
// L-DNS a single worker (measured ~2.4 ms service time => capacity
// ~420 qps) and sweeps the offered load: latency rises smoothly with
// utilization and then the queue melts down — the regime the overload
// guard is designed to cut off.
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/fig5.h"
#include "util/args.h"

using namespace mecdns;

namespace {

struct LoadPoint {
  double offered_qps;
  double mean_ms;
  double p99_ms;
  std::size_t answered;
  std::uint64_t dropped;
};

LoadPoint run(double qps, std::uint64_t seed) {
  core::Fig5Testbed::Config config;
  config.deployment = core::Fig5Deployment::kMecLdnsMecCdns;
  config.seed = seed;
  core::Fig5Testbed testbed(config);
  testbed.site().ldns().set_service_capacity(1, /*max_queue=*/128);

  const std::size_t queries = static_cast<std::size_t>(qps * 4);  // 4 s of load
  const auto spacing = simnet::SimTime::millis(1000.0 / qps);
  const core::SeriesResult result =
      testbed.measure_name(testbed.content_name(), queries, spacing, 0);

  LoadPoint point;
  point.offered_qps = qps;
  const util::SampleSet totals = result.totals();
  point.mean_ms = totals.mean();
  point.p99_ms = totals.percentile(99);
  point.answered = totals.size();
  point.dropped = testbed.site().ldns().dropped_overflow();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_ablation_load: A7 MEC L-DNS saturation sweep");
  core::Campaign campaign(args, {});
  if (!campaign.parse(argc, argv)) return 2;
  const std::vector<double> loads = {50.0, 150.0, 300.0, 400.0, 500.0, 800.0};
  std::vector<std::string> names;
  for (const double load : loads) {
    names.push_back("load " + std::to_string(static_cast<int>(load)) + "/s");
  }
  const auto outcomes = campaign.run<LoadPoint>(
      names, [&](std::size_t index, core::JobArtifacts&) {
        return run(loads[index], campaign.job_seed(index));
      });

  std::printf(
      "=== A7: MEC L-DNS saturation (1 worker, ~2.4 ms service => ~420 qps "
      "capacity) ===\n");
  std::printf("%10s %10s %10s %10s %10s\n", "offered", "mean(ms)", "p99(ms)",
              "answered", "dropped");
  for (const auto& outcome : outcomes) {
    if (!outcome.ok) continue;
    const LoadPoint& point = outcome.value;
    std::printf("%8.0f/s %10.1f %10.1f %10zu %10llu\n", point.offered_qps,
                point.mean_ms, point.p99_ms, point.answered,
                static_cast<unsigned long long>(point.dropped));
  }
  std::printf(
      "\nexpected shape: flat latency at low utilization, a queueing knee "
      "near capacity, and queue\noverflow drops beyond it — quantifying why "
      "the orchestrator must shed load above a threshold\nrather than let "
      "the MEC DNS queue unboundedly.\n");
  return campaign.exit_code();
}
