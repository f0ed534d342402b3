// Ablation A1: the split-namespace L-DNS and non-MEC traffic.
//
// §3 P1 argues the MEC DNS can answer MEC-CDN domains at the first hop
// while forwarding (or multicasting) everything else to the provider's
// L-DNS, "adding only a small overhead to CDN accesses for
// non-latency-critical content". This bench quantifies all four paths:
//
//   MEC domain   via MEC L-DNS      (the win: first-hop resolution)
//   MEC domain   via provider L-DNS (what clients get today)
//   web domain   via MEC L-DNS      (forwarded: the "small overhead")
//   web domain   via provider L-DNS (baseline for that overhead)
//
// and the multicast variant where the UE races both servers. Each path is
// one parallel-campaign job with a private testbed — the historical version
// mutated a single testbed across six sequential measurements, so every
// path's numbers (and resolver caches) depended on the paths measured
// before it.
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/fig5.h"
#include "util/args.h"

using namespace mecdns;

namespace {

struct Spec {
  std::string label;
  bool mec_domain;       ///< resolve the MEC content name (else web name)
  bool provider_server;  ///< re-target the stub at the provider L-DNS
  bool multicast;        ///< race MEC and provider L-DNS
};

double run(const Spec& spec, std::uint64_t seed) {
  core::Fig5Testbed::Config config;
  config.deployment = core::Fig5Deployment::kMecLdnsMecCdns;
  config.seed = seed;
  config.provider_fallback = true;
  core::Fig5Testbed testbed(config);
  if (spec.provider_server) {
    testbed.ue().resolver().set_server(testbed.provider_endpoint());
  }
  if (spec.multicast) {
    testbed.ue().resolver().set_secondary(testbed.provider_endpoint());
  }
  const dns::DnsName name =
      spec.mec_domain ? testbed.content_name() : testbed.web_name();
  return testbed.measure_name(name, 40, simnet::SimTime::seconds(2))
      .totals()
      .mean();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_ablation_namespace: A1 split-namespace L-DNS ablation");
  core::Campaign campaign(args, {});
  if (!campaign.parse(argc, argv)) return 2;

  const std::vector<Spec> specs = {
      {"MEC domain via MEC L-DNS", true, false, false},
      {"MEC domain via provider L-DNS", true, true, false},
      {"web domain via provider L-DNS", false, true, false},
      {"web domain via MEC L-DNS (forward)", false, false, false},
      {"web domain, multicast both", false, false, true},
      {"MEC domain, multicast both", true, false, true},
  };
  std::vector<std::string> names;
  for (const Spec& spec : specs) names.push_back(spec.label);
  const auto outcomes = campaign.run<double>(
      names, [&](std::size_t index, core::JobArtifacts&) {
        return run(specs[index], campaign.job_seed(index));
      });
  if (campaign.exit_code() != 0) return 1;

  std::printf("=== A1: split-namespace MEC L-DNS vs provider L-DNS ===\n");
  std::printf("%-34s %10s\n", "path", "mean(ms)");
  std::vector<double> means;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    means.push_back(outcomes[i].value);
    std::printf("%-34s %10.1f\n", specs[i].label.c_str(), outcomes[i].value);
  }

  const double mec_via_mec = means[0];
  const double mec_via_provider = means[1];
  const double web_via_provider = means[2];
  const double web_via_mec = means[3];
  std::printf("\nMEC-domain speedup from MEC L-DNS:   %.1fx (paper: ~3.9x)\n",
              mec_via_provider / mec_via_mec);
  std::printf("web-domain overhead through MEC L-DNS: +%.1f ms (%.0f%%)\n",
              web_via_mec - web_via_provider,
              100.0 * (web_via_mec - web_via_provider) / web_via_provider);
  return 0;
}
