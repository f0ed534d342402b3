// Ablation A5: multi-tier miss referral.
//
// §3 P2: "In cases where the content is not available at MEC-CDN, C-DNS
// simply returns the address of another C-DNS running at a different CDN
// tier, e.g., a mid-tier running alongside the mobile network core, or a
// far-tier running in the cloud." This bench measures the full referral
// path (edge C-DNS -> cascading CNAME -> provider recursion -> mid-tier
// C-DNS -> cloud cache) against first-hop resolution of edge-deployed
// content, for both the DNS lookup alone and the complete DNS+fetch.
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/fig5.h"
#include "util/args.h"

using namespace mecdns;

namespace {

struct PathStats {
  util::SampleSet dns_ms;
  util::SampleSet total_ms;
  std::size_t failures = 0;
};

PathStats run(core::Fig5Testbed& testbed, const dns::DnsName& host,
              int requests) {
  PathStats stats;
  for (int i = 0; i < requests; ++i) {
    testbed.network().simulator().schedule_after(
        simnet::SimTime::seconds(1), [&, i] {
          cdn::Url url;
          url.host = host;
          url.path = "/segment000" + std::to_string(i % 8);
          testbed.ue().resolve_and_fetch(
              url, [&](const ran::UserEquipment::FetchOutcome& outcome) {
                if (!outcome.ok) {
                  ++stats.failures;
                  return;
                }
                stats.dns_ms.add(outcome.dns_latency.to_millis());
                stats.total_ms.add(outcome.total.to_millis());
              });
        });
    testbed.network().simulator().run();
  }
  return stats;
}

/// One campaign job: a private testbed resolving either the edge-deployed
/// or the parent-tier-only name. The historical version reused one testbed
/// for both phases, so the referred phase inherited the edge phase's
/// resolver caches and RNG position.
PathStats run_path(bool edge_content, std::uint64_t seed) {
  core::Fig5Testbed::Config config;
  config.deployment = core::Fig5Deployment::kMecLdnsMecCdns;
  config.seed = seed;
  config.provider_fallback = true;
  core::Fig5Testbed testbed(config);
  testbed.ue().resolver().set_chase_cnames(true);
  return run(testbed,
             edge_content ? testbed.content_name() : testbed.tier2_name(),
             30);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_ablation_tier_referral: A5 multi-tier miss referral");
  core::Campaign campaign(args, {});
  if (!campaign.parse(argc, argv)) return 2;
  const auto outcomes = campaign.run<PathStats>(
      {"edge path", "referred path"},
      [&](std::size_t index, core::JobArtifacts&) {
        return run_path(index == 0, campaign.job_seed(index));
      });
  if (campaign.exit_code() != 0) return 1;
  const PathStats& edge = outcomes[0].value;
  const PathStats& referred = outcomes[1].value;

  std::printf("=== A5: edge-deployed vs parent-tier-referred content ===\n");
  std::printf("%-44s %10s %12s %10s\n", "content", "dns(ms)", "dns+get(ms)",
              "failures");
  std::printf("%-44s %10.1f %12.1f %10zu\n",
              "demo1 (deployed at MEC, first-hop answer)",
              edge.dns_ms.mean(), edge.total_ms.mean(), edge.failures);
  std::printf("%-44s %10.1f %12.1f %10zu\n",
              "demo2 (cloud-tier only, cascading CNAME)",
              referred.dns_ms.mean(), referred.total_ms.mean(),
              referred.failures);

  std::printf(
      "\nreferral penalty: +%.1f ms DNS, +%.1f ms end-to-end (two "
      "resolution legs plus the WAN fetch)\n",
      referred.dns_ms.mean() - edge.dns_ms.mean(),
      referred.total_ms.mean() - edge.total_ms.mean());
  std::printf(
      "expected shape: the referral keeps misses *correct* (served by the "
      "parent tier) at WAN cost,\nwhile edge-deployed content keeps the "
      "MEC latency envelope — the paper's best-effort story.\n");
  return 0;
}
