// Ablation A6: C-DNS answer TTL — per-query routing vs L-DNS caching.
//
// The testbed (and real CDN routers) answer with tiny TTLs so every lookup
// reaches the C-DNS and routing stays per-query accurate. At the MEC this
// costs little (the C-DNS is one fabric hop away), but it also means the
// MEC L-DNS cache plugin never helps. This bench sweeps the answer TTL and
// reports mean lookup latency, the L-DNS cache hit rate, and routing
// staleness: after a cache server is drained mid-run, how many answers
// still point at it.
#include <cstdio>
#include <vector>

#include "core/campaign.h"
#include "core/fig5.h"
#include "util/args.h"

using namespace mecdns;

namespace {

struct TtlOutcome {
  double mean_ms;
  double cache_hit_rate;
  double stale_share;  ///< answers naming the drained cache, post-drain
};

TtlOutcome run(std::uint32_t ttl, std::uint64_t seed) {
  core::Fig5Testbed::Config config;
  config.deployment = core::Fig5Deployment::kMecLdnsMecCdns;
  config.seed = seed;
  core::Fig5Testbed testbed(config);
  cdn::TrafficRouter* router = testbed.site().router();
  router->set_answer_ttl(ttl);

  // Phase 1: 40 queries.
  const core::SeriesResult phase1 = testbed.measure(40,
                                                    simnet::SimTime::seconds(1));
  // Drain one cache (scale-in / maintenance) and measure which answers are
  // stale.
  const simnet::Ipv4Address drained_addr = testbed.site().cache_address(0);
  router->set_cache_healthy("mec-edge",
                            testbed.site().caches()[0]->name(), false);
  const core::SeriesResult phase2 = testbed.measure(40,
                                                    simnet::SimTime::seconds(1));

  TtlOutcome outcome;
  util::SampleSet all;
  all.add_all(phase1.totals().values());
  all.add_all(phase2.totals().values());
  outcome.mean_ms = all.mean();
  outcome.cache_hit_rate =
      testbed.site().public_dns_cache()->stats().hit_rate();
  std::size_t stale = 0;
  std::size_t total = 0;
  for (const auto& sample : phase2.samples) {
    if (!sample.ok) continue;
    ++total;
    if (sample.address == drained_addr) ++stale;
  }
  outcome.stale_share = total == 0 ? 0.0 : static_cast<double>(stale) / total;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_ablation_ttl: A6 C-DNS answer TTL sweep");
  core::Campaign campaign(args, {});
  if (!campaign.parse(argc, argv)) return 2;
  const std::vector<std::uint32_t> ttls = {0u, 2u, 10u, 60u, 300u};
  std::vector<std::string> names;
  for (const std::uint32_t ttl : ttls) {
    names.push_back("ttl=" + std::to_string(ttl));
  }
  const auto outcomes = campaign.run<TtlOutcome>(
      names, [&](std::size_t index, core::JobArtifacts&) {
        return run(ttls[index], campaign.job_seed(index));
      });

  std::printf("=== A6: C-DNS answer TTL sweep (1 query/s, drain mid-run) ===\n");
  std::printf("%8s %10s %12s %14s\n", "ttl(s)", "mean(ms)", "L-DNS hits",
              "stale answers");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) continue;
    const TtlOutcome& outcome = outcomes[i].value;
    std::printf("%8u %10.1f %11.0f%% %13.0f%%\n", ttls[i], outcome.mean_ms,
                100.0 * outcome.cache_hit_rate, 100.0 * outcome.stale_share);
  }
  std::printf(
      "\nexpected shape: higher TTLs shave the in-MEC C-DNS hop off most "
      "lookups (small win) but leave\na growing share of answers pointing "
      "at a drained cache — the per-query-routing trade the paper's\n"
      "testbed resolves in favour of TTL~0, which is cheap when the C-DNS "
      "is one fabric hop away.\n");
  return campaign.exit_code();
}
