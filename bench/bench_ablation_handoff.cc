// Ablation A4: DNS re-targeting on cellular handoff.
//
// §3 P1: switching the UE's target DNS to the new base station's MEC DNS
// "can be performed ... as part of the cellular hand-off process". This
// bench moves a UE from cell A to cell B and compares:
//   retarget — the handoff also re-points the stub at cell B's MEC L-DNS
//   sticky   — the stub keeps using cell A's L-DNS across the inter-site
//              backhaul (what happens without the paper's integration)
// measuring DNS latency and whether answers stay on the local site's caches.
#include <cstdio>
#include <memory>

#include "core/campaign.h"
#include "core/experiment.h"
#include "core/mec_cdn.h"
#include "ran/handoff.h"
#include "ran/profiles.h"
#include "ran/segment.h"
#include "ran/ue.h"
#include "util/args.h"

using namespace mecdns;

namespace {

struct TwoCellWorld {
  simnet::Simulator sim;
  std::unique_ptr<simnet::Network> net;
  std::unique_ptr<ran::RanSegment> cell_a;
  std::unique_ptr<ran::RanSegment> cell_b;
  std::unique_ptr<core::MecCdnSite> site_a;
  std::unique_ptr<core::MecCdnSite> site_b;
  std::unique_ptr<ran::UserEquipment> ue;
  std::unique_ptr<ran::HandoffManager> handoff;

  explicit TwoCellWorld(std::uint64_t seed) {
    net = std::make_unique<simnet::Network>(sim, util::Rng(seed));
    const simnet::NodeId backbone = net->add_node(
        "backbone", simnet::Ipv4Address::must_parse("192.0.2.1"));

    const auto make_cell = [&](const std::string& name,
                               const std::string& pgw_ip,
                               const std::string& prefix)
        -> std::pair<std::unique_ptr<ran::RanSegment>,
                     std::unique_ptr<core::MecCdnSite>> {
      ran::RanSegment::Config rc;
      rc.name = name;
      rc.enb_addr = simnet::Ipv4Address::must_parse(prefix + ".0.1");
      rc.sgw_addr = simnet::Ipv4Address::must_parse(prefix + ".0.2");
      rc.pgw_addr = simnet::Ipv4Address::must_parse(pgw_ip);
      rc.ue_subnet = simnet::Cidr::must_parse("10.45.0.0/16");
      rc.access = ran::lte();
      auto segment = std::make_unique<ran::RanSegment>(*net, rc);
      net->add_link(segment->pgw(), backbone, ran::wan_link(4.0));

      core::MecCdnSite::Config sc;
      sc.orchestrator.cluster.name = name + "-mec";
      // Distinct node/service CIDRs per site.
      sc.orchestrator.cluster.node_cidr =
          simnet::Cidr::must_parse(prefix + ".64.0/24");
      sc.orchestrator.cluster.service_cidr =
          simnet::Cidr::must_parse(prefix + ".128.0/20");
      sc.answer_ttl = 0;
      auto site = std::make_unique<core::MecCdnSite>(*net, sc);
      net->add_link(segment->pgw(), site->orchestrator().cluster().gateway(),
                    simnet::LatencyModel::constant(
                        simnet::SimTime::millis(0.5)));
      return {std::move(segment), std::move(site)};
    };

    std::tie(cell_a, site_a) = make_cell("cell-a", "203.0.113.1", "10.101");
    std::tie(cell_b, site_b) = make_cell("cell-b", "203.0.114.1", "10.102");
    // Inter-site backhaul (the sticky path rides this).
    net->add_link(cell_a->pgw(), cell_b->pgw(), ran::wan_link(8.0));

    cdn::ContentCatalog catalog;
    catalog.add_series(
        dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"), "seg", 8,
        1 << 20);
    site_a->add_delivery_service("demo1", catalog);
    site_b->add_delivery_service("demo1", catalog);

    ue = std::make_unique<ran::UserEquipment>(
        *net, *cell_a, "ue", simnet::Ipv4Address::must_parse("10.45.0.2"),
        site_a->ldns_endpoint());
    // Pre-create the air link to cell B (down until handoff).
    const simnet::LinkId link_b = net->add_link(
        ue->node(), cell_b->enb(), ran::lte().uplink, ran::lte().downlink);
    net->set_link_up(link_b, false);

    handoff = std::make_unique<ran::HandoffManager>(*net, *ue);
    handoff->add_cell(ran::HandoffManager::Cell{
        "cell-a", cell_a.get(), cell_a->ue_link(ue->node()),
        site_a->ldns_endpoint()});
    handoff->add_cell(ran::HandoffManager::Cell{
        "cell-b", cell_b.get(), link_b, site_b->ldns_endpoint()});
    handoff->attach(0);
  }
};

struct Phase {
  double mean_ms;
  double local_share;  ///< answers on the *current* cell's caches
};

Phase measure(TwoCellWorld& world, core::MecCdnSite& local_site) {
  core::QueryRunner runner(*world.net, world.ue->resolver(), nullptr);
  core::QueryRunner::Options options;
  options.queries = 30;
  options.warmup = 1;
  options.spacing = simnet::SimTime::millis(500);
  const core::SeriesResult result = runner.run(
      dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
      dns::RecordType::kA, options);
  Phase phase;
  phase.mean_ms = result.totals().mean();
  phase.local_share = result.answer_share([&](simnet::Ipv4Address a) {
    for (std::size_t i = 0; i < local_site.site_config().edge_caches; ++i) {
      if (local_site.cache_address(i) == a) return true;
    }
    return false;
  });
  return phase;
}

/// One campaign job: a private two-cell world running the before-handoff
/// phase and then the after-handoff phase with or without DNS re-targeting.
struct HandoffResult {
  Phase before;
  Phase after;
};

HandoffResult run_world(bool retarget, std::uint64_t seed) {
  TwoCellWorld world(seed);
  HandoffResult result;
  result.before = measure(world, *world.site_a);
  world.handoff->attach(1, retarget);
  result.after = measure(world, *world.site_b);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_ablation_handoff: A4 DNS re-targeting on cellular handoff");
  core::Campaign campaign(args, {.seed = 11});
  if (!campaign.parse(argc, argv)) return 2;
  const auto outcomes = campaign.run<HandoffResult>(
      {"re-target world", "sticky world"},
      [&](std::size_t index, core::JobArtifacts&) {
        return run_world(index == 0, campaign.job_seed(index));
      });
  if (campaign.exit_code() != 0) return 1;

  std::printf("=== A4: DNS re-target on handoff vs sticky L-DNS ===\n");
  std::printf("%-40s %10s %14s\n", "phase", "mean(ms)", "local answers");
  const Phase& before = outcomes[0].value.before;
  std::printf("%-40s %10.1f %13.0f%%\n", "cell A, MEC L-DNS A",
              before.mean_ms, 100 * before.local_share);
  const Phase& retarget = outcomes[0].value.after;
  std::printf("%-40s %10.1f %13.0f%%\n",
              "cell B after handoff, re-targeted to B", retarget.mean_ms,
              100 * retarget.local_share);
  const Phase& sticky = outcomes[1].value.after;
  std::printf("%-40s %10.1f %13.0f%%\n",
              "cell B after handoff, sticky L-DNS A", sticky.mean_ms,
              100 * sticky.local_share);
  std::printf(
      "\nexpected shape: re-targeting keeps first-hop latency and 100%% "
      "local cache answers;\nthe sticky resolver pays the inter-site "
      "backhaul and is served by the old site's caches\n");
  return 0;
}
