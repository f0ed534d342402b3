// core::ParallelCampaign: the determinism contract.
//
// The engine promises that a campaign's merged output is byte-identical
// for any worker count — each job's result is a pure function of
// (campaign_seed, job_index), results land in fixed slots, and a failing
// job fills its own slot's error without disturbing any other job. These
// tests drive a 12-job grid of real (tiny) simulations through workers
// {1, 2, 8} and compare the serialized results byte for byte. The
// campaign harness built on it (core/campaign.h) is pinned below: artifact
// naming, the prefixed metrics merge, and the write-failure policy.
#include "core/parallel.h"

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.h"

#include "simnet/network.h"
#include "simnet/simulator.h"
#include "util/rng.h"

namespace mecdns::core {
namespace {

constexpr std::uint64_t kCampaignSeed = 2024;
constexpr std::size_t kJobs = 12;
constexpr std::size_t kFailingJob = 5;

/// One tiny but real simulation: a private Simulator/Network/Rng per job,
/// a few scheduled events, and a digest of the RNG stream — enough state
/// that any cross-job interference or seed drift changes the output.
std::string run_job(std::size_t index) {
  if (index == kFailingJob) {
    throw std::runtime_error("synthetic failure in job " +
                             std::to_string(index));
  }
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(job_seed(kCampaignSeed, index)));
  util::Rng rng(job_seed(kCampaignSeed, index));
  std::uint64_t digest = 0;
  for (int event = 0; event < 8; ++event) {
    sim.schedule_at(simnet::SimTime::millis(event + 1),
                    [&digest, &rng, event] {
                      digest = digest * 1099511628211ull ^ rng.next() ^
                               static_cast<std::uint64_t>(event);
                    });
  }
  sim.run();
  return "job" + std::to_string(index) + ":" + std::to_string(digest) + ":" +
         std::to_string(sim.now().to_millis());
}

/// Runs the grid at `workers` and serializes the outcome vector in job
/// order, exactly as the benches' merge phase does.
std::string merged_output(std::size_t workers) {
  const ParallelCampaign campaign(workers);
  const auto outcomes = campaign.run<std::string>(kJobs, run_job);
  std::string merged;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    merged += outcomes[i].ok ? outcomes[i].value
                             : "error(" + outcomes[i].error + ")";
    merged += '\n';
  }
  return merged;
}

TEST(ParallelCampaign, MergedOutputIsByteIdenticalAcrossWorkerCounts) {
  const std::string serial = merged_output(1);
  EXPECT_EQ(serial, merged_output(2));
  EXPECT_EQ(serial, merged_output(8));
}

TEST(ParallelCampaign, FailingJobFillsItsSlotWithoutDisturbingOthers) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    const ParallelCampaign campaign(workers);
    const auto outcomes = campaign.run<std::string>(kJobs, run_job);
    ASSERT_EQ(outcomes.size(), kJobs);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i == kFailingJob) {
        EXPECT_FALSE(outcomes[i].ok);
        EXPECT_EQ(outcomes[i].error, "synthetic failure in job 5");
        EXPECT_TRUE(outcomes[i].value.empty());
      } else {
        EXPECT_TRUE(outcomes[i].ok) << "job " << i << ": "
                                    << outcomes[i].error;
        EXPECT_EQ(outcomes[i].value, run_job(i)) << "job " << i;
      }
    }
  }
}

TEST(ParallelCampaign, RunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  const ParallelCampaign campaign(8);
  campaign.run_indexed(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

TEST(JobSeed, IsAPureFunctionAndDistinctAcrossJobsAndCampaigns) {
  EXPECT_EQ(job_seed(42, 3), job_seed(42, 3));
  // Distinct per job and per campaign seed (SplitMix64 is bijective, so
  // collisions here would mean equal inputs).
  EXPECT_NE(job_seed(42, 0), job_seed(42, 1));
  EXPECT_NE(job_seed(42, 0), job_seed(43, 0));
  // Matches the documented derivation.
  EXPECT_EQ(job_seed(42, 7), split_mix64(42ull ^ 7ull));
  // Zero inputs must not degenerate to zero (SplitMix64 of 0 is mixed).
  EXPECT_NE(job_seed(0, 0), 0u);
}

TEST(ResolveWorkers, PassesThroughPositiveAndDefaultsOtherwise) {
  EXPECT_EQ(resolve_workers(1), 1u);
  EXPECT_EQ(resolve_workers(7), 7u);
  EXPECT_GE(resolve_workers(0), 1u);
  EXPECT_GE(resolve_workers(-3), 1u);
}

TEST(WithSlug, InsertsTheJobNameBeforeTheExtension) {
  EXPECT_EQ(with_slug("trace.json", "airbnb.wired-campus"),
            "trace.airbnb.wired-campus.json");
  EXPECT_EQ(with_slug("out/trace.json", "mec-mec"), "out/trace.mec-mec.json");
}

TEST(WithSlug, AppendsWhenThereIsNoExtension) {
  EXPECT_EQ(with_slug("trace", "mec-mec"), "trace.mec-mec");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(with_slug("out.d/trace", "mec-mec"), "out.d/trace.mec-mec");
}

TEST(WithSlug, MapsSlashesInTheJobNameToDots) {
  EXPECT_EQ(with_slug("series.json", "flash-crowd/robust"),
            "series.flash-crowd.robust.json");
  EXPECT_EQ(with_slug("out.d/journal", "cache-wipe/fragile"),
            "out.d/journal.cache-wipe.fragile");
}

TEST(WithSlug, LeavesThePathAloneForAnUnnamedJob) {
  EXPECT_EQ(with_slug("trace.json", ""), "trace.json");
}

obs::Registry sample_registry(std::uint64_t count, double gauge,
                              double latency_ms) {
  obs::Registry r;
  r.add("queries", count);
  r.set_gauge("depth", gauge);
  r.histogram("lookup_ms").add(latency_ms);
  return r;
}

TEST(MergePrefixed, KeepsRunsSideBySide) {
  obs::Registry combined;
  merge_prefixed(combined, "mec-mec", sample_registry(3, 2.0, 10.0));
  merge_prefixed(combined, "google", sample_registry(5, 1.0, 90.0));
  EXPECT_EQ(combined.counter_value("mec-mec.queries"), 3u);
  EXPECT_EQ(combined.counter_value("google.queries"), 5u);
  EXPECT_EQ(combined.gauge_value("mec-mec.depth"), 2.0);
  EXPECT_EQ(combined.gauge_value("google.depth"), 1.0);
  ASSERT_NE(combined.find_histogram("mec-mec.lookup_ms"), nullptr);
  ASSERT_NE(combined.find_histogram("google.lookup_ms"), nullptr);
  EXPECT_EQ(combined.find_histogram("mec-mec.lookup_ms")->count(), 1u);
  EXPECT_EQ(combined.find_histogram("google.lookup_ms")->max(),
            sample_registry(5, 1.0, 90.0).find_histogram("lookup_ms")->max());
  EXPECT_EQ(combined.counters().count("queries"), 0u);
}

TEST(MergePrefixed, AddsIntoAnExistingPrefix) {
  obs::Registry combined;
  merge_prefixed(combined, "cell", sample_registry(3, 2.0, 10.0));
  merge_prefixed(combined, "cell", sample_registry(4, 1.0, 20.0));
  EXPECT_EQ(combined.counter_value("cell.queries"), 7u);
  EXPECT_EQ(combined.gauge_value("cell.depth"), 1.0);  // last write
  EXPECT_EQ(combined.find_histogram("cell.lookup_ms")->count(), 2u);
}

TEST(MergePrefixed, EmptyPrefixIsAPlainMerge) {
  obs::Registry combined;
  merge_prefixed(combined, "", sample_registry(3, 2.0, 10.0));
  merge_prefixed(combined, "", sample_registry(4, 1.0, 20.0));
  obs::Registry plain = sample_registry(3, 2.0, 10.0);
  plain.merge(sample_registry(4, 1.0, 20.0));
  EXPECT_EQ(combined.to_json(), plain.to_json());
}

/// A campaign over `names` whose jobs record one counter and one trace
/// body; the job named "bad" throws.
int run_small_campaign(const std::vector<const char*>& argv,
                       const std::vector<std::string>& names) {
  util::ArgParser args("campaign test");
  Campaign campaign(args, {.flags = kTraceOut | kMetricsOut,
                           .prefix_metrics = true});
  EXPECT_TRUE(
      campaign.parse(static_cast<int>(argv.size()), argv.data()));
  campaign.run<int>(names, [&names](std::size_t i, JobArtifacts& artifacts) {
    if (names[i] == "bad") throw std::runtime_error("synthetic failure");
    artifacts.trace_json = "{\"job\": " + std::to_string(i) + "}";
    artifacts.metrics.add("jobs");
    return 0;
  });
  return campaign.exit_code();
}

std::string read_file(const std::string& path) {
  std::string body;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[256];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
      body.append(buf, n);
    }
    std::fclose(f);
  }
  return body;
}

TEST(Campaign, WritesPerJobFilesAndPrefixedMetrics) {
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "campaign_ok_trace.json";
  const std::string metrics = dir + "campaign_ok_metrics.json";
  EXPECT_EQ(run_small_campaign({"prog", "--trace-out", trace.c_str(),
                                "--metrics-out", metrics.c_str()},
                               {"a", "b/c"}),
            0);
  EXPECT_EQ(read_file(dir + "campaign_ok_trace.a.json"), "{\"job\": 0}");
  EXPECT_EQ(read_file(dir + "campaign_ok_trace.b.c.json"), "{\"job\": 1}");
  const std::string merged = read_file(metrics);
  EXPECT_NE(merged.find("\"a.jobs\":1"), std::string::npos) << merged;
  EXPECT_NE(merged.find("\"b/c.jobs\":1"), std::string::npos) << merged;
}

TEST(Campaign, UnwritableArtifactFailsTheRun) {
  EXPECT_EQ(run_small_campaign({"prog", "--metrics-out", "/dev/full"},
                               {"a", "b"}),
            1);
  // An unnamed job writes to the flag's path as given.
  EXPECT_EQ(run_small_campaign({"prog", "--trace-out", "/dev/full"}, {""}),
            1);
  util::ArgParser args("campaign test");
  Campaign campaign(args, {});
  EXPECT_FALSE(campaign.write("/dev/full", "{}"));
  EXPECT_EQ(campaign.exit_code(), 1);
}

TEST(Campaign, FailedJobFailsTheRunButTheRestIsWritten) {
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "campaign_partial.json";
  EXPECT_EQ(run_small_campaign({"prog", "--trace-out", trace.c_str()},
                               {"good", "bad"}),
            1);
  EXPECT_EQ(read_file(dir + "campaign_partial.good.json"), "{\"job\": 0}");
  EXPECT_EQ(read_file(dir + "campaign_partial.bad.json"), "");
}

}  // namespace
}  // namespace mecdns::core
