#include "core/experiment.h"

#include <memory>

namespace mecdns::core {

util::SampleSet SeriesResult::totals() const {
  util::SampleSet set;
  for (const auto& s : samples) {
    if (s.ok) set.add(s.total_ms);
  }
  return set;
}

util::SampleSet SeriesResult::wireless() const {
  util::SampleSet set;
  for (const auto& s : samples) {
    if (s.ok && s.breakdown_valid) set.add(s.wireless_ms);
  }
  return set;
}

util::SampleSet SeriesResult::beyond_pgw() const {
  util::SampleSet set;
  for (const auto& s : samples) {
    if (s.ok && s.breakdown_valid) set.add(s.beyond_pgw_ms);
  }
  return set;
}

std::size_t SeriesResult::failures() const {
  std::size_t n = 0;
  for (const auto& s : samples) {
    if (!s.ok) ++n;
  }
  return n;
}

double SeriesResult::answer_share(
    const std::function<bool(simnet::Ipv4Address)>& pred) const {
  std::size_t ok = 0;
  std::size_t match = 0;
  for (const auto& s : samples) {
    if (!s.ok) continue;
    ++ok;
    if (pred(s.address)) ++match;
  }
  return ok == 0 ? 0.0 : static_cast<double>(match) / static_cast<double>(ok);
}

SeriesResult QueryRunner::run(const dns::DnsName& name, dns::RecordType type,
                              const Options& options) {
  auto result = std::make_shared<SeriesResult>();
  const std::size_t total = options.warmup + options.queries;
  const std::string qname_text = name.to_string();

  for (std::size_t i = 0; i < total; ++i) {
    const simnet::SimTime at =
        net_.now() + options.spacing * static_cast<std::int64_t>(i + 1);
    const bool measured = i >= options.warmup;
    net_.simulator().schedule_at(at, [this, name, type, options, result,
                                      measured, qname_text] {
      // Root span for this lookup; the stub, transport, server and cache
      // stages all nest under it via the ambient token.
      obs::SpanRef root =
          obs::begin_root_span(trace_, "runner",
                               [&] { return "query " + qname_text; });
      auto handle = [this, result, measured, qname_text,
                     root](const dns::StubResult& stub_result) {
        root.tag("rcode", dns::to_string(stub_result.rcode));
        // Failed lookups survive any trace-sampling rate (tail keep).
        if (!stub_result.ok) root.keep();
        root.end();
        if (!measured) return;
        QuerySample sample;
        sample.ok = stub_result.ok && stub_result.address.has_value();
        sample.rcode = stub_result.rcode;
        sample.error = stub_result.error;
        if (stub_result.address.has_value()) {
          sample.address = *stub_result.address;
        }
        sample.total_ms = stub_result.latency.to_millis();
        if (tap_ != nullptr && stub_result.ok) {
          const auto crossing =
              tap_->crossing(stub_result.response.header.id, qname_text);
          if (crossing.has_value() && crossing->has_query &&
              crossing->has_response) {
            const double beyond =
                (crossing->response_seen - crossing->query_seen).to_millis();
            sample.beyond_pgw_ms = beyond;
            sample.wireless_ms = sample.total_ms - beyond;
            sample.breakdown_valid = sample.wireless_ms >= 0.0;
          }
        }
        if (metrics_ != nullptr) {
          metrics_->add("runner.queries");
          if (sample.ok) {
            metrics_->histogram("runner.lookup_ms").add(sample.total_ms);
          } else {
            metrics_->add("runner.failures");
          }
          if (sample.breakdown_valid) {
            metrics_->histogram("runner.wireless_ms").add(sample.wireless_ms);
            metrics_->histogram("runner.beyond_pgw_ms")
                .add(sample.beyond_pgw_ms);
          }
        }
        if (timeseries_ != nullptr) {
          timeseries_->add("runner.queries");
          if (sample.ok) {
            timeseries_->observe("runner.lookup_ms", sample.total_ms);
          } else {
            timeseries_->add("runner.failures");
          }
          if (sample.breakdown_valid) {
            timeseries_->observe("runner.beyond_pgw_ms",
                                 sample.beyond_pgw_ms);
          }
        }
        result->samples.push_back(std::move(sample));
      };
      obs::AmbientSpanGuard ambient(root);
      if (options.with_ecs) {
        stub_.resolve_with_ecs(name, type, options.ecs, handle);
      } else {
        stub_.resolve(name, type, handle);
      }
    });
  }
  net_.simulator().run();
  if (metrics_ != nullptr) {
    metrics_->set_gauge_max(
        "sim.events_executed",
        static_cast<double>(net_.simulator().executed()));
    metrics_->set_gauge_max(
        "sim.max_queue_depth",
        static_cast<double>(net_.simulator().max_queue_depth()));
  }
  return std::move(*result);
}

}  // namespace mecdns::core
