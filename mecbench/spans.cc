#include "spans.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "dns/wire.h"

namespace mecbench {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kSimStep: return "simnet.step";
    case SpanName::kStubIssue: return "dns.stub.issue";
    case SpanName::kRecvHandler: return "netio.recv_handler";
    case SpanName::kTimer: return "netio.timer";
    case SpanName::kSend: return "netio.send";
    case SpanName::kPluginZone: return "dns.plugin.zone";
    case SpanName::kPluginRefuse: return "dns.plugin.refuse";
    case SpanName::kWireDecode: return "dns.wire.decode";
    case SpanName::kWireEncode: return "dns.wire.encode";
    case SpanName::kZoneLookup: return "dns.zone.lookup";
  }
  return "unknown";
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id,parent,name,start_ns,end_ns,request\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0) continue;
    std::fprintf(f, "%zu,%d,%s,%lld,%lld,%llu\n", i, s.parent, to_string(s.name),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

bool read_span_totals(const std::string& path,
                      std::map<std::string, SpanTotals>& out) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return false;  // header

  struct Row {
    std::string name;
    double duration_ns = 0.0;
  };
  std::unordered_map<long long, Row> rows;
  std::unordered_map<long long, double> child_ns;  // by parent id
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string id, parent, name, start, end;
    if (!std::getline(fields, id, ',') || !std::getline(fields, parent, ',') ||
        !std::getline(fields, name, ',') || !std::getline(fields, start, ',') ||
        !std::getline(fields, end, ',')) {
      return false;
    }
    const double duration = static_cast<double>(std::stoll(end) - std::stoll(start));
    rows[std::stoll(id)] = Row{name, duration};
    if (const long long p = std::stoll(parent); p >= 0) child_ns[p] += duration;
  }
  for (const auto& [id, row] : rows) {
    SpanTotals& totals = out[row.name];
    ++totals.count;
    const auto it = child_ns.find(id);
    totals.self_ns += row.duration_ns - (it == child_ns.end() ? 0.0 : it->second);
  }
  return true;
}

double mean_self_ns(const std::map<std::string, SpanTotals>& totals,
                    const char* name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.self_ns / static_cast<double>(it->second.count);
}

void replay_wire(const std::vector<std::vector<std::uint8_t>>& messages,
                 const mecdns::dns::Zone& zone, SpanRecorder& recorder) {
  for (const auto& bytes : messages) {
    std::int32_t id = recorder.begin(SpanName::kWireDecode);
    auto decoded = mecdns::dns::decode(bytes);
    recorder.end(id);
    if (!decoded.ok() || decoded.value().questions.empty()) continue;
    id = recorder.begin(SpanName::kWireEncode);
    mecdns::dns::encode_view(decoded.value());
    recorder.end(id);
    const mecdns::dns::Question& q = decoded.value().questions.front();
    id = recorder.begin(SpanName::kZoneLookup);
    zone.lookup(q.name, q.type);
    recorder.end(id);
  }
}

}  // namespace mecbench
