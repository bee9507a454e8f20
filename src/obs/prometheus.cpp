#include "obs/prometheus.hpp"

#include <cmath>
#include <map>

#include "common/strings.hpp"

namespace orv::obs {

namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "+Inf" : (v < 0 ? "-Inf" : "NaN");
  return strformat("%.9g", v);
}

void type_line(std::string& out, const std::string& family,
               const char* type) {
  out += "# TYPE " + family + " " + type + "\n";
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) out += name_char_ok(c) ? c : '_';
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

std::string prometheus_text(const MetricsSnapshot& snap,
                            const std::vector<SpanRecord>& spans,
                            std::string_view prefix) {
  const std::string pfx = std::string(prefix) + "_";
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string family = pfx + prometheus_name(name) + "_total";
    type_line(out, family, "counter");
    out += family + " " + strformat("%llu", (unsigned long long)v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string family = pfx + prometheus_name(name);
    type_line(out, family, "gauge");
    out += family + " " + fmt_double(v) + "\n";
  }
  std::map<std::string, Histogram, std::less<>> stages;
  std::string key;
  for (const SpanRecord& span : spans) {
    if (!span.closed()) continue;
    key.assign(span.name).append("_seconds");
    stages.try_emplace(key, duration_bounds())
        .first->second.observe(span.duration());
  }
  for (const auto& [name, h] : stages) {
    const std::string family = pfx + prometheus_name(name);
    type_line(out, family, "histogram");
    const std::vector<std::uint64_t> counts = h.bucket_counts();
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.bounds().size(); ++b) {
      cum += counts[b];
      out += family + "_bucket{le=\"" + fmt_double(h.bounds()[b]) + "\"} " +
             strformat("%llu", (unsigned long long)cum) + "\n";
    }
    out += family + "_bucket{le=\"+Inf\"} " +
           strformat("%llu", (unsigned long long)h.count()) + "\n";
    out += family + "_sum " + fmt_double(h.sum()) + "\n";
    out += family + "_count " +
           strformat("%llu", (unsigned long long)h.count()) + "\n";
  }
  return out;
}

}  // namespace orv::obs
