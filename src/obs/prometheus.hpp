#pragma once

// Prometheus-style text exposition (version 0.0.4) of a metrics snapshot,
// next to the JSON exporter. Instrument names are sanitized to the
// Prometheus charset (dots become underscores) and prefixed; counters and
// gauges are unlabeled series, and histograms emit cumulative le-labeled
// buckets.

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace orv::obs {

/// Sanitizes one metric name: [a-zA-Z0-9_] kept, everything else becomes
/// '_'; a leading digit is prefixed with '_'.
std::string prometheus_name(std::string_view name);

/// Renders the whole snapshot in text exposition format. Every metric
/// family is prefixed with "<prefix>_" (default "orv").
std::string prometheus_text(const MetricsSnapshot& snap,
                            std::string_view prefix = "orv");

}  // namespace orv::obs
