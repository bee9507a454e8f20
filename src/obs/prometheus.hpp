#pragma once

// Prometheus-style text exposition (version 0.0.4) of a metrics snapshot
// and the spans of the same run, next to the JSON exporter. Instrument
// names are sanitized to the Prometheus charset (dots become underscores)
// and prefixed; counters and gauges are unlabeled series. Stage durations
// become histograms at export: one "<span name>_seconds" family per span
// name over every closed span, with cumulative le-labeled buckets at
// duration_bounds().

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace orv::obs {

/// Sanitizes one metric name: [a-zA-Z0-9_] kept, everything else becomes
/// '_'; a leading digit is prefixed with '_'.
std::string prometheus_name(std::string_view name);

/// Renders the counters and gauges of `snap`, then the stage histograms
/// of `spans` in name order, in text exposition format. Every metric
/// family is prefixed with "<prefix>_" (default "orv").
std::string prometheus_text(const MetricsSnapshot& snap,
                            const std::vector<SpanRecord>& spans = {},
                            std::string_view prefix = "orv");

}  // namespace orv::obs
