#pragma once

// Chrome trace-event exporter: turns a query's span snapshot plus the
// sampler's time series into the JSON object format understood by
// Perfetto / chrome://tracing. One process ("pid") per query; one thread
// track per simulated node (resolved from the "node" / "storage_node" /
// "track" tags on each span's ancestor chain) plus a "control" track for
// the root and supervisor spans; counter tracks ("C" events) from the
// time series; flow events ("s"/"f") for every cross-track structural
// edge and every link edge, so fetches and h1 transfers render as arrows
// between node tracks.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"

namespace orv::obs {

/// One query's worth of trace data, exported as one pid.
struct ChromeTraceQuery {
  std::string label;                  // process_name metadata
  std::vector<SpanRecord> spans;      // one Tracer snapshot
  std::vector<TimeSeries> series;     // sampler counter tracks
};

/// Writes {"schemaVersion": 3, "displayTimeUnit": "ms", "traceEvents":
/// [...], "openSpans": n} query by query, one pid per query, in trace
/// microseconds. Open spans are counted but not emitted, so a well-formed
/// file has openSpans == 0. take() returns the bytes written since the
/// last take(); trailer() closes the document as it stands (DocumentFile).
class ChromeTraceStream {
 public:
  ChromeTraceStream();

  void add(const ChromeTraceQuery& q);
  std::string take() { return w_.take(); }
  std::string trailer() const;

 private:
  JsonWriter w_;
  std::uint64_t pid_ = 0;
  std::size_t open_spans_ = 0;
};

/// The whole document over `queries`, the same bytes a stream gives.
std::string chrome_trace_json(const std::vector<ChromeTraceQuery>& queries);

}  // namespace orv::obs
