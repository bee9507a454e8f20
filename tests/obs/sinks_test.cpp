// Sink files: SinkFile appends each record once and rewrites only the
// trailer (growing, shrinking and absent trailers), the streamed profile
// and Chrome trace documents are complete JSON after every record and
// end byte-equal to the whole-document output, and a test can hand the
// writers its own Sinks value.

#include "obs/sinks.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/tempdir.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/profile.hpp"

namespace orv::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// True when `doc` is one complete JSON object or array: brackets balance
/// outside strings, close only what is open, and the outermost one closes
/// at the last non-whitespace byte.
bool is_complete_json(const std::string& doc) {
  std::vector<char> open;
  bool in_string = false;
  bool escaped = false;
  std::size_t closed_at = std::string::npos;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (closed_at != std::string::npos) {
      if (c != '\n' && c != ' ') return false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      open.push_back(c == '{' ? '}' : ']');
    } else if (c == '}' || c == ']') {
      if (open.empty() || open.back() != c) return false;
      open.pop_back();
      if (open.empty()) closed_at = i;
    }
  }
  return !in_string && closed_at != std::string::npos;
}

TEST(SinkFile, AppendsRecordsOnceAndRewritesOnlyTheTrailer) {
  TempDir dir("sink");
  const std::string path = dir.file("doc.txt").string();
  SinkFile f(path);
  ASSERT_TRUE(f.enabled());
  f.append("[", "]");
  EXPECT_EQ(read_file(path), "[]");
  f.append("1", "] (one)");
  EXPECT_EQ(read_file(path), "[1] (one)");
  f.append(",22", "]");  // a shorter trailer: the stale tail is cut
  EXPECT_EQ(read_file(path), "[1,22]");
  f.append("", "] (end)");
  EXPECT_EQ(read_file(path), "[1,22] (end)");
  EXPECT_EQ(f.records(), 4u);
}

TEST(SinkFile, TrailerFreeStreamIsPlainAppend) {
  TempDir dir("sink");
  const std::string path = dir.file("lines.jsonl").string();
  SinkFile f(path);
  f.append("{\"a\":1}\n");
  f.append("{\"a\":2}\n");
  EXPECT_EQ(read_file(path), "{\"a\":1}\n{\"a\":2}\n");
}

TEST(SinkFile, UnopenablePathDisablesTheSink) {
  TempDir dir("sink");
  SinkFile f(dir.file("missing/dir/doc.json").string());
  EXPECT_FALSE(f.enabled());
  f.append("x", "y");  // no-op
  EXPECT_EQ(f.records(), 0u);
  EXPECT_FALSE(write_file(dir.file("missing/dir/snap.txt").string(), "x"));
}

TEST(SinkFile, DocumentFileWithoutPathIsOff) {
  DocumentFile<ProfileStream> off("");
  EXPECT_FALSE(off.enabled());
  off.add(ExecutionProfile{});  // renders and writes nothing
}

ExecutionProfile profile(const std::string& query, double elapsed) {
  ExecutionProfile p;
  p.query = query;
  p.algorithm = "IndexedJoin";
  p.elapsed = elapsed;
  p.stages.push_back(StageTime{"ij.probe", elapsed / 2, 3, 0.1, 0.2, 0.3});
  p.counters.emplace_back("bds.subtables", 12);
  p.has_plan = true;
  p.plan.chosen = "IndexedJoin";
  p.plan.executed = "IndexedJoin";
  p.plan.predicted = elapsed * 0.9;
  p.plan.measured = elapsed;
  return p;
}

TEST(StreamedSinks, ProfileFileIsCompleteAfterEveryProfile) {
  TempDir dir("sink");
  const std::string path = dir.file("profile.json").string();
  const std::vector<ExecutionProfile> profiles = {
      profile("fig4#0", 1.5), profile("fig4#0", 2.25), profile("fig4#1", 3)};
  DocumentFile<ProfileStream> file(path);
  ASSERT_TRUE(file.enabled());
  EXPECT_EQ(read_file(path), "{\"schema_version\":3,\"profiles\":[]}\n");
  // The whole-document form the report always had: every profile, comma
  // separated, inside one versioned object.
  std::string body;
  for (const ExecutionProfile& p : profiles) {
    file.add(p);
    if (!body.empty()) body += ',';
    body += p.to_json();
    const std::string doc = read_file(path);
    EXPECT_TRUE(is_complete_json(doc)) << doc;
    EXPECT_EQ(doc, "{\"schema_version\":3,\"profiles\":[" + body + "]}\n");
  }
}

SpanRecord span(std::uint32_t id, std::uint32_t parent, const char* name,
                double start, double end, const char* node = nullptr,
                std::uint32_t link = 0) {
  SpanRecord s;
  s.id = SpanId{id};
  s.parent = SpanId{parent};
  s.link = SpanId{link};
  s.name = name;
  s.start = start;
  s.end = end;
  if (node != nullptr) s.tags.emplace_back("node", node);
  return s;
}

/// One query's trace data: a root, work on two compute nodes, a
/// cross-node link, an open span and an occupancy counter track.
ChromeTraceQuery trace_query(std::string label, double t0) {
  ChromeTraceQuery q;
  q.label = std::move(label);
  q.spans = {span(1, 0, "query", t0, t0 + 1),
             span(2, 1, "ij.fetch", t0, t0 + 0.5, "0"),
             span(3, 1, "ij.probe", t0 + 0.5, t0 + 0.9, "1", /*link=*/2),
             span(4, 1, "ij.wait", t0 + 0.9, -1, "1")};
  q.series = {TimeSeries{"occupancy.compute_cpu",
                         {{t0, 0.25}, {t0 + 0.5, 0.75}}}};
  return q;
}

TEST(StreamedSinks, TraceFileIsCompleteAfterEveryQuery) {
  TempDir dir("sink");
  const std::string path = dir.file("trace.json").string();
  const std::vector<ChromeTraceQuery> queries = {
      trace_query("q0/ij", 0), trace_query("q0/gh", 2),
      trace_query("q1/ij", 5)};
  DocumentFile<ChromeTraceStream> file(path);
  EXPECT_EQ(read_file(path), chrome_trace_json({}));
  for (std::size_t k = 0; k < queries.size(); ++k) {
    file.add(queries[k]);
    const std::string doc = read_file(path);
    EXPECT_TRUE(is_complete_json(doc)) << doc;
    // Each query's open span is counted in the rewritten trailer.
    EXPECT_NE(doc.find("\"openSpans\":" + std::to_string(k + 1) + "}"),
              std::string::npos);
    EXPECT_EQ(doc, chrome_trace_json({queries.begin(),
                                      queries.begin() + k + 1}));
  }
}

}  // namespace
}  // namespace orv::obs
