#include "obs/chrome_trace.hpp"

#include <cstddef>
#include <string_view>
#include <unordered_map>

#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace orv::obs {

namespace {

constexpr double kUsPerSecond = 1e6;

/// Resolves the node track a span renders on: nearest ancestor (self
/// first) carrying a "track" tag, else "node" -> "compute <n>", else
/// "storage_node" -> "storage <n>"; spans with no tagged ancestor (the
/// root query span, the supervisor) land on "control".
std::string track_of(const TraceDag& dag, const SpanRecord& span) {
  const SpanRecord* s = &span;
  for (std::size_t hops = 0; s && hops < 64; ++hops) {
    if (const std::string* t = s->tag_value("track")) return *t;
    if (const std::string* n = s->tag_value("node")) return "compute " + *n;
    if (const std::string* n = s->tag_value("storage_node")) {
      return "storage " + *n;
    }
    s = s->parent ? dag.find(s->parent) : nullptr;
  }
  return "control";
}

class Emitter {
 public:
  explicit Emitter(JsonWriter& w) : w_(w) {}

  void emit_query(const ChromeTraceQuery& q, std::uint64_t pid,
                  std::size_t* open_spans) {
    TraceDag dag = TraceDag::assemble(q.spans);
    *open_spans += dag.open_count();

    std::unordered_map<std::string, std::uint64_t> tids;
    auto tid_of = [&](const std::string& track) {
      auto it = tids.find(track);
      if (it != tids.end()) return it->second;
      const std::uint64_t tid = tids.size();
      tids.emplace(track, tid);
      metadata(pid, tid, "thread_name", track);
      return tid;
    };

    metadata(pid, 0, "process_name", q.label.empty()
                                         ? strformat("query %llu",
                                                     (unsigned long long)pid)
                                         : q.label);
    tid_of("control");

    std::unordered_map<std::uint32_t, std::uint64_t> span_tid;
    for (const SpanRecord& s : dag.spans()) {
      if (!s.closed()) continue;  // counted in openSpans, never emitted
      const std::uint64_t tid = tid_of(track_of(dag, s));
      span_tid[s.id.value] = tid;
      complete_event(s, pid, tid);
    }
    for (const SpanRecord& s : dag.spans()) {
      if (!s.closed()) continue;
      const std::uint64_t tid = span_tid[s.id.value];
      if (s.link) {
        if (const SpanRecord* from = dag.find(s.link); from && from->closed()) {
          flow(pid, span_tid[from->id.value], tid, *from, s, "h1");
        }
      }
      if (s.parent) {
        const SpanRecord* p = dag.find(s.parent);
        if (p && p->closed() && span_tid[p->id.value] != tid) {
          flow(pid, span_tid[p->id.value], tid, *p, s, "rpc");
        }
      }
    }
    for (const TimeSeries& ts : q.series) {
      for (const auto& [t, v] : ts.points) counter(pid, ts.name, t, v);
    }
  }

 private:
  void common(const char* ph, std::uint64_t pid, std::uint64_t tid,
              std::string_view name, double ts_seconds) {
    w_.begin_object();
    w_.key("ph");
    w_.value(ph);
    w_.key("pid");
    w_.value(pid);
    w_.key("tid");
    w_.value(tid);
    w_.key("name");
    w_.value(name);
    w_.key("ts");
    w_.value(ts_seconds * kUsPerSecond);
  }

  void metadata(std::uint64_t pid, std::uint64_t tid, std::string_view what,
                std::string_view name) {
    common("M", pid, tid, what, 0);
    w_.key("args");
    w_.begin_object();
    w_.key("name");
    w_.value(name);
    w_.end_object();
    w_.end_object();
  }

  void complete_event(const SpanRecord& s, std::uint64_t pid,
                      std::uint64_t tid) {
    common("X", pid, tid, s.name, s.start);
    w_.key("dur");
    w_.value(s.duration() * kUsPerSecond);
    w_.key("cat");
    w_.value(stage_name(classify_span(s.name)));
    w_.key("args");
    w_.begin_object();
    w_.key("span");
    w_.value(std::uint64_t{s.id.value});
    if (s.parent) {
      w_.key("parent");
      w_.value(std::uint64_t{s.parent.value});
    }
    if (s.link) {
      w_.key("link");
      w_.value(std::uint64_t{s.link.value});
    }
    for (const auto& [k, v] : s.tags) {
      w_.key(k);
      w_.value(v);
    }
    w_.end_object();
    w_.end_object();
  }

  /// Arrow from `from`'s end to `to`'s start. Flow ids must be unique per
  /// open arrow; pid-qualified span ids are.
  void flow(std::uint64_t pid, std::uint64_t from_tid, std::uint64_t to_tid,
            const SpanRecord& from, const SpanRecord& to,
            std::string_view cat) {
    const std::uint64_t id = (pid << 32) | to.id.value;
    common("s", pid, from_tid, cat, std::min(from.end, to.start));
    w_.key("cat");
    w_.value(cat);
    w_.key("id");
    w_.value(id);
    w_.end_object();
    common("f", pid, to_tid, cat, to.start);
    w_.key("cat");
    w_.value(cat);
    w_.key("id");
    w_.value(id);
    w_.key("bp");
    w_.value("e");
    w_.end_object();
  }

  void counter(std::uint64_t pid, std::string_view name, double t, double v) {
    common("C", pid, 0, name, t);
    w_.key("args");
    w_.begin_object();
    w_.key("value");
    w_.value(v);
    w_.end_object();
    w_.end_object();
  }

  JsonWriter& w_;
};

}  // namespace

ChromeTraceStream::ChromeTraceStream() {
  w_.begin_object();
  w_.key("schemaVersion");
  w_.value(kObsSchemaVersion);
  w_.key("displayTimeUnit");
  w_.value("ms");
  w_.key("traceEvents");
  w_.begin_array();
}

void ChromeTraceStream::add(const ChromeTraceQuery& q) {
  Emitter(w_).emit_query(q, ++pid_, &open_spans_);
}

std::string ChromeTraceStream::trailer() const {
  return strformat("],\"openSpans\":%llu}",
                   static_cast<unsigned long long>(open_spans_));
}

std::string chrome_trace_json(const std::vector<ChromeTraceQuery>& queries) {
  ChromeTraceStream stream;
  for (const ChromeTraceQuery& q : queries) stream.add(q);
  return stream.take() + stream.trailer();
}

}  // namespace orv::obs
