#include "obs/flight.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/json.hpp"
#include "obs/sinks.hpp"

namespace orv::obs {

const char* flight_kind_name(FlightEvent::Kind k) {
  switch (k) {
    case FlightEvent::Kind::SpanClose: return "span";
    case FlightEvent::Kind::Metric: return "metric";
    case FlightEvent::Kind::Fault: return "fault";
    case FlightEvent::Kind::Alert: return "alert";
    case FlightEvent::Kind::Note: return "note";
  }
  return "?";
}

bool FlightDump::contains(FlightEvent::Kind kind, std::string_view node,
                          std::string_view name) const {
  // Dumps keep the structured source of truth in `json`; match on the
  // rendered form so tests and CI validators share one definition.
  const std::string needle_ring = strformat(
      "\"node\":\"%s\",\"kind\":\"%s\"", std::string(node).c_str(),
      flight_kind_name(kind));
  const std::size_t ring = json.find(needle_ring);
  if (ring == std::string::npos) return false;
  // The ring's events run until the next ring object; search the name
  // inside that slice.
  const std::size_t end = json.find("\"node\":", ring + needle_ring.size());
  const std::string needle_name =
      strformat("\"name\":\"%s\"", std::string(name).c_str());
  const std::size_t hit = json.find(needle_name, ring);
  return hit != std::string::npos && (end == std::string::npos || hit < end);
}

FlightRecorder::FlightRecorder() : FlightRecorder(Config()) {}

FlightRecorder::FlightRecorder(Config cfg) : cfg_(std::move(cfg)) {
  ORV_REQUIRE(cfg_.ring_capacity > 0, "flight recorder needs ring capacity");
}

void FlightRecorder::record(FlightEvent ev) {
  const bool is_fault = ev.kind == FlightEvent::Kind::Fault;
  FlightEvent copy;
  if (is_fault && on_fault_) copy = ev;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++recorded_;
    Ring& ring = rings_[{ev.node, static_cast<int>(ev.kind)}];
    ++ring.total;
    if (ring.buf.size() < cfg_.ring_capacity) {
      ring.buf.push_back(std::move(ev));
    } else {
      ++evicted_;
      ring.buf[ring.next] = std::move(ev);
      ring.next = (ring.next + 1) % cfg_.ring_capacity;
    }
  }
  if (is_fault && on_fault_) on_fault_(copy);
}

void FlightRecorder::set_on_fault(std::function<void(const FlightEvent&)> cb) {
  on_fault_ = std::move(cb);
}

std::string FlightRecorder::render_dump(const FlightDump& d) const {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version");
  w.value(kObsSchemaVersion);
  w.key("seq");
  w.value(d.seq);
  w.key("time");
  w.value(d.time);
  w.key("reason");
  w.value(d.reason);
  w.key("events_recorded");
  w.value(recorded_);
  w.key("events_evicted");
  w.value(evicted_);
  w.key("rings");
  w.begin_array();
  for (const auto& [key, ring] : rings_) {
    if (ring.buf.empty()) continue;
    w.begin_object();
    w.key("node");
    w.value(key.first);
    w.key("kind");
    w.value(flight_kind_name(static_cast<FlightEvent::Kind>(key.second)));
    w.key("total");
    w.value(ring.total);
    w.key("events");
    w.begin_array();
    // Oldest first: the ring cursor marks the oldest entry once wrapped.
    const std::size_t n = ring.buf.size();
    for (std::size_t i = 0; i < n; ++i) {
      const FlightEvent& ev =
          ring.buf[(ring.next + i) % n];
      w.begin_object();
      w.key("t");
      w.value(ev.time);
      w.key("name");
      w.value(ev.name);
      w.key("value");
      w.value(ev.value);
      if (!ev.detail.empty()) {
        w.key("detail");
        w.value(ev.detail);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool FlightRecorder::dump(std::string_view reason, double now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dumps_.size() >= cfg_.max_dumps) {
    ++suppressed_;
    return false;
  }
  FlightDump d;
  d.seq = next_seq_++;
  d.time = now;
  d.reason = std::string(reason);
  d.json = render_dump(d);
  if (!cfg_.dump_dir.empty()) {
    d.path = strformat("%s/flight_%04llu.json", cfg_.dump_dir.c_str(),
                       static_cast<unsigned long long>(d.seq));
    if (!write_file(d.path, d.json + "\n")) {
      d.path.clear();  // unwritable directory: keep the in-memory dump
    }
  }
  dumps_.push_back(std::move(d));
  return true;
}

bool FlightRecorder::holds(FlightEvent::Kind kind, std::string_view node,
                           std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = rings_.find({std::string(node), static_cast<int>(kind)});
  if (it == rings_.end()) return false;
  for (const FlightEvent& ev : it->second.buf) {
    if (ev.name.find(name) != std::string::npos) return true;
  }
  return false;
}

namespace {
std::atomic<FlightRecorder*> g_flight{nullptr};
}  // namespace

void install_flight(FlightRecorder* rec) {
  g_flight.store(rec, std::memory_order_release);
}

void uninstall_flight() {
  g_flight.store(nullptr, std::memory_order_release);
}

FlightRecorder* flight_context() {
  return g_flight.load(std::memory_order_acquire);
}

ScopedFlight::ScopedFlight(FlightRecorder& rec) : prev_(flight_context()) {
  install_flight(&rec);
}

ScopedFlight::~ScopedFlight() { install_flight(prev_); }

void flight_note(double time, FlightEvent::Kind kind, std::string_view node,
                 std::string_view name, double value,
                 std::string_view detail) {
  FlightRecorder* rec = flight_context();
  if (rec == nullptr) return;
  FlightEvent ev;
  ev.time = time;
  ev.kind = kind;
  ev.node = std::string(node);
  ev.name = std::string(name);
  ev.value = value;
  ev.detail = std::string(detail);
  rec->record(std::move(ev));
}

}  // namespace orv::obs
