#include "obs/span.hpp"

#include <algorithm>
#include <charconv>

#include "obs/flight.hpp"

namespace orv::obs {

SpanId Tracer::begin(std::string_view name, SpanId parent) {
  const double t = clock_ ? clock_->now() : 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.id = SpanId{static_cast<std::uint32_t>(spans_.size() + 1)};
  rec.parent = parent;
  rec.name = std::string(name);
  rec.start = t;
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

double Tracer::end(SpanId id) {
  return end_at(id, clock_ ? clock_->now() : 0.0);
}

double Tracer::end_at(SpanId id, double at) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!id || id.value > spans_.size()) return 0;
  SpanRecord& rec = spans_[id.value - 1];
  if (rec.closed()) return rec.duration();
  rec.end = std::max(at, rec.start);
  // Flight-recorder feed: one relaxed load when no recorder is installed
  // (the default), so untraced/unmonitored runs pay nothing measurable.
  if (flight_context() != nullptr) {
    const std::string* node = rec.tag_value("node");
    flight_note(rec.end, FlightEvent::Kind::SpanClose,
                node != nullptr ? "n" + *node : std::string(), rec.name,
                rec.duration());
  }
  return rec.duration();
}

double Tracer::end_orphaned(SpanId id) {
  tag(id, "orphaned", std::uint64_t{1});
  return end(id);
}

void Tracer::link(SpanId id, SpanId remote_parent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!id || id.value > spans_.size()) return;
  spans_[id.value - 1].link = remote_parent;
}

void Tracer::tag(SpanId id, std::string_view key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!id || id.value > spans_.size()) return;
  spans_[id.value - 1].tags.emplace_back(std::string(key), std::move(value));
}

// Numbers are formatted as JsonWriter::value formats them: the same bytes
// as printf's "%.9g" and "%llu", without a format-string parse.
void Tracer::tag(SpanId id, std::string_view key, double value) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::general, 9);
  tag(id, key, std::string(buf, r.ptr));
}

void Tracer::tag(SpanId id, std::string_view key, std::uint64_t value) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value);
  tag(id, key, std::string(buf, r.ptr));
}

std::size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t Tracer::num_open_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t open = 0;
  for (const auto& s : spans_) {
    if (!s.closed()) ++open;
  }
  return open;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

}  // namespace orv::obs
