#pragma once

// Flight recorder: bounded-cost evidence capture for the live monitor.
// Fixed-size ring buffers keyed by (node, event class) hold the most
// recent span closures, fault events, alert transitions and notes; on an
// alert fire or query degradation the rings are snapshotted into a
// schema-versioned JSON dump (in memory, and to `<dump_dir>/flight_<seq>.json`
// when a directory is configured — the ORV_FLIGHT env var in workload
// runs).
//
// Separate rings per event class mean a flood of span closures can never
// evict fault evidence: an injected fault stays visible until
// kRingCapacity *more faults on the same node* push it out. Recording
// is O(1); the process-wide install follows the obs layer's atomic-pointer
// idiom, so producers pay one relaxed load plus a predicted branch when
// no recorder is installed (the default, keeping committed baselines
// byte-identical).

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace orv::obs {

struct FlightEvent {
  enum class Kind { SpanClose, Fault, Alert, Note };

  double time = 0;
  Kind kind = Kind::Note;
  /// Node attribution: "storage<i>" / "compute<j>" / "net" for
  /// link-level events / "" for global.
  std::string node;
  std::string name;    // span name / fault kind / rule name
  double value = 0;    // duration / severity-specific payload
  std::string detail;  // free-form context ("src=0 dst=2", error text, ...)
};

const char* flight_kind_name(FlightEvent::Kind k);

/// One snapshot of all rings, produced by dump().
struct FlightDump {
  std::uint64_t seq = 0;
  double time = 0;
  std::string reason;
  std::string json;  // the full schema-versioned document
  std::string path;  // file written, empty when in-memory only

  /// True when any captured event matches kind and (substring) node/name.
  bool contains(FlightEvent::Kind kind, std::string_view node,
                std::string_view name) const;
};

class FlightRecorder {
 public:
  /// Events kept per (node, event-class) ring.
  static constexpr std::size_t kRingCapacity = 128;

  struct Config {
    /// Dumps kept per run; beyond this, dump() only counts suppressions.
    std::size_t max_dumps = 64;
    /// When non-empty, every dump is also written to
    /// `<dump_dir>/flight_<seq>.json`.
    std::string dump_dir;
  };

  FlightRecorder();
  explicit FlightRecorder(Config cfg);

  void record(FlightEvent ev);

  /// Snapshots every ring into a dump (newest events last per ring).
  /// Returns false when the dump budget is exhausted.
  bool dump(std::string_view reason, double now);

  const std::vector<FlightDump>& dumps() const { return dumps_; }
  std::uint64_t events_recorded() const { return recorded_; }
  std::uint64_t events_evicted() const { return evicted_; }
  std::uint64_t dumps_suppressed() const { return suppressed_; }

  /// True when any ring currently holds a matching event (see
  /// FlightDump::contains for dump-side matching).
  bool holds(FlightEvent::Kind kind, std::string_view node,
             std::string_view name) const;

  const Config& config() const { return cfg_; }

 private:
  struct Ring {
    std::vector<FlightEvent> buf;  // capacity-bounded
    std::size_t next = 0;          // write cursor once full
    std::uint64_t total = 0;       // lifetime events through this ring
  };

  std::string render_dump(const FlightDump& d) const;  // caller holds mu_

  Config cfg_;
  mutable std::mutex mu_;
  // Key: node then event class; std::map keeps dump output deterministic.
  std::map<std::pair<std::string, int>, Ring> rings_;
  std::vector<FlightDump> dumps_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t suppressed_ = 0;
};

/// Process-wide recorder, mirroring obs::install. The hot-path contract:
/// flight_context() is one relaxed atomic load; producers only build
/// FlightEvents after a non-null check.
void install_flight(FlightRecorder* rec);
void uninstall_flight();
FlightRecorder* flight_context();

/// RAII install/uninstall (restores the previous recorder on scope exit).
class ScopedFlight {
 public:
  explicit ScopedFlight(FlightRecorder& rec);
  ~ScopedFlight();
  ScopedFlight(const ScopedFlight&) = delete;
  ScopedFlight& operator=(const ScopedFlight&) = delete;

 private:
  FlightRecorder* prev_;
};

/// Convenience producer: no-op unless a recorder is installed.
void flight_note(double time, FlightEvent::Kind kind, std::string_view node,
                 std::string_view name, double value = 0,
                 std::string_view detail = {});

}  // namespace orv::obs
