#pragma once

// The observability sink configuration and the one writer of sink files.
// sinks() reads every sink setting from the environment once per process;
// the bench harness and run_workload both read that value, and a test
// builds its own. SinkFile keeps a document complete after every record:
// append() writes the record's bytes once, then the closing trailer, which
// the next append overwrites.

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace orv::obs {

/// Occupancy sampling period of a traced run, in simulated seconds: tens
/// of points per counter track on the sub-second figure queries.
inline constexpr double kTraceSampleSeconds = 0.01;

/// Every sink setting; an empty path leaves that sink off.
///   ORV_PROFILE=<file>  per-query execution profiles, {"profiles": [...]}
///   ORV_TRACE=<file>    one Chrome trace-event file over every query
///   ORV_PROM=<file>     Prometheus exposition of the last query's registry
///   ORV_DIAG=1          each instrumented query's diagnosis on stdout
///   ORV_FLIGHT=<dir>    workload flight-recorder dumps, one file each
///   ORV_DASH=<file>     workload dashboard, one JSON line per monitor tick
/// The first four instrument the bench harness; the last two turn on
/// run_workload's live monitor.
struct Sinks {
  std::string profile;
  std::string trace;
  std::string prom;
  bool diag = false;
  std::string flight;
  std::string dash;

  bool instruments_bench() const {
    return !profile.empty() || !trace.empty() || !prom.empty() || diag;
  }
  bool monitors_workload() const { return !flight.empty() || !dash.empty(); }
};

/// The process's sink settings, read from the environment on first call.
const Sinks& sinks();

/// A document file that grows by whole records. A default-constructed or
/// unopenable SinkFile is off and append() does nothing, so a bad path
/// means "no sink" rather than a failed run.
class SinkFile {
 public:
  SinkFile() = default;
  /// Opens (truncates) `path`; a failed open is reported on stderr.
  explicit SinkFile(const std::string& path);

  bool enabled() const { return file_ != nullptr; }
  std::size_t records() const { return records_; }

  /// Writes `record` after the earlier records, then `trailer` in place of
  /// the previous trailer, and flushes.
  void append(std::string_view record, std::string_view trailer = {});

 private:
  struct Close {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  std::string path_;
  std::unique_ptr<std::FILE, Close> file_;
  long body_end_ = 0;  // where the current trailer starts
  std::size_t trailer_size_ = 0;
  std::size_t records_ = 0;
};

/// A SinkFile fed by a document stream (ProfileStream, ChromeTraceStream),
/// which renders each record once. The file holds the empty document
/// from the start; an empty path leaves the sink off.
template <typename Stream>
class DocumentFile {
 public:
  explicit DocumentFile(const std::string& path) {
    if (path.empty()) return;
    file_ = SinkFile(path);
    file_.append(stream_.take(), stream_.trailer());
  }

  bool enabled() const { return file_.enabled(); }

  template <typename Record>
  void add(const Record& record) {
    if (!enabled()) return;
    stream_.add(record);
    file_.append(stream_.take(), stream_.trailer());
  }

 private:
  Stream stream_;
  SinkFile file_;
};

/// Writes `bytes` as the whole of `path` (a snapshot or one dump); false,
/// reported on stderr, when it cannot.
bool write_file(const std::string& path, std::string_view bytes);

}  // namespace orv::obs
