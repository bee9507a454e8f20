#pragma once

// Minimal leveled logger. Off (Warn) by default so tests and benches stay
// quiet; examples raise the level for narration.

#include <sstream>
#include <string>

namespace orv::log {

enum class Level { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global threshold; messages below it are dropped.
void set_level(Level level);
Level level();

/// When on, each line is prefixed with seconds since process start
/// (microsecond resolution). Off by default.
void set_timestamps(bool on);
bool timestamps();

/// Emits a message to stderr if `lvl` passes the threshold. Thread-safe:
/// the whole line (prefix + message + newline) is written in one call, so
/// concurrent emitters never interleave within a line. Messages at Warn
/// and above also bump the installed observability context's "log.warn" /
/// "log.error" counter, when one exists.
void emit(Level lvl, const std::string& message);

namespace detail {
class LineLogger {
 public:
  explicit LineLogger(Level lvl) : lvl_(lvl) {}
  ~LineLogger() { emit(lvl_, os_.str()); }
  template <typename T>
  LineLogger& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  Level lvl_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace orv::log

#define ORV_LOG(lvl)                                         \
  if (::orv::log::level() > ::orv::log::Level::lvl) {        \
  } else                                                     \
    ::orv::log::detail::LineLogger(::orv::log::Level::lvl)
