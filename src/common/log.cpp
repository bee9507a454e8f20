#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "obs/obs.hpp"

namespace orv::log {

namespace {
std::atomic<Level> g_level{Level::Warn};
std::atomic<bool> g_timestamps{false};

const char* name(Level lvl) {
  switch (lvl) {
    case Level::Debug: return "DEBUG";
    case Level::Info: return "INFO ";
    case Level::Warn: return "WARN ";
    case Level::Error: return "ERROR";
    case Level::Off: return "OFF  ";
  }
  return "?";
}

// Captured at static initialization, so timestamps are relative to (a
// point very close to) process start.
const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

// Timestamps route through the installed ObsContext clock when one is
// present, so a log line emitted under a SimClock carries the *virtual*
// instant — the one that lines up with spans, profiles, and traces — and
// only falls back to wall time relative to process start otherwise.
double timestamp_now() {
  if (auto* ctx = obs::context()) return ctx->clock()->now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_start)
      .count();
}

}  // namespace

void set_level(Level level) { g_level.store(level); }
Level level() { return g_level.load(); }

void set_timestamps(bool on) { g_timestamps.store(on); }
bool timestamps() { return g_timestamps.load(); }

void emit(Level lvl, const std::string& message) {
  if (lvl < g_level.load()) return;

  // Build the full line first, then write it with a single call under a
  // mutex, so lines from concurrent threads never interleave.
  std::string line;
  line.reserve(message.size() + 32);
  line += "[orv ";
  line += name(lvl);
  if (g_timestamps.load(std::memory_order_relaxed)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %12.6f", timestamp_now());
    line += buf;
  }
  line += "] ";
  line += message;
  line += '\n';
  {
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    std::fwrite(line.data(), 1, line.size(), stderr);
  }

  if (lvl >= Level::Warn && lvl < Level::Off) {
    if (auto* ctx = obs::context()) {
      ctx->registry
          .counter(lvl == Level::Warn ? "log.warn" : "log.error")
          .add(1);
    }
  }
}

}  // namespace orv::log
