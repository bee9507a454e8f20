#include "obs/sinks.hpp"

#include <cstdlib>
#include <filesystem>

namespace orv::obs {

namespace {

// An empty view may carry a null data(), which fwrite must not be given.
void put(std::FILE* f, std::string_view bytes) {
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
}

}  // namespace

const Sinks& sinks() {
  static const Sinks s = [] {
    auto env_path = [](const char* name) -> std::string {
      const char* v = std::getenv(name);
      return v != nullptr ? v : "";
    };
    Sinks out;
    out.profile = env_path("ORV_PROFILE");
    out.trace = env_path("ORV_TRACE");
    out.prom = env_path("ORV_PROM");
    out.diag = std::getenv("ORV_DIAG") != nullptr;
    out.flight = env_path("ORV_FLIGHT");
    out.dash = env_path("ORV_DASH");
    return out;
  }();
  return s;
}

SinkFile::SinkFile(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "wb")) {
  if (!file_) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

void SinkFile::append(std::string_view record, std::string_view trailer) {
  if (!file_) return;
  std::FILE* f = file_.get();
  // Only a trailer needs a seek: a trailer-free stream (the dashboard) may
  // be a FIFO.
  if (trailer_size_ > 0) std::fseek(f, body_end_, SEEK_SET);
  put(f, record);
  put(f, trailer);
  std::fflush(f);
  body_end_ += static_cast<long>(record.size());
  if (trailer.size() < trailer_size_) {
    std::error_code ec;
    std::filesystem::resize_file(path_, body_end_ + trailer.size(), ec);
  }
  trailer_size_ = trailer.size();
  ++records_;
}

bool write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  put(f, bytes);
  std::fclose(f);
  return true;
}

}  // namespace orv::obs
