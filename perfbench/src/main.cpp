// Host-time benchmark entry point.
//
//   perfbench --workload <fig4_sweep|views_local|session_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--work-dir <dir>] [--flip-check <k>]
//
// Prints notes, then one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the workload's end-to-end
// metrics; with --trace 1 they are its per-layer metrics from a traced
// run. Exit status 0 means the run completed (check "correct" for the
// result checks); 2 means bad arguments or an unexpected error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fig4_sweep|views_local|"
               "session_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--work-dir <dir>] [--flip-check <k>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--flip-check") {
      options.flip_check = std::strtol(value.c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return usage();

  perfbench::Report report(options.flip_check);
  try {
    if (options.workload == "fig4_sweep") {
      perfbench::run_fig4_sweep(options, report);
    } else if (options.workload == "views_local") {
      perfbench::run_views_local(options, report);
    } else if (options.workload == "session_mix") {
      perfbench::run_session_mix(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  report.print();
  return 0;
}
