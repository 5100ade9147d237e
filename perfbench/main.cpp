// Closed-loop control-plane benchmark driver (see README.md).
//
//   rwc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <path>]
//
// Prints a human-readable account of the run, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding every
// metric the run computed (end-to-end metrics always; per-layer metrics
// from the traced window with --trace 1). perfbench/run.py builds this
// binary and narrows the metrics to the set BENCHMARK.json names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using rwc::perfbench::Report;
using rwc::perfbench::RunOptions;

int usage(const char* why) {
  std::fprintf(stderr,
               "rwc_perfbench: %s\nusage: rwc_perfbench --workload "
               "<serve_steady|serve_weather|loop_dataplane|fleet_swan> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

/// JSON numbers cannot be NaN/inf; those would mean a broken metric.
bool finite_metrics(const Report& report) {
  for (const auto& [name, metric] : report.metrics)
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      return false;
    }
  return true;
}

void print_json(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0)
        return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty() || !have_trace)
    return usage("--workload and --trace are required");

  Report report;
  try {
    if (options.workload == "serve_steady") {
      report = rwc::perfbench::run_serve_steady(options);
    } else if (options.workload == "serve_weather") {
      report = rwc::perfbench::run_serve_weather(options);
    } else if (options.workload == "loop_dataplane") {
      report = rwc::perfbench::run_loop_dataplane(options);
    } else if (options.workload == "fleet_swan") {
      report = rwc::perfbench::run_fleet_swan(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rwc_perfbench: %s\n", e.what());
    return 1;
  }

  if (options.trace) rwc::perfbench::complete_per_layer(report);
  for (const std::string& problem : report.problems)
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  std::printf("%-28s %llu of %llu operations failed\n", "errors",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  if (report.attempted == 0 || !finite_metrics(report)) return 1;
  std::fflush(stdout);
  print_json(report);
  return 0;
}
