// bench_e2e: end-to-end benchmark of explain, serve and update at the
// paper's entity counts. One workload per process:
//
//   bench_e2e --workload=NAME --seed=N --json=PATH [--seconds=S]
//             [--trace=PATH] [--setup-repeats=R] [--workdir=DIR] [--smoke]
//
// Workloads: explain-cold-paper, explain-repeat-small, wire-mixed,
// update-eval-paper (see README.md). The run sets the workload up
// --setup-repeats times (setup_s is the median), measures a window of
// --seconds untraced, checks the outputs, and with --trace replays part of
// the window through TimedModel for the per-layer numbers. --smoke divides
// the window by 20 and sets up once. Every metric is printed by name and
// unit, and written to --json. Exits nonzero when any operation or output
// check failed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "e2e.h"

namespace {

using namespace kelpie::e2e;

bool ParseArgs(int argc, char** argv, Options* options) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--setup-repeats") {
      options->setup_repeats = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--json") {
      options->json_path = value;
    } else if (key == "--trace") {
      options->trace_path = value;
    } else if (key == "--workdir") {
      options->workdir = value;
    } else if (key == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (smoke) {
    options->seconds /= 20.0;
    options->setup_repeats = 1;
  }
  return !options->workload.empty() && options->seconds > 0.0 &&
         options->setup_repeats > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=NAME --seed=N --json=PATH "
                 "[--seconds=S] [--trace=PATH] [--setup-repeats=R] "
                 "[--workdir=DIR] [--smoke]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);

  Report report;
  TraceFile trace;
  int rc = 0;
  if (options.workload == "explain-cold-paper") {
    rc = RunExplainColdPaper(options, report, trace);
  } else if (options.workload == "explain-repeat-small") {
    rc = RunExplainRepeatSmall(options, report, trace);
  } else if (options.workload == "wire-mixed") {
    rc = RunWireMixed(options, report, trace);
  } else if (options.workload == "update-eval-paper") {
    rc = RunUpdateEvalPaper(options, report, trace);
  } else {
    std::fprintf(stderr, "bench_e2e: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  std::filesystem::remove(options.workdir + "/model.bin", ec);
  if (rc != 0) return rc;

  report.Finish(!options.trace_path.empty());
  report.Detail("failed_frac",
                Ratio(static_cast<double>(report.failed()),
                      static_cast<double>(report.attempted())),
                "ratio");
  report.Print();
  const bool written = report.WriteJson(options) && trace.Write(options);
  return written && report.failed() == 0 ? 0 : 1;
}
