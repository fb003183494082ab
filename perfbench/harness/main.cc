// perfbench: the repository's benchmark.
//
//   perfbench --workload select|join|churn --seed N --seconds S --trace 0|1
//             --work-dir DIR
//   perfbench --reference --work-dir DIR
//
// Builds the workload's database from the seed, warms it up, runs whole
// rounds of its operations from one client thread for S seconds, checks
// every answer against a brute-force oracle, and prints one JSON object as
// the last line of standard output: the end-to-end metrics with --trace 0,
// the per-layer metrics of a traced run with --trace 1.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness/workloads.h"

int main(int argc, char** argv) {
  using namespace sigsetdb::perfbench;
  RunOptions options;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      reference = true;
      continue;
    }
    if (i + 1 >= argc) Fatal("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Fatal("unknown flag " + flag);
    }
  }
  if (options.work_dir.empty()) Fatal("--work-dir is required");
  if (options.seconds <= 0) Fatal("--seconds must be positive");
  std::filesystem::create_directories(options.work_dir);
  if (reference) {
    RunReference(options);
    return 0;
  }

  Report report;
  if (options.workload == "select") {
    RunSelect(options, &report);
  } else if (options.workload == "join") {
    RunJoin(options, &report);
  } else if (options.workload == "churn") {
    RunChurn(options, &report);
  } else {
    Fatal("unknown workload '" + options.workload + "'");
  }
  std::fflush(stderr);
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
