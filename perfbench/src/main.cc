// Benchmark program: runs one workload against the library under test
// and prints its metrics, with the result object as the last line.
//
//   spa_perfbench --workload read_hot|emotion_storm|campaign
//                 --seed N --seconds S --trace 0|1 [--spans PATH]
//                 [--users N] [--pool N]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options->trace = value == "1";
    } else if (arg == "--spans") {
      options->spans_path = value;
    } else if (arg == "--users") {
      options->users = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--pool") {
      options->pool = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (options->seconds <= 0.0 || options->users == 0 ||
      options->pool == 0) {
    std::fprintf(stderr, "--seconds, --users and --pool must be > 0\n");
    return false;
  }
  if (options->trace && options->spans_path.empty()) {
    std::fprintf(stderr, "--trace 1 needs --spans PATH\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  if (options.workload == "read_hot") return perfbench::RunReadHot(options);
  if (options.workload == "emotion_storm") {
    return perfbench::RunEmotionStorm(options);
  }
  if (options.workload == "campaign") return perfbench::RunCampaign(options);
  std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  return 2;
}
