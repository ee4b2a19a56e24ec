// octbench: runs one benchmark workload and prints its result as the last
// line of standard output.
//
//   octbench --workload <build-D|route-B|churn-B> --seed <n> --seconds <s>
//            --trace <0|1> --workdir <dir>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
// with each timed end-to-end metric's coverage. The process exits 0 only
// when every operation succeeded and every correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "octbench/phases.h"
#include "octbench/stats.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "octbench: %s\nusage: octbench --workload <build-D|route-B|"
               "churn-B> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0') seconds = 0.0;
    } else if (flag == "--trace") {
      trace = std::string(value) == "1" ? 1 : std::string(value) == "0" ? 0 : -1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_seed) return Usage("--seed must be a non-negative integer");
  if (!(seconds >= 1.0 && seconds <= 60.0)) {
    return Usage("--seconds must be in [1, 60]");
  }
  if (trace < 0) return Usage("--trace must be 0 or 1");
  if (workdir.empty()) return Usage("--workdir is required");
  octbench::WorkloadSpec spec;
  if (!octbench::SpecFor(workload, seconds, &spec)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  std::filesystem::create_directories(workdir);
  const octbench::RunOutcome outcome =
      octbench::RunWorkload(spec, seed, trace == 1, workdir);
  std::filesystem::remove_all(workdir);

  std::printf("%s\n", outcome.report.c_str());
  octbench::PrintResult(outcome.correct, outcome.attempted, outcome.failed,
                        outcome.metrics);
  return outcome.correct ? 0 : 1;
}
