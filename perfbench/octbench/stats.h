// Small measurement helpers shared by the benchmark phases: order
// statistics over samples, process peak RSS, the fixed-work host reference
// loop, and the one-line JSON result the benchmark prints last.
#ifndef OCTBENCH_STATS_H_
#define OCTBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace octbench {

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Peak resident set size of this process so far, in MB (2^20 bytes).
double PeakRssMb();

/// Times a fixed amount of integer and cache-resident memory work (a few
/// milliseconds). Run while no benchmark work is running, the result
/// depends only on the host's speed at that moment, so it separates a slow
/// host from a slow program.
double ReferenceLoopMs();

/// Runs ReferenceLoopMs() on `threads` threads at once and returns the
/// slowest. On an otherwise idle host it reads like one loop; when other
/// processes compete for the cores it reads slower.
double ParallelReferenceMs(size_t threads);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Prints {"correct", "attempted", "failed", "metrics"} as one JSON line.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics);

}  // namespace octbench

#endif  // OCTBENCH_STATS_H_
