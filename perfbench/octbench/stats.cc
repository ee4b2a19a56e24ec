#include "octbench/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace octbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double ReferenceLoopMs() {
  // 256 KiB table: L2-resident on common hosts, so the loop measures core
  // speed and cache latency, not DRAM bandwidth shared with neighbours.
  constexpr size_t kWords = 1 << 15;
  constexpr size_t kSteps = 700'000;
  std::vector<uint64_t> table(kWords);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t& word : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    word = x;
  }
  const auto start = std::chrono::steady_clock::now();
  uint64_t acc = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[(x ^ acc) & (kWords - 1)];
  }
  const auto end = std::chrono::steady_clock::now();
  // Keep the loop observable so it cannot be folded away.
  if (acc == 42) std::fprintf(stderr, "reference checksum %llu\n",
                              static_cast<unsigned long long>(acc));
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double ParallelReferenceMs(size_t threads) {
  std::vector<double> ms(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&ms, t] { ms[t] = ReferenceLoopMs(); });
  }
  for (std::thread& th : pool) th.join();
  return *std::max_element(ms.begin(), ms.end());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace octbench
