// Serving-stack benchmark: mixed read traffic against the TreeStore with
// and without concurrent background rebuilds. Demonstrates the
// zero-downtime property — readers keep looking items up, at full rate,
// while CTCR rebuilds and publishes fresh versions — and reports
// throughput plus p50/p99 lookup latency for both phases.
//
//   $ ./build/bench/serving_throughput
//
// OCT_SERVE_READERS / OCT_SERVE_SECONDS override the defaults (4 readers,
// ~0.5 s per phase).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "serve/exposition.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/telemetry.h"
#include "serve/tree_store.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace oct;

struct PhaseResult {
  uint64_t lookups = 0;
  double seconds = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  uint64_t versions_observed = 0;
  uint64_t publishes = 0;

  double OpsPerSecond() const { return seconds > 0 ? lookups / seconds : 0; }
};

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value ? static_cast<size_t>(std::strtoull(value, nullptr, 10))
               : fallback;
}

double EnvSeconds(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const double parsed = std::strtod(value, nullptr);
  return parsed > 0 ? parsed : fallback;
}

/// Runs `readers` lookup threads for ~`seconds`, with `publisher` (may be
/// empty) running concurrently on the main thread. Latency is sampled on
/// every 16th lookup to keep the timing overhead off the hot loop.
PhaseResult RunPhase(serve::TreeStore& store, serve::ServeStats& stats,
                     size_t num_items, size_t readers, double seconds,
                     const std::function<uint64_t()>& publisher) {
  std::atomic<bool> done{false};
  std::atomic<size_t> started{0};
  std::vector<std::thread> threads;
  std::vector<uint64_t> lookups(readers, 0);
  std::vector<uint64_t> version_bumps(readers, 0);
  std::vector<std::vector<double>> latencies(readers);

  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      started.fetch_add(1);
      Rng rng(1234 + r);
      uint64_t count = 0;
      uint64_t bumps = 0;
      serve::TreeVersion last_version = 0;
      auto& lat = latencies[r];
      lat.reserve(1 << 16);
      while (!done.load(std::memory_order_acquire)) {
        const bool sample = (count % 16) == 0;
        Timer op;
        const auto snap = store.Current();
        const ItemId item =
            static_cast<ItemId>(rng.NextBelow(num_items + 8));
        stats.RecordItemLookup(!snap->PlacementsOf(item).empty());
        if (sample) lat.push_back(op.ElapsedSeconds() * 1e6);
        if (snap->version() != last_version) {
          if (last_version != 0) ++bumps;
          last_version = snap->version();
        }
        ++count;
      }
      lookups[r] = count;
      version_bumps[r] = bumps;
    });
  }

  // Don't start the clock until every reader is live: on a loaded (or
  // single-core) host the threads may not be scheduled for a while, and a
  // short phase would otherwise measure thread-spawn time, not lookups.
  while (started.load() < readers) std::this_thread::yield();
  Timer phase;
  uint64_t publishes = 0;
  if (publisher) {
    while (phase.ElapsedSeconds() < seconds) publishes += publisher();
  }
  while (phase.ElapsedSeconds() < seconds) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  PhaseResult result;
  result.seconds = phase.ElapsedSeconds();
  result.publishes = publishes;
  static obs::Histogram* lookup_us =
      obs::MetricsRegistry::Default()->GetHistogram("bench.lookup_us");
  std::vector<double> all;
  for (size_t r = 0; r < readers; ++r) {
    result.lookups += lookups[r];
    result.versions_observed += version_bumps[r];
    all.insert(all.end(), latencies[r].begin(), latencies[r].end());
  }
  for (double us : all) lookup_us->Record(us);
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    result.p50_micros = all[all.size() / 2];
    result.p99_micros = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return result;
}

}  // namespace

int main() {
  const size_t readers = std::max<size_t>(1, EnvSize("OCT_SERVE_READERS", 4));
  const double seconds = EnvSeconds("OCT_SERVE_SECONDS", 0.5);

  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  data::Dataset ds = data::MakeDataset('A', sim);
  bench::PrintHeader("serving throughput (lock-free reads vs. rebuilds)", ds);

  serve::TreeStore store(/*retain=*/4);
  serve::ServeStats stats;
  serve::RebuildPolicy policy;
  policy.drift_tolerance = 0.0;  // Every offered batch re-checks freshness.
  ThreadPool rebuild_pool(2);
  serve::RebuildScheduler scheduler(&store, &stats, &ds, sim, policy,
                                    &rebuild_pool);

  // Exposition rides along on a free port: the bench scrapes its own
  // /metrics and /healthz mid-load, so the scrape path is exercised under
  // exactly the contention it exists to observe. Its telemetry's ring is
  // also the process-wide span feed (static: it outlives every thread that
  // might record into it).
  static obs::Telemetry telemetry = serve::MakeTelemetry();
  obs::SpanRing::InstallGlobal(&telemetry.span_ring);
  serve::ExpositionOptions expose_options;
  expose_options.enabled = true;
  expose_options.telemetry = &telemetry;
  serve::ServingExposition exposition(&store, &scheduler, &stats,
                                      expose_options);
  const bool exposing = exposition.Start().ok();

  // Bootstrap: build + publish v1 synchronously.
  const serve::RebuildOutcome bootstrap = scheduler.RebuildNow(ds.input);
  std::printf(
      "bootstrap: published v%llu (score %.4f, %.3f s build, %zu "
      "categories)\n\n",
      static_cast<unsigned long long>(bootstrap.published_version),
      bootstrap.candidate_score, bootstrap.seconds,
      store.Current()->num_categories());

  const size_t num_items = ds.catalog->num_items();

  // Phase 1: pure reads, no writer activity.
  const PhaseResult baseline =
      RunPhase(store, stats, num_items, readers, seconds, nullptr);

  // Phase 2: same read load while rebuilds + publishes churn. Alternate two
  // drifted inputs (fresh 10-day window vs. the full log) so every batch
  // genuinely differs from the served tree and triggers a real rebuild.
  data::DatasetOptions recent;
  recent.recent_window_only = true;
  recent.window_days = 10;
  const data::Dataset drifted =
      data::MakeDataset('A', sim, data::BenchScale(), recent);
  int flip = 0;
  uint64_t scrapes = 0;
  const auto publisher = [&]() -> uint64_t {
    const serve::TreeVersion before = store.CurrentVersion();
    scheduler.OfferBatch((flip++ % 2 == 0) ? drifted.input : ds.input);
    scheduler.WaitForRebuild();
    if (exposing) {
      // Scrape concurrently with the read+rebuild churn.
      const auto metrics = obs::HttpGetLocal(exposition.port(), "/metrics");
      const auto health = obs::HttpGetLocal(exposition.port(), "/healthz");
      if (metrics.ok() && health.ok()) ++scrapes;
    }
    return store.CurrentVersion() > before ? 1 : 0;
  };
  const PhaseResult contended =
      RunPhase(store, stats, num_items, readers, seconds, publisher);

  TableWriter table({"phase", "lookups", "ops/s", "p50 us", "p99 us",
                     "publishes", "version bumps seen"});
  const auto row = [&](const char* name, const PhaseResult& r) {
    table.AddRow({name, std::to_string(r.lookups),
                  TableWriter::Num(r.OpsPerSecond(), 0),
                  TableWriter::Num(r.p50_micros, 2),
                  TableWriter::Num(r.p99_micros, 2),
                  std::to_string(r.publishes),
                  std::to_string(r.versions_observed)});
  };
  row("read-only", baseline);
  row("reads + concurrent rebuilds", contended);
  bench::BenchReport::Get().AddTable("serving_phases", table);
  std::printf("%s\n", table.ToAligned().c_str());

  if (contended.publishes == 0) {
    std::printf("WARNING: no rebuild published during the contended phase\n");
  } else {
    std::printf(
        "readers completed %llu lookups while %llu rebuild(s) published "
        "concurrently -- no lookup ever blocks on a rebuild (reads are one "
        "atomic shared_ptr load).\n",
        static_cast<unsigned long long>(contended.lookups),
        static_cast<unsigned long long>(contended.publishes));
  }

  const auto versions = store.RetainedVersions();
  if (versions.size() >= 2) {
    const auto diff = store.Diff(versions.front().version,
                                 versions.back().version);
    if (diff.ok()) {
      std::printf(
          "diff v%llu -> v%llu: category overlap %.3f, item stability "
          "%.3f\n",
          static_cast<unsigned long long>(versions.front().version),
          static_cast<unsigned long long>(versions.back().version),
          diff->mean_category_overlap, diff->ItemStability());
    }
  }
  if (exposing) {
    std::printf("exposition: %llu live /metrics+/healthz scrapes during the "
                "contended phase (port %d)\n",
                static_cast<unsigned long long>(scrapes), exposition.port());
    exposition.Stop();
  }
  obs::SpanRing::InstallGlobal(nullptr);
  std::printf("stats: %s\n", stats.Snapshot().ToString().c_str());
  return 0;
}
