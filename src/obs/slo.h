// SloEngine: declarative service-level objectives with multi-window
// burn-rate alerting.
//
// An objective is "target fraction of events must be good over a sliding
// window" — e.g. 99% of routes complete in < 5 ms, 99.9% of requests are
// not shed. The engine tracks each objective in a ring of per-second
// atomic buckets and computes the *burn rate*: the observed bad fraction
// divided by the error budget (1 - target). Burn 1.0 means the budget is
// being consumed exactly at the sustainable pace; burn 10 means the
// budget for the whole window disappears in a tenth of it.
//
// Alerts use the standard multi-window rule: fire only when BOTH the
// short window (fast detection, noisy alone) and the long window
// (evidence the problem persists) exceed the burn threshold. A brief
// latency blip moves the short window but not the long one; a sustained
// regression moves both.
//
//   SloEngine engine;
//   engine.AddObjective({.name = "router.latency", .target = 0.99,
//                        .latency_threshold_us = 5000.0});
//   ...
//   engine.RecordLatency("router.latency", total_us);   // hot path
//   ...
//   for (const SloStatus& s : engine.Check()) { ... }    // /sloz
//
// Recording is lock-free: one bucket claim (CAS on the second tag) plus
// two relaxed fetch_adds. Samples racing a bucket transition (the ring
// slot being reclaimed for a new second) can be lost; at one transition
// per objective per second the distortion is far below alerting
// granularity and is the price of a mutex-free hot path.

#ifndef OCT_OBS_SLO_H_
#define OCT_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace oct {
namespace obs {

struct SloObjectiveSpec {
  /// Identifier used by Record*/Check and shown on /sloz.
  std::string name;
  std::string description;
  /// Target good fraction in (0, 1), e.g. 0.99. Error budget = 1 - target.
  double target = 0.99;
  /// Long window (seconds): the ring's span and the "is it persistent"
  /// alert arm.
  uint64_t window_seconds = 300;
  /// Short window (seconds): the "is it happening now" alert arm.
  uint64_t short_window_seconds = 60;
  /// Alert when burn rate exceeds this in BOTH windows. 1.0 = budget
  /// consumed exactly at the sustainable pace.
  double burn_alert_threshold = 2.0;
  /// When > 0 the objective is latency-shaped: RecordLatency(name, us)
  /// counts the sample good iff us <= this. 0 = availability-shaped
  /// (callers use Record(name, good)).
  double latency_threshold_us = 0.0;
};

/// One objective's evaluation at Check() time.
struct SloStatus {
  std::string name;
  std::string description;
  double target = 0.0;
  uint64_t window_seconds = 0;
  uint64_t short_window_seconds = 0;
  double burn_alert_threshold = 0.0;
  /// Long-window tallies.
  uint64_t good = 0;
  uint64_t total = 0;
  /// Burn rates; 0 when the corresponding window has no samples.
  double burn_long = 0.0;
  double burn_short = 0.0;
  bool alerting = false;
};

class SloEngine {
 public:
  SloEngine() = default;

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Registers one objective. Call before recording; names are matched by
  /// linear scan, so keep the set small (it is: a handful per service).
  void AddObjective(const SloObjectiveSpec& spec);

  /// Records one availability-shaped sample for `name`. Unknown names are
  /// ignored (the caller may run with a partially configured engine).
  void Record(const std::string& name, bool good);

  /// Records one latency-shaped sample: good iff us <= the objective's
  /// latency_threshold_us.
  void RecordLatency(const std::string& name, double us);

  /// Evaluates every objective against the current clock.
  std::vector<SloStatus> Check() const;

  /// True when any objective is alerting — the bit /healthz folds into its
  /// degraded state.
  bool AnyAlerting() const;

  size_t num_objectives() const;

 private:
  /// One second of tallies. `sec` tags which wall second currently owns
  /// the slot; a recorder seeing a stale tag claims the slot via CAS and
  /// zeroes the counts.
  struct Bucket {
    std::atomic<uint64_t> sec{~uint64_t{0}};
    std::atomic<uint64_t> good{0};
    std::atomic<uint64_t> total{0};
  };

  struct Objective {
    explicit Objective(const SloObjectiveSpec& s)
        : spec(s), buckets(s.window_seconds + 1) {}
    SloObjectiveSpec spec;
    /// Ring indexed by second % size; +1 slot so the bucket being
    /// reclaimed for "now" never aliases the oldest in-window second.
    std::vector<Bucket> buckets;

    void RecordSample(uint64_t now_sec, bool good);
    /// Good/total over [now_sec - window + 1, now_sec].
    void Tally(uint64_t now_sec, uint64_t window, uint64_t* good,
               uint64_t* total) const;
  };

  /// Immutable snapshot of registered objectives. Recorders load it with
  /// one acquire and scan without locking; AddObjective swaps in a new
  /// snapshot (the handful of superseded snapshots are intentionally
  /// leaked — registration happens a few times at startup).
  struct Index {
    std::vector<Objective*> items;
  };

  Objective* Find(const std::string& name) const;

  mutable std::mutex mu_;  // Serializes AddObjective.
  std::vector<std::unique_ptr<Objective>> objectives_;
  std::atomic<Index*> index_{nullptr};
};

}  // namespace obs
}  // namespace oct

#endif  // OCT_OBS_SLO_H_
