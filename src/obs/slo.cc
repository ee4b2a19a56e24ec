#include "obs/slo.h"

#include <algorithm>

#include "obs/trace.h"

namespace oct {
namespace obs {

namespace {

uint64_t NowSeconds() { return TraceNowNanos() / 1000000000ULL; }

/// Burn rate for one window: bad fraction over error budget. 0 when the
/// window is empty (no evidence = no alarm) or the budget is degenerate.
double BurnRate(uint64_t good, uint64_t total, double target) {
  if (total == 0) return 0.0;
  const double budget = 1.0 - target;
  if (budget <= 0.0) return 0.0;
  const double bad = static_cast<double>(total - good) /
                     static_cast<double>(total);
  return bad / budget;
}

}  // namespace

void SloEngine::Objective::RecordSample(uint64_t now_sec, bool good) {
  Bucket& b = buckets[now_sec % buckets.size()];
  uint64_t tag = b.sec.load(std::memory_order_relaxed);
  if (tag != now_sec) {
    // Claim the slot for this second. The winner zeroes the counts; a
    // sample racing the reset can land in the zeroed-out window or be
    // wiped — one event per objective per second-boundary, documented
    // as lossy in the header.
    if (b.sec.compare_exchange_strong(tag, now_sec,
                                      std::memory_order_relaxed)) {
      b.good.store(0, std::memory_order_relaxed);
      b.total.store(0, std::memory_order_relaxed);
    }
  }
  b.total.fetch_add(1, std::memory_order_relaxed);
  if (good) b.good.fetch_add(1, std::memory_order_relaxed);
}

void SloEngine::Objective::Tally(uint64_t now_sec, uint64_t window,
                                 uint64_t* good, uint64_t* total) const {
  *good = 0;
  *total = 0;
  const uint64_t span = std::min<uint64_t>(window, buckets.size() - 1);
  const uint64_t oldest = now_sec >= span - 1 ? now_sec - (span - 1) : 0;
  for (const Bucket& b : buckets) {
    const uint64_t sec = b.sec.load(std::memory_order_relaxed);
    if (sec < oldest || sec > now_sec) continue;  // Stale or unclaimed slot.
    *good += b.good.load(std::memory_order_relaxed);
    *total += b.total.load(std::memory_order_relaxed);
  }
}

void SloEngine::AddObjective(const SloObjectiveSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  objectives_.push_back(std::make_unique<Objective>(spec));
  Index* next = new Index();
  next->items.reserve(objectives_.size());
  for (const auto& obj : objectives_) next->items.push_back(obj.get());
  // Superseded snapshots leak by design; see the header.
  index_.store(next, std::memory_order_release);
}

SloEngine::Objective* SloEngine::Find(const std::string& name) const {
  const Index* index = index_.load(std::memory_order_acquire);
  if (index == nullptr) return nullptr;
  for (Objective* obj : index->items) {
    if (obj->spec.name == name) return obj;
  }
  return nullptr;
}

void SloEngine::Record(const std::string& name, bool good) {
  Objective* obj = Find(name);
  if (obj == nullptr) return;
  obj->RecordSample(NowSeconds(), good);
}

void SloEngine::RecordLatency(const std::string& name, double us) {
  Objective* obj = Find(name);
  if (obj == nullptr) return;
  obj->RecordSample(NowSeconds(), us <= obj->spec.latency_threshold_us);
}

std::vector<SloStatus> SloEngine::Check() const {
  std::vector<SloStatus> out;
  const Index* index = index_.load(std::memory_order_acquire);
  if (index == nullptr) return out;
  const uint64_t now_sec = NowSeconds();
  out.reserve(index->items.size());
  for (const Objective* obj : index->items) {
    SloStatus status;
    status.name = obj->spec.name;
    status.description = obj->spec.description;
    status.target = obj->spec.target;
    status.window_seconds = obj->spec.window_seconds;
    status.short_window_seconds = obj->spec.short_window_seconds;
    status.burn_alert_threshold = obj->spec.burn_alert_threshold;
    obj->Tally(now_sec, obj->spec.window_seconds, &status.good,
               &status.total);
    status.burn_long = BurnRate(status.good, status.total, obj->spec.target);
    uint64_t short_good = 0;
    uint64_t short_total = 0;
    obj->Tally(now_sec, obj->spec.short_window_seconds, &short_good,
               &short_total);
    status.burn_short =
        BurnRate(short_good, short_total, obj->spec.target);
    status.alerting = status.burn_long > obj->spec.burn_alert_threshold &&
                      status.burn_short > obj->spec.burn_alert_threshold;
    out.push_back(std::move(status));
  }
  return out;
}

bool SloEngine::AnyAlerting() const {
  for (const SloStatus& status : Check()) {
    if (status.alerting) return true;
  }
  return false;
}

size_t SloEngine::num_objectives() const {
  const Index* index = index_.load(std::memory_order_acquire);
  return index == nullptr ? 0 : index->items.size();
}

}  // namespace obs
}  // namespace oct
