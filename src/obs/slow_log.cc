#include "obs/slow_log.h"

#include <algorithm>
#include <utility>

namespace oct {
namespace obs {

const char* TailReasonName(TailReason reason) {
  switch (reason) {
    case TailReason::kSlow: return "slow";
    case TailReason::kDegraded: return "degraded";
    case TailReason::kShed: return "shed";
    case TailReason::kError: return "error";
  }
  return "?";
}

SlowLog::SlowLog(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {
  entries_.reserve(capacity_);
}

void SlowLog::Add(SlowRequestEntry entry) {
  total_added_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() < capacity_) {
    entries_.push_back(std::move(entry));
    return;
  }
  entries_[next_] = std::move(entry);
  next_ = (next_ + 1) % capacity_;
}

std::vector<SlowRequestEntry> SlowLog::Latest(size_t max_entries) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlowRequestEntry> out;
  if (entries_.empty()) return out;
  const size_t n = std::min(max_entries, entries_.size());
  out.reserve(n);
  // Newest first: walk backwards from the cursor (the cursor points at the
  // oldest entry once the ring has wrapped).
  const size_t size = entries_.size();
  const size_t newest =
      size < capacity_ ? size - 1 : (next_ + capacity_ - 1) % capacity_;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(entries_[(newest + size - i) % size]);
  }
  return out;
}

}  // namespace obs
}  // namespace oct
