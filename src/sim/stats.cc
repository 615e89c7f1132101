#include "src/sim/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace unifab {

void Summary::Add(double v) {
  if (!std::isfinite(v)) {
    ++non_finite_;
    return;
  }
  samples_.push_back(v);
  sum_ += v;
  sorted_ = false;
}

double Summary::Mean() const {
  if (samples_.empty()) {
    return 0.0;  // same deterministic sentinel as Percentile
  }
  return sum_ / static_cast<double>(samples_.size());
}

void Summary::SortIfNeeded() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Summary::Min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  return samples_.front();
}

double Summary::Max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  return samples_.back();
}

double Summary::Stddev() const {
  if (samples_.empty()) {
    return 0.0;
  }
  const double mean = Mean();
  double acc = 0.0;
  for (double v : samples_) {
    acc += (v - mean) * (v - mean);
  }
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

double Summary::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;  // deterministic sentinel: no samples, no latency
  }
  if (std::isnan(p)) {
    // NaN compares false against both clamp bounds below and would flow
    // into ceil()/size_t conversion — UB. Same sentinel as the empty case.
    return 0.0;
  }
  SortIfNeeded();
  if (p <= 0.0) {
    return samples_.front();
  }
  if (p >= 100.0) {
    return samples_.back();
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) {
    --idx;
  }
  if (idx >= samples_.size()) {
    idx = samples_.size() - 1;
  }
  return samples_[idx];
}

void Summary::Clear() {
  samples_.clear();
  sum_ = 0.0;
  sorted_ = true;
  non_finite_ = 0;
}

double JainFairnessIndex(const std::vector<double>& allocations) {
  if (allocations.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double a : allocations) {
    sum += a;
    sum_sq += a * a;
  }
  if (sum_sq == 0.0) {
    return 1.0;
  }
  return sum * sum / (static_cast<double>(allocations.size()) * sum_sq);
}

}  // namespace unifab
