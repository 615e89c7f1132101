// Measurement utilities shared by tests, benchmarks, and runtime policies.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace unifab {

// Accumulates scalar samples and answers summary queries. Samples are kept
// (not binned), so percentiles are exact; simulations here are short enough
// that memory is not a concern.
class Summary {
 public:
  // Records a sample. Non-finite values (NaN/inf) are rejected and counted
  // instead: one NaN would poison std::sort's strict weak ordering (UB) and
  // every aggregate derived from the samples.
  void Add(double v);

  std::size_t Count() const { return samples_.size(); }
  bool Empty() const { return samples_.empty(); }
  // Samples rejected by Add for being non-finite.
  std::uint64_t NonFiniteDropped() const { return non_finite_; }
  double Sum() const { return sum_; }
  // Aggregates over an empty summary deterministically report the same 0.0
  // sentinel Percentile uses, instead of dividing by zero / dereferencing
  // an empty vector in release builds.
  double Mean() const;
  double Min() const;
  double Max() const;
  double Stddev() const;

  // Exact percentile by nearest-rank. p is clamped into [0, 100] (p < 0
  // reads the minimum, p > 100 the maximum); NaN p and an empty summary
  // both deterministically report the 0.0 sentinel (so e.g. a p99 over
  // zero completed operations reads as zero latency instead of UB).
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double P99() const { return Percentile(99.0); }

  void Clear();

 private:
  void SortIfNeeded() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
  std::uint64_t non_finite_ = 0;
};

// Jain's fairness index over per-flow throughput: 1.0 = perfectly fair,
// 1/n = maximally unfair. Used by the arbiter benchmarks.
double JainFairnessIndex(const std::vector<double>& allocations);

}  // namespace unifab

#endif  // SRC_SIM_STATS_H_
