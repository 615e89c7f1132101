// Statistics and RNG tests, including determinism properties the whole
// simulator relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace unifab {
namespace {

// ------------------------------- Summary ---------------------------------

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.Count(), 4u);
  EXPECT_DOUBLE_EQ(s.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_NEAR(s.Stddev(), std::sqrt(1.25), 1e-12);
}

TEST(SummaryTest, PercentilesAreExactByNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.P99(), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.Median(), 50.0);
}

TEST(SummaryTest, PercentileAfterInterleavedAdds) {
  Summary s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
  s.Add(1.0);  // adding after a percentile query must re-sort
  s.Add(9.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
}

TEST(SummaryTest, ClearResets) {
  Summary s;
  s.Add(1.0);
  s.Clear();
  EXPECT_TRUE(s.Empty());
  EXPECT_DOUBLE_EQ(s.Sum(), 0.0);
}

// ---------------------------- Jain fairness ------------------------------

TEST(JainTest, EqualAllocationsArePerfectlyFair) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5.0, 5.0, 5.0}), 1.0);
}

TEST(JainTest, SingleWinnerGivesOneOverN) {
  EXPECT_NEAR(JainFairnessIndex({9.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
}

TEST(JainTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0.0, 0.0}), 1.0);
}

// -------------------------------- Rng ------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(7);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.NextBelow(8)];
  }
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_GT(counts[v], 800) << "value " << v << " under-represented";
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) {
      ++heads;
    }
  }
  EXPECT_NEAR(static_cast<double>(heads) / 10000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    sum += rng.NextExponential(42.0);
  }
  EXPECT_NEAR(sum / 20000.0, 42.0, 1.5);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// -------------------------------- Zipf ------------------------------------

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  ZipfGenerator zipf(3, 0.99, 1000);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Next()];
  }
  // Rank 0 dominates rank 100 by a wide margin.
  EXPECT_GT(counts[0], 10 * counts[100]);
  // Monotone-ish: the top rank is the most popular.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(), 0);
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfGenerator zipf(3, 0.0, 100);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Next()];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 1000, 250);
  }
}

TEST(ZipfTest, DeterministicForSeed) {
  ZipfGenerator a(5, 0.8, 64);
  ZipfGenerator b(5, 0.8, 64);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

// ------------------------------- Time ------------------------------------

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(FromNs(5.4), 5400u);
  EXPECT_DOUBLE_EQ(ToNs(FromNs(111.7)), 111.7);
  EXPECT_EQ(FromUs(1.0), kTicksPerUs);
  EXPECT_EQ(FromMs(1.0), kTicksPerMs);
  EXPECT_DOUBLE_EQ(ToSec(kTicksPerSec), 1.0);
}

TEST(TimeTest, SerializationDelayNeverZero) {
  EXPECT_GE(SerializationDelay(1, 1000.0), 1u);
  // 64 bytes at 64 GB/s = 1 ns = 1000 ticks.
  EXPECT_EQ(SerializationDelay(64, 64.0), 1000u);
}

}  // namespace
}  // namespace unifab
