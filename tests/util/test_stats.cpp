#include "pgmcml/util/stats.hpp"

#include <gtest/gtest.h>

namespace pgmcml::util {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, HammingWeight) {
  EXPECT_EQ(hamming_weight(0), 0);
  EXPECT_EQ(hamming_weight(0xFF), 8);
  EXPECT_EQ(hamming_weight(0x53), 4);
  EXPECT_EQ(hamming_weight(~0ULL), 64);
}

TEST(Stats, LerpInterpolatesAndHandlesDegenerate) {
  EXPECT_DOUBLE_EQ(lerp(0.0, 0.0, 1.0, 10.0, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 7.0, 2.0, 9.0, 2.0), 7.0);  // x0 == x1
}

}  // namespace
}  // namespace pgmcml::util
