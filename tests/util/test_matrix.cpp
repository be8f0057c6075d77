#include "pgmcml/util/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pgmcml/util/rng.hpp"

namespace pgmcml::util {
namespace {

TEST(Matrix, StoresValuesRowMajor) {
  Matrix m;
  m.resize(2, 3);
  m.at(0, 0) = 1.0;
  m.at(0, 2) = 2.0;
  m.at(1, 1) = 3.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(Matrix, FillOverwritesEverything) {
  Matrix m;
  m.resize(3, 3);
  m.at(1, 1) = 7.0;
  m.fill(0.5);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(m.at(r, c), 0.5);
    }
  }
}

TEST(LuSolver, SolvesIdentity) {
  Matrix a;
  a.resize(3, 3);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  const std::vector<double> b{1.0, 2.0, 3.0};
  LuSolver lu;
  ASSERT_TRUE(lu.factorize(a));
  std::vector<double> x;
  lu.solve_into(b, x);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(LuSolver, SolvesKnownSystem) {
  // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3.
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  const std::vector<double> b{5.0, 10.0};
  LuSolver lu;
  ASSERT_TRUE(lu.factorize(a));
  std::vector<double> x;
  lu.solve_into(b, x);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolver, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const std::vector<double> b{2.0, 3.0};
  LuSolver lu;
  ASSERT_TRUE(lu.factorize(a));
  std::vector<double> x;
  lu.solve_into(b, x);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolver, DetectsSingularMatrix) {
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;  // linearly dependent rows
  LuSolver solver;
  EXPECT_FALSE(solver.factorize(a));
}

TEST(LuSolver, FactorizationReusableAcrossRhs) {
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  LuSolver solver;
  ASSERT_TRUE(solver.factorize(a));
  std::vector<double> x1, x2;
  solver.solve_into(std::vector<double>{5.0, 4.0}, x1);
  solver.solve_into(std::vector<double>{9.0, 7.0}, x2);
  EXPECT_NEAR(4.0 * x1[0] + x1[1], 5.0, 1e-12);
  EXPECT_NEAR(x1[0] + 3.0 * x1[1], 4.0, 1e-12);
  EXPECT_NEAR(4.0 * x2[0] + x2[1], 9.0, 1e-12);
  EXPECT_NEAR(x2[0] + 3.0 * x2[1], 7.0, 1e-12);
}

TEST(LuSolver, RandomSystemsRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + trial % 30;
    Matrix a;
    a.resize(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        a.at(r, c) = rng.uniform(-1.0, 1.0);
      }
      a.at(r, r) += 2.0;  // diagonally dominant-ish, well conditioned
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-5.0, 5.0);
    std::vector<double> b(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) b[r] += a.at(r, c) * x_true[c];
    }
    LuSolver lu;
    ASSERT_TRUE(lu.factorize(a));
    std::vector<double> x;
    lu.solve_into(b, x);
    ASSERT_EQ(x.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-8) << "n=" << n << " i=" << i;
    }
  }
}

TEST(LuSolver, ThrowsOnNonSquare) {
  Matrix a;
  a.resize(2, 3);
  LuSolver solver;
  EXPECT_THROW(solver.factorize(a), std::invalid_argument);
}

}  // namespace
}  // namespace pgmcml::util
