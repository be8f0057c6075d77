#include "pgmcml/util/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pgmcml/util/matrix.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::util {
namespace {

/// Builds a CSC pattern + aligned value array from the nonzero entries of a
/// dense matrix (structural zeros can be forced in with `keep_zero`).
struct CscSystem {
  SparsePattern pattern;
  std::vector<double> values;
};

CscSystem from_dense(const Matrix& a, double keep_threshold = 0.0) {
  CscSystem out;
  const std::size_t n = a.rows();
  out.pattern.n = n;
  out.pattern.col_ptr.assign(n + 1, 0);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      if (std::fabs(a.at(r, c)) > keep_threshold || r == c) {
        out.pattern.rows.push_back(static_cast<std::int32_t>(r));
        out.values.push_back(a.at(r, c));
      }
    }
    out.pattern.col_ptr[c + 1] = static_cast<std::int32_t>(
        out.pattern.rows.size());
  }
  return out;
}

TEST(SparseLu, SolvesKnownSystem) {
  // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3.
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  CscSystem s = from_dense(a);
  SparseLu lu;
  lu.analyze(s.pattern);
  ASSERT_TRUE(lu.factorize(s.values));
  EXPECT_EQ(lu.status(), LuStatus::kOk);
  std::vector<double> x;
  lu.solve_into(std::vector<double>{5.0, 10.0}, x);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, RequiresPivoting) {
  // Zero on the leading diagonal: the MNA shape of an ideal voltage source.
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  CscSystem s = from_dense(a, -1.0);  // keep structural zeros
  SparseLu lu;
  lu.analyze(s.pattern);
  ASSERT_TRUE(lu.factorize(s.values));
  std::vector<double> x;
  lu.solve_into(std::vector<double>{2.0, 3.0}, x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, VoltageSourceBorderedSystem) {
  // Conductance block bordered by +-1 incidence rows/cols with a zero
  // diagonal block -- the exact structure voltage-source branches create.
  const std::size_t n = 4;
  Matrix a;
  a.resize(n, n);
  a.at(0, 0) = 2e-3;
  a.at(0, 1) = -1e-3;
  a.at(1, 0) = -1e-3;
  a.at(1, 1) = 3e-3;
  a.at(0, 3) = 1.0;
  a.at(3, 0) = 1.0;
  a.at(2, 2) = 5e-4;
  a.at(1, 2) = -2e-4;
  a.at(2, 1) = -2e-4;
  CscSystem s = from_dense(a, -1.0);
  SparseLu lu;
  lu.analyze(s.pattern);
  ASSERT_TRUE(lu.factorize(s.values));

  const std::vector<double> b{1e-3, 0.0, 2e-4, 1.2};
  std::vector<double> x_sparse;
  lu.solve_into(b, x_sparse);
  LuSolver dense;
  ASSERT_TRUE(dense.factorize(a));
  std::vector<double> x_dense;
  dense.solve_into(b, x_dense);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-9 * (1.0 + std::fabs(x_dense[i])));
  }
}

TEST(SparseLu, MatchesDenseOnRandomSparseSystems) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5 + static_cast<std::size_t>(trial) * 7 % 60;
    Matrix a;
    a.resize(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      a.at(r, r) = rng.uniform(1.0, 3.0);
      for (int e = 0; e < 4; ++e) {
        const auto c = static_cast<std::size_t>(rng.bounded(n));
        a.at(r, c) += rng.uniform(-0.4, 0.4);
      }
    }
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-2.0, 2.0);

    CscSystem s = from_dense(a);
    SparseLu lu;
    lu.analyze(s.pattern);
    ASSERT_TRUE(lu.factorize(s.values)) << "trial " << trial;
    std::vector<double> x_sparse;
    lu.solve_into(b, x_sparse);

    LuSolver dense;
    ASSERT_TRUE(dense.factorize(a));
    std::vector<double> x_dense;
    dense.solve_into(b, x_dense);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x_sparse[i], x_dense[i],
                  1e-9 * (1.0 + std::fabs(x_dense[i])))
          << "trial " << trial << " i " << i;
    }
  }
}

TEST(SparseLu, RefactorIsBitwiseIdenticalToFactorize) {
  // refactor() replays factorize()'s exact operation sequence, so the same
  // values must reproduce the same solution to the last bit.
  Rng rng(21);
  const std::size_t n = 24;
  Matrix a;
  a.resize(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    a.at(r, r) = rng.uniform(1.0, 2.0);
    a.at(r, (r + 3) % n) = rng.uniform(-0.5, 0.5);
    a.at((r + 7) % n, r) = rng.uniform(-0.5, 0.5);
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  CscSystem s = from_dense(a);
  SparseLu lu;
  lu.analyze(s.pattern);
  ASSERT_TRUE(lu.factorize(s.values));
  std::vector<double> x_factor;
  lu.solve_into(b, x_factor);

  ASSERT_TRUE(lu.refactor(s.values));
  std::vector<double> x_refactor;
  lu.solve_into(b, x_refactor);

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(x_factor[i], x_refactor[i]) << "i " << i;
  }
}

TEST(SparseLu, RefactorTracksNewValues) {
  Matrix a;
  a.resize(3, 3);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  a.at(2, 2) = 2.0;
  a.at(1, 2) = 0.5;
  CscSystem s = from_dense(a);
  SparseLu lu;
  lu.analyze(s.pattern);
  ASSERT_TRUE(lu.factorize(s.values));

  // Scale every entry: solution of Ax = b scales by 1/2.
  for (double& v : s.values) v *= 2.0;
  ASSERT_TRUE(lu.refactor(s.values));
  std::vector<double> x;
  lu.solve_into(std::vector<double>{8.0, 7.0, 2.0}, x);
  Matrix a2 = a;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a2.at(r, c) *= 2.0;
  }
  LuSolver dense;
  ASSERT_TRUE(dense.factorize(a2));
  std::vector<double> x_ref;
  dense.solve_into(std::vector<double>{8.0, 7.0, 2.0}, x_ref);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-12);
}

TEST(SparseLu, RefactorRejectsDecayedPivotThenFactorizeRecovers) {
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.5;
  CscSystem s = from_dense(a);
  SparseLu lu;
  lu.analyze(s.pattern);
  ASSERT_TRUE(lu.factorize(s.values));

  // New values annihilate the recorded pivot but keep the matrix regular.
  s.values = {1e-20, 1.0, 1.0, 1.0};  // column-major per pattern
  EXPECT_FALSE(lu.refactor(s.values));
  EXPECT_EQ(lu.status(), LuStatus::kSingular);
  ASSERT_TRUE(lu.factorize(s.values));  // fresh pivoting succeeds
  std::vector<double> x;
  lu.solve_into(std::vector<double>{1.0, 2.0}, x);
  EXPECT_NEAR(x[0], 1.0, 1e-9);  // 1e-20*x0 + x1 = 1, x0 + x1 = 2
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(SparseLu, DetectsSingularMatrix) {
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;  // linearly dependent rows
  CscSystem s = from_dense(a);
  SparseLu lu;
  lu.analyze(s.pattern);
  EXPECT_FALSE(lu.factorize(s.values));
  EXPECT_EQ(lu.status(), LuStatus::kSingular);
  EXPECT_FALSE(lu.has_factor());
}

TEST(SparseLu, DetectsNonFiniteValues) {
  Matrix a;
  a.resize(2, 2);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 1.0;
  CscSystem s = from_dense(a);
  s.values[0] = std::nan("");
  SparseLu lu;
  lu.analyze(s.pattern);
  EXPECT_FALSE(lu.factorize(s.values));
  EXPECT_EQ(lu.status(), LuStatus::kNonFinite);
}

TEST(SparseLu, FillInRatioAndNnzReported) {
  Rng rng(3);
  const std::size_t n = 30;
  Matrix a;
  a.resize(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    a.at(r, r) = 2.0;
    a.at(r, (r * 13 + 5) % n) += rng.uniform(-0.5, 0.5);
  }
  CscSystem s = from_dense(a);
  SparseLu lu;
  lu.analyze(s.pattern);
  EXPECT_EQ(lu.pattern_nnz(), s.pattern.nnz());
  EXPECT_EQ(lu.factor_nnz(), 0u);
  ASSERT_TRUE(lu.factorize(s.values));
  EXPECT_GE(lu.factor_nnz(), n);  // at least the diagonal
  EXPECT_GE(lu.fill_in_ratio(), 1.0 * static_cast<double>(lu.factor_nnz()) /
                                    static_cast<double>(s.pattern.nnz()) -
                                    1e-12);
}

TEST(SparsePattern, DigestIsStructureSensitive) {
  Matrix a;
  a.resize(3, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 1.0;
  a.at(2, 2) = 1.0;
  a.at(0, 1) = 1.0;
  const SparsePattern p1 = from_dense(a).pattern;
  const SparsePattern p1_again = from_dense(a).pattern;
  EXPECT_EQ(p1.digest(), p1_again.digest());

  a.at(1, 0) = 1.0;  // new structural entry
  const SparsePattern p2 = from_dense(a).pattern;
  EXPECT_NE(p1.digest(), p2.digest());
}

TEST(SparseLu, SolveBeforeFactorThrows) {
  SparseLu lu;
  std::vector<double> x;
  EXPECT_THROW(lu.solve_into(std::vector<double>{1.0}, x), std::logic_error);
}

}  // namespace
}  // namespace pgmcml::util
