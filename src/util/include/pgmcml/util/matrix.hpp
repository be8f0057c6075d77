// Dense linear algebra for modified nodal analysis.
//
// LuSolver is the engine's REFERENCE backend: a straightforward dense LU
// with partial pivoting that re-factors from scratch on every Newton
// iteration.  The production path is the sparse structure-reusing solver
// in sparse.hpp (cached symbolic analysis + numeric refactorization);
// the dense backend remains selectable via SolverBackend::kDense so every
// sparse result can be checked against an independent implementation, and
// Matrix itself serves the small fixed-size systems elsewhere in the repo.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pgmcml::util {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  void fill(double value);
  void resize(std::size_t rows, std::size_t cols);

  /// data in row-major order.
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Why a factorization failed (or kOk).
enum class LuStatus {
  kOk,
  kSingular,   ///< a pivot fell below the (scale-aware) singularity threshold
  kNonFinite,  ///< the input matrix contains NaN or Inf
};

/// LU factorization with partial pivoting; reusable across solves.
class LuSolver {
 public:
  /// Factorizes `a` in place (a copy is kept internally).
  /// Returns false if the matrix is numerically singular or contains
  /// non-finite entries; `status()` distinguishes the two.
  bool factorize(const Matrix& a);

  /// Outcome of the last factorize() call.
  LuStatus status() const { return status_; }

  /// Solves LUx = b into `x`, reusing its capacity; `factorize` must have
  /// succeeded first.  The Newton hot loop calls this once per iteration
  /// with a persistent buffer.
  void solve_into(std::span<const double> b, std::vector<double>& x) const;

  std::size_t dimension() const { return lu_.rows(); }

 private:
  Matrix lu_;
  std::vector<std::size_t> pivots_;
  bool ok_ = false;
  LuStatus status_ = LuStatus::kSingular;
};

}  // namespace pgmcml::util
