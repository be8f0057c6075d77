#include "pgmcml/util/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace pgmcml::util {

void Matrix::fill(double value) {
  for (double& x : data_) x = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

bool LuSolver::factorize(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("LuSolver: matrix must be square");
  }
  const std::size_t n = a.rows();
  lu_ = a;
  pivots_.resize(n);
  ok_ = true;
  status_ = LuStatus::kOk;

  // Non-finite entries would silently defeat the pivot search (NaN
  // comparisons are all false) and propagate garbage through the
  // substitutions, so reject them up front.  Record each column's original
  // scale while scanning: MNA systems legitimately mix pivots many decades
  // apart (gmin-only nodes next to capacitor companion conductances), so
  // singularity must be judged per column, not against the global maximum.
  std::vector<double> col_scale(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const double v = lu_.at(r, c);
      if (!std::isfinite(v)) {
        ok_ = false;
        status_ = LuStatus::kNonFinite;
        return false;
      }
      col_scale[c] = std::max(col_scale[c], std::fabs(v));
    }
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude in column k.
    std::size_t pivot = k;
    double best = std::fabs(lu_.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu_.at(r, k));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    pivots_[k] = pivot;
    // A pivot annihilated to rounding noise relative to its own column's
    // original scale means the column was a linear combination of earlier
    // ones: numerically singular even though not literally zero.
    if (best < std::max(1e-300, 1e-13 * col_scale[k])) {
      ok_ = false;
      status_ = LuStatus::kSingular;
      return false;
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_.at(k, c), lu_.at(pivot, c));
      }
    }
    const double inv_diag = 1.0 / lu_.at(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_.at(r, k) * inv_diag;
      lu_.at(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu_.at(r, c) -= factor * lu_.at(k, c);
      }
    }
  }
  return true;
}

void LuSolver::solve_into(std::span<const double> b,
                          std::vector<double>& x) const {
  const std::size_t n = lu_.rows();
  if (!ok_ || b.size() != n) {
    throw std::logic_error("LuSolver::solve called without valid factorization");
  }
  x.assign(b.begin(), b.end());
  // Factorization swapped full rows (LAPACK convention), so the entire
  // permutation must be applied to the RHS before substitution begins.
  for (std::size_t k = 0; k < n; ++k) {
    if (pivots_[k] != k) std::swap(x[k], x[pivots_[k]]);
  }
  // Forward substitution with unit-diagonal L.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t r = k + 1; r < n; ++r) {
      x[r] -= lu_.at(r, k) * x[k];
    }
  }
  // Back substitution.
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t c = k + 1; c < n; ++c) {
      x[k] -= lu_.at(k, c) * x[c];
    }
    x[k] /= lu_.at(k, k);
  }
}

}  // namespace pgmcml::util
