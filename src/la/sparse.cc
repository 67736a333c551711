#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace la {

SparseMatrix SparseMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    RHCHME_CHECK(t.row < rows && t.col < cols, "triplet out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.cols_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  while (i < triplets.size()) {
    std::size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    if (sum != 0.0) {
      m.cols_idx_.push_back(triplets[i].col);
      m.values_.push_back(sum);
      ++m.row_ptr_[triplets[i].row + 1];
    }
    i = j;
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

SparseMatrix SparseMatrix::FromDense(const Matrix& dense, double prune_tol) {
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      if (std::fabs(dense(i, j)) > prune_tol) {
        trips.push_back({i, j, dense(i, j)});
      }
    }
  }
  return FromTriplets(dense.rows(), dense.cols(), std::move(trips));
}

double SparseMatrix::Density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::size_t SparseMatrix::ReplaceNonFinite(double value) {
  std::size_t replaced = 0;
  for (double& v : values_) {
    if (!std::isfinite(v)) {
      v = value;
      ++replaced;
    }
  }
  return replaced;
}

double SparseMatrix::At(std::size_t i, std::size_t j) const {
  RHCHME_CHECK(i < rows_ && j < cols_, "At: index out of range");
  const auto begin = cols_idx_.begin() + row_ptr_[i];
  const auto end = cols_idx_.begin() + row_ptr_[i + 1];
  auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(it - cols_idx_.begin())];
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      d(i, cols_idx_[k]) = values_[k];
    }
  }
  return d;
}

void SparseMatrix::MultiplyDenseInto(const Matrix& b, Matrix* c) const {
  RHCHME_CHECK(b.rows() == cols_, "MultiplyDense: dims mismatch");
  c->Resize(rows_, b.cols());
  const std::size_t n = b.cols();
  // Output rows are independent; each chunk gathers its own rows' nonzeros.
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  util::ParallelFor(
      0, rows_, util::GrainForWork(2 * nnz_per_row * (n + 1)),
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          double* ci = c->row_ptr(i);
          for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
            simd::Axpy(values_[k], b.row_ptr(cols_idx_[k]), ci, n);
          }
        }
      });
}

Matrix SparseMatrix::MultiplyDense(const Matrix& b) const {
  Matrix c;
  MultiplyDenseInto(b, &c);
  return c;
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> s(rows_, 0.0);
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  util::ParallelFor(0, rows_, util::GrainForWork(nnz_per_row),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        double acc = 0.0;
                        for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1];
                             ++k) {
                          acc += values_[k];
                        }
                        s[i] = acc;
                      }
                    });
  return s;
}

std::vector<double> SparseMatrix::RowNormsSquared() const {
  std::vector<double> s(rows_, 0.0);
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  util::ParallelFor(0, rows_, util::GrainForWork(2 * nnz_per_row),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        double acc = 0.0;
                        for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1];
                             ++k) {
                          acc += values_[k] * values_[k];
                        }
                        s[i] = acc;
                      }
                    });
  return s;
}

bool SparseMatrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (std::fabs(values_[k] - At(cols_idx_[k], i)) > tol) return false;
    }
  }
  return true;
}

namespace {

/// Shared filter behind the ± parts: keeps entries selected by `keep`,
/// storing `map(v)`. The CSR scan preserves the (row, col) order, so the
/// triplets arrive pre-sorted and FromTriplets' sort is near-free.
template <typename Keep, typename Map>
SparseMatrix FilterEntries(const SparseMatrix& m, Keep keep, Map map) {
  const auto& offsets = m.row_offsets();
  const auto& cols = m.col_indices();
  const auto& vals = m.values();
  std::vector<Triplet> trips;
  trips.reserve(m.nnz());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (keep(vals[k])) trips.push_back({i, cols[k], map(vals[k])});
    }
  }
  return SparseMatrix::FromTriplets(m.rows(), m.cols(), std::move(trips));
}

}  // namespace

SparseMatrix PositivePart(const SparseMatrix& m) {
  return FilterEntries(
      m, [](double v) { return v > 0.0; }, [](double v) { return v; });
}

SparseMatrix NegativePart(const SparseMatrix& m) {
  return FilterEntries(
      m, [](double v) { return v < 0.0; }, [](double v) { return -v; });
}

double Sandwich(const Matrix& g, const SparseMatrix& l) {
  RHCHME_CHECK(l.rows() == l.cols() && l.rows() == g.rows(),
               "Sandwich: shape mismatch");
  const std::size_t n = g.rows(), c = g.cols();
  if (n == 0 || c == 0 || l.nnz() == 0) return 0.0;
  const auto& offsets = l.row_offsets();
  const auto& cols = l.col_indices();
  const auto& vals = l.values();
  // tr(Gᵀ L G) = Σ_i Σ_{k ∈ row i} l_ik · (g_i · g_k). Rows are
  // independent; ParallelSum combines per-chunk partials in chunk order,
  // and chunk boundaries depend only on (n, grain), so the reduction tree
  // — and the result — is thread-count invariant.
  const std::size_t nnz_per_row = l.nnz() / n + 1;
  const std::size_t grain = util::GrainForWork(2 * nnz_per_row * c + 1);
  return util::ParallelSum(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    double acc = 0.0;
    for (std::size_t i = r0; i < r1; ++i) {
      const double* gi = g.row_ptr(i);
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        acc += vals[k] * simd::Dot(gi, g.row_ptr(cols[k]), c);
      }
    }
    return acc;
  });
}

}  // namespace la
}  // namespace rhchme
