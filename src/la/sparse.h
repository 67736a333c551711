// Compressed-sparse-row matrix.
//
// The inter-type relationship matrix R and pNN affinity graphs are sparse
// (tf-idf blocks, p edges per object). CSR keeps graph construction and
// sparse-dense products cheap; solvers densify only when an algorithm is
// inherently dense (e.g. the RHCHME solver stores a joint R above its
// density threshold dense). Every product the library needs runs over
// output rows (A·B, row sums, row norms): the solver's joint R is
// symmetric, so it never needs a transposed product.

#ifndef RHCHME_LA_SPARSE_H_
#define RHCHME_LA_SPARSE_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"
#include "util/status.h"

namespace rhchme {
namespace la {

/// One (row, col, value) entry used to build a SparseMatrix.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// CSR matrix: a plain value type (copies are deep). Duplicate triplets
/// are summed at build time; explicit zeros are dropped. The structure is
/// fixed after construction; the only mutator, ReplaceNonFinite, rewrites
/// values in place.
///
/// Thread-safety: the usual const/non-const contract — concurrent const
/// access is safe, the mutator requires exclusive access.
///
/// Determinism: every product accumulates each output row in ascending
/// column order with one output row per index, so results are
/// bit-identical for any pool size.
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  /// Builds from triplets (any order; duplicates summed; zeros pruned).
  static SparseMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets);

  /// Converts a dense matrix, dropping entries with |v| <= prune_tol.
  static SparseMatrix FromDense(const Matrix& dense, double prune_tol = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Fraction of entries stored: nnz / (rows*cols); 0 for empty shapes.
  double Density() const;

  const std::vector<std::size_t>& row_offsets() const { return row_ptr_; }
  const std::vector<std::size_t>& col_indices() const { return cols_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Replaces NaN/Inf stored values with `value`; returns how many were
  /// replaced (structure unchanged).
  std::size_t ReplaceNonFinite(double value);

  /// Value at (i, j) — binary search within the row; O(log nnz_row).
  double At(std::size_t i, std::size_t j) const;

  /// Dense copy.
  Matrix ToDense() const;

  /// C = A·B for dense B (resizes `c`).
  void MultiplyDenseInto(const Matrix& b, Matrix* c) const;
  Matrix MultiplyDense(const Matrix& b) const;

  /// Per-row sums (degree vector when A is an affinity matrix).
  std::vector<double> RowSums() const;

  /// Per-row squared Euclidean norms: out[i] = Σ_j a_ij². The solver core
  /// caches these once per fit on a CSR-stored R — the analytic residual
  /// row norms ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ + h_i·(GᵀG)·h_iᵀ start from
  /// them.
  std::vector<double> RowNormsSquared() const;

  /// True when A equals its transpose up to `tol`.
  bool IsSymmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_ptr_;   // size rows_+1
  std::vector<std::size_t> cols_idx_;  // size nnz
  std::vector<double> values_;         // size nnz
};

/// Entrywise positive part (|M| + M)/2 of a sparse matrix: keeps the
/// strictly positive entries, drops the rest. A structure-level filter —
/// the ±-split of the multiplicative update (paper Eq. 21) stays sparse,
/// with patterns contained in M's.
SparseMatrix PositivePart(const SparseMatrix& m);

/// Entrywise negative part (|M| - M)/2: the negated strictly negative
/// entries (result is entrywise nonnegative).
SparseMatrix NegativePart(const SparseMatrix& m);

/// tr(Gᵀ L G) against a sparse L — the ensemble-regulariser term of the
/// RHCHME objective evaluated in O(nnz · c). Per-row traces are staged
/// row-indexed and reduced in fixed chunk order, so the value is
/// bit-identical for any pool size. Requires L square with
/// l.rows() == g.rows().
double Sandwich(const Matrix& g, const SparseMatrix& l);

}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_SPARSE_H_
