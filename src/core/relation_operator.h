// The joint relation matrix R as the solver sees it: a symmetric n x n
// operator behind a swappable store.
//
// Algorithm 2 (Eq. 15–27) touches R only through the products R·X with
// narrow n x c right-hand sides, the squared row norms ‖r_i‖² that anchor
// the analytic residual norms, and — after the fit, on request — the
// factored E_R = diag(s)·(R − H·Gᵀ). RelationOperator exposes exactly
// that, over one of two stores:
//
// - dense (la::Matrix): products run through la::MultiplyInto, the
//   packed tall-skinny GEMM. The one dense n x n allocation of a fit.
// - CSR (la::SparseMatrix): products run as SpMM, O(nnz·c); the fit then
//   allocates no dense n x n matrix at all.
//
// The joint R of data::MultiTypeRelationalData is symmetric by
// construction (SetRelation rejects k == l, and BuildJointR /
// BuildJointRSparse mirror every block), so the operator offers no
// transposed product: Rᵀ·X is R·X. The store is picked by the density
// rule of RhchmeOptions::sparse_r_density_threshold (FromData).
//
// Determinism: both stores' products chunk by output row independently
// of the pool size, so every method is bit-identical across thread
// counts (under a given dispatched kernel table).

#ifndef RHCHME_CORE_RELATION_OPERATOR_H_
#define RHCHME_CORE_RELATION_OPERATOR_H_

#include <cstddef>
#include <vector>

#include "data/multitype_data.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace rhchme {
namespace core {

class RelationOperator {
 public:
  enum class Storage { kDense, kCsr };

  /// Empty operator (an empty CSR store).
  RelationOperator() = default;
  explicit RelationOperator(la::Matrix dense);
  explicit RelationOperator(la::SparseMatrix csr);

  /// Builds the joint R of `data` as CSR when its density
  /// (data.JointRDensity(), counted without building R) is at most
  /// `csr_density_threshold`, dense otherwise.
  static RelationOperator FromData(const data::MultiTypeRelationalData& data,
                                   double csr_density_threshold);

  Storage storage() const { return storage_; }

  /// Writes R·X into `out` (resized as needed).
  void MultiplyInto(const la::Matrix& x, la::Matrix* out) const;

  /// ‖r_i‖² for every row i.
  std::vector<double> RowNormsSquared() const;

  /// Replaces NaN/Inf entries with zero; returns how many were replaced.
  std::size_t ReplaceNonFinite();

  /// Dense diag(scale)·(R − H·Gᵀ) — the factored error matrix E_R of a
  /// fit, rebuilt on demand. Allocates one dense n x n matrix.
  la::Matrix ScaledResidual(const la::Matrix& h, const la::Matrix& g,
                            const std::vector<double>& scale) const;

 private:
  Storage storage_ = Storage::kCsr;
  la::Matrix dense_;
  la::SparseMatrix csr_;
};

}  // namespace core
}  // namespace rhchme

#endif  // RHCHME_CORE_RELATION_OPERATOR_H_
