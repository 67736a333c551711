#include "core/relation_operator.h"

#include <utility>

#include "la/gemm.h"
#include "util/parallel.h"

namespace rhchme {
namespace core {

RelationOperator::RelationOperator(la::Matrix dense)
    : storage_(Storage::kDense), dense_(std::move(dense)) {}

RelationOperator::RelationOperator(la::SparseMatrix csr)
    : storage_(Storage::kCsr), csr_(std::move(csr)) {}

RelationOperator RelationOperator::FromData(
    const data::MultiTypeRelationalData& data, double csr_density_threshold) {
  if (data.JointRDensity() <= csr_density_threshold) {
    return RelationOperator(data.BuildJointRSparse());
  }
  return RelationOperator(data.BuildJointR());
}

void RelationOperator::MultiplyInto(const la::Matrix& x,
                                    la::Matrix* out) const {
  if (storage_ == Storage::kDense) {
    la::MultiplyInto(dense_, x, out);
  } else {
    csr_.MultiplyDenseInto(x, out);
  }
}

std::vector<double> RelationOperator::RowNormsSquared() const {
  if (storage_ == Storage::kCsr) return csr_.RowNormsSquared();
  const std::size_t n = dense_.rows();
  std::vector<double> out(n, 0.0);
  util::ParallelFor(0, n, util::GrainForWork(2 * n + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        const double* ri = dense_.row_ptr(i);
                        double sum = 0.0;
                        for (std::size_t j = 0; j < n; ++j) {
                          sum += ri[j] * ri[j];
                        }
                        out[i] = sum;
                      }
                    });
  return out;
}

std::size_t RelationOperator::ReplaceNonFinite() {
  return storage_ == Storage::kDense ? dense_.ReplaceNonFinite(0.0)
                                     : csr_.ReplaceNonFinite(0.0);
}

la::Matrix RelationOperator::ScaledResidual(
    const la::Matrix& h, const la::Matrix& g,
    const std::vector<double>& scale) const {
  la::Matrix q = la::MultiplyNT(h, g);  // H·Gᵀ
  q.Scale(-1.0);
  if (storage_ == Storage::kDense) q.Add(dense_);
  const std::vector<std::size_t>& offsets = csr_.row_offsets();
  const std::vector<std::size_t>& cols = csr_.col_indices();
  const std::vector<double>& vals = csr_.values();
  util::ParallelFor(0, q.rows(), util::GrainForWork(2 * q.cols() + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        double* qi = q.row_ptr(i);
                        if (storage_ == Storage::kCsr) {
                          for (std::size_t k = offsets[i];
                               k < offsets[i + 1]; ++k) {
                            qi[cols[k]] += vals[k];
                          }
                        }
                        const double s = scale[i];
                        for (std::size_t j = 0; j < q.cols(); ++j) {
                          qi[j] *= s;
                        }
                      }
                    });
  return q;
}

}  // namespace core
}  // namespace rhchme
