// core::RelationOperator — the solver's only view of the joint R — and
// the symmetry of the joint R that its missing transposed product relies
// on.

#include "core/relation_operator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace core {
namespace {

data::MultiTypeRelationalData BlockWorld(data::RowCorruptionMode mode,
                                         double corrupted_fraction) {
  data::BlockWorldOptions o;
  o.objects_per_type = {24, 18, 12};
  o.n_classes = 3;
  o.dropout = 0.4;
  o.corrupted_fraction = corrupted_fraction;
  o.corruption_mode = mode;
  o.seed = 17;
  return data::GenerateBlockWorld(o).value();
}

std::size_t CountNonFinite(const la::Matrix& m) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) ++count;
    }
  }
  return count;
}

/// The solver takes Rᵀ·X as R·X, so the joint R must equal its transpose
/// in both builds — also once non-finite corruption has been zeroed (the
/// sanitised R is what the solver multiplies).
TEST(JointR, IsSymmetricInBothBuildsIncludingAfterSanitising) {
  for (double corrupted : {0.0, 0.25}) {
    data::MultiTypeRelationalData d =
        BlockWorld(data::RowCorruptionMode::kNonFinite, corrupted);
    la::Matrix dense = d.BuildJointR();
    la::SparseMatrix csr = d.BuildJointRSparse();
    const std::size_t planted = CountNonFinite(dense);
    if (corrupted > 0.0) {
      ASSERT_GT(planted, 0u);
    }
    EXPECT_EQ(dense.ReplaceNonFinite(0.0), planted);
    EXPECT_EQ(csr.ReplaceNonFinite(0.0), planted);
    EXPECT_EQ(la::MaxAbsDiff(dense, dense.Transposed()), 0.0)
        << "corrupted=" << corrupted;
    EXPECT_TRUE(csr.IsSymmetric(0.0)) << "corrupted=" << corrupted;
    const la::Matrix csr_dense = csr.ToDense();
    EXPECT_EQ(la::MaxAbsDiff(csr_dense, csr_dense.Transposed()), 0.0);
    EXPECT_EQ(la::MaxAbsDiff(csr_dense, dense), 0.0);
  }
}

TEST(RelationOperator, FromDataPicksStorageByDensity) {
  data::MultiTypeRelationalData d =
      BlockWorld(data::RowCorruptionMode::kSpike, 0.0);
  const double density = d.JointRDensity();
  ASSERT_GT(density, 0.0);
  ASSERT_LT(density, 1.0);
  EXPECT_EQ(RelationOperator::FromData(d, density).storage(),
            RelationOperator::Storage::kCsr);
  EXPECT_EQ(RelationOperator::FromData(d, 0.0).storage(),
            RelationOperator::Storage::kDense);
  EXPECT_EQ(RelationOperator::FromData(d, 1.0).storage(),
            RelationOperator::Storage::kCsr);
}

/// Both stores compute the same R·X, row norms and factored residual as
/// the dense reference kernels, and are bit-stable across pool sizes.
TEST(RelationOperator, StoresAgreeWithDenseReference) {
  data::MultiTypeRelationalData d =
      BlockWorld(data::RowCorruptionMode::kSpike, 0.2);
  const la::Matrix r = d.BuildJointR();
  const std::size_t n = r.rows();
  Rng rng(3);
  const la::Matrix x = la::Matrix::RandomUniform(n, 7, &rng);
  const la::Matrix h = la::Matrix::RandomUniform(n, 7, &rng);
  std::vector<double> scale(n);
  for (std::size_t i = 0; i < n; ++i) scale[i] = 1.0 / (1.0 + i);

  const la::Matrix want_product = la::Multiply(r, x);
  la::Matrix want_residual = la::MultiplyNT(h, x);
  want_residual.Scale(-1.0);
  want_residual.Add(r);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) want_residual(i, j) *= scale[i];
  }

  for (double threshold : {0.0, 1.0}) {
    SCOPED_TRACE("threshold=" + std::to_string(threshold));
    const RelationOperator op = RelationOperator::FromData(d, threshold);
    la::Matrix product1, product4;
    std::vector<double> norms1, norms4;
    {
      ScopedNumThreads pool(1);
      op.MultiplyInto(x, &product1);
      norms1 = op.RowNormsSquared();
    }
    {
      ScopedNumThreads pool(4);
      op.MultiplyInto(x, &product4);
      norms4 = op.RowNormsSquared();
    }
    EXPECT_EQ(la::MaxAbsDiff(product1, product4), 0.0);
    EXPECT_EQ(norms1, norms4);
    EXPECT_LT(la::MaxAbsDiff(product1, want_product), 1e-12);
    ASSERT_EQ(norms1.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      double want = 0.0;
      for (std::size_t j = 0; j < n; ++j) want += r(i, j) * r(i, j);
      EXPECT_NEAR(norms1[i], want, 1e-12 * (1.0 + want)) << "row " << i;
    }
    EXPECT_EQ(la::MaxAbsDiff(op.ScaledResidual(h, x, scale), want_residual),
              0.0);
  }
}

TEST(RelationOperator, ReplaceNonFiniteCountsAndZeroes) {
  data::MultiTypeRelationalData d =
      BlockWorld(data::RowCorruptionMode::kNonFinite, 0.25);
  const std::size_t planted = CountNonFinite(d.BuildJointR());
  ASSERT_GT(planted, 0u);
  for (double threshold : {0.0, 1.0}) {
    RelationOperator op = RelationOperator::FromData(d, threshold);
    EXPECT_EQ(op.ReplaceNonFinite(), planted) << "threshold=" << threshold;
    EXPECT_EQ(op.ReplaceNonFinite(), 0u) << "threshold=" << threshold;
    for (double v : op.RowNormsSquared()) EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace core
}  // namespace rhchme
