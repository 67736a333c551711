// Unit tests for the CSR SparseMatrix: build/round-trip correctness,
// products and reductions against the dense kernels, value semantics of
// copies, and bit-stability across thread counts.

#include "la/sparse.h"

#include <gtest/gtest.h>

#include <cmath>

#include "la/gemm.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace la {
namespace {

/// Random rectangular matrix sparsified to roughly `density`.
Matrix RandomSparseDense(std::size_t r, std::size_t c, double density,
                         uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::RandomUniform(r, c, &rng);
  m.Apply([&](double v) { return v < 1.0 - density ? 0.0 : v; });
  return m;
}

TEST(Sparse, EmptyMatrix) {
  SparseMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.Density(), 0.0);
}

TEST(Sparse, FromTripletsBasic) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 4, {{0, 1, 2.0}, {2, 3, -1.0}, {1, 0, 5.0}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.At(2, 3), -1.0);
  EXPECT_EQ(m.At(1, 0), 5.0);
  EXPECT_EQ(m.At(0, 0), 0.0);
}

TEST(Sparse, DuplicatesAreSummed) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.At(0, 0), 3.5);
}

TEST(Sparse, ZerosArePruned) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, -1.0}, {1, 1, 0.0}});
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(Sparse, DenseRoundTrip) {
  Rng rng(1);
  Matrix dense = Matrix::RandomUniform(6, 9, &rng);
  // Sparsify a bit.
  dense.Apply([](double v) { return v < 0.6 ? 0.0 : v; });
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  EXPECT_LT(MaxAbsDiff(sparse.ToDense(), dense), 1e-15);
}

TEST(Sparse, FromDenseWithPruneTolerance) {
  Matrix dense = Matrix::FromRows({{0.5, 0.01}, {0.0, 2.0}});
  SparseMatrix sparse = SparseMatrix::FromDense(dense, 0.1);
  EXPECT_EQ(sparse.nnz(), 2u);
  EXPECT_EQ(sparse.At(0, 1), 0.0);
}

TEST(Sparse, Density) {
  SparseMatrix m = SparseMatrix::FromTriplets(4, 5, {{0, 0, 1.0}, {3, 4, 1.0}});
  EXPECT_DOUBLE_EQ(m.Density(), 2.0 / 20.0);
}

TEST(Sparse, MultiplyDenseMatchesDense) {
  Rng rng(4);
  Matrix a = Matrix::RandomUniform(6, 5, &rng);
  a.Apply([](double v) { return v < 0.5 ? 0.0 : v; });
  Matrix b = Matrix::RandomNormal(5, 3, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(a);
  EXPECT_LT(MaxAbsDiff(sparse.MultiplyDense(b), Multiply(a, b)), 1e-12);
}

TEST(Sparse, RowNormsSquaredMatchDense) {
  Rng rng(31);
  Matrix dense = RandomSparseDense(7, 9, 0.4, 31);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  std::vector<double> got = sparse.RowNormsSquared();
  ASSERT_EQ(got.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    double expected = 0.0;
    for (std::size_t j = 0; j < 9; ++j) expected += dense(i, j) * dense(i, j);
    EXPECT_NEAR(got[i], expected, 1e-12) << "row " << i;
  }
}

TEST(Sparse, RowNormsSquaredEmptyAndZeroRows) {
  EXPECT_TRUE(SparseMatrix().RowNormsSquared().empty());
  SparseMatrix m = SparseMatrix::FromTriplets(3, 3, {{0, 1, 2.0}});
  std::vector<double> norms = m.RowNormsSquared();
  EXPECT_EQ(norms[0], 4.0);
  EXPECT_EQ(norms[1], 0.0);
  EXPECT_EQ(norms[2], 0.0);
}

TEST(Sparse, RowSumsMatchDense) {
  Rng rng(6);
  Matrix dense = Matrix::RandomUniform(5, 5, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  std::vector<double> expected = dense.RowSums();
  std::vector<double> got = sparse.RowSums();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(got[i], expected[i], 1e-12);
}

TEST(Sparse, SymmetryCheck) {
  SparseMatrix sym = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0}, {1, 0, 2.0}, {2, 2, 1.0}});
  EXPECT_TRUE(sym.IsSymmetric());
  SparseMatrix asym = SparseMatrix::FromTriplets(3, 3, {{0, 1, 2.0}});
  EXPECT_FALSE(asym.IsSymmetric());
  SparseMatrix rect = SparseMatrix::FromTriplets(2, 3, {});
  EXPECT_FALSE(rect.IsSymmetric());
}

TEST(Sparse, UnsortedTripletsAreOrdered) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{2, 2, 1.0}, {0, 2, 2.0}, {0, 0, 3.0}, {1, 1, 4.0}});
  // CSR row offsets must be monotone and consistent.
  const auto& offsets = m.row_offsets();
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[3], 4u);
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    EXPECT_LE(offsets[i], offsets[i + 1]);
  }
  EXPECT_EQ(m.At(0, 0), 3.0);
  EXPECT_EQ(m.At(0, 2), 2.0);
}

// ---- ±-split and Sandwich (memory-lean solver algebra) ---------------------

TEST(Sparse, PositiveAndNegativePartsMatchDense) {
  Rng rng(41);
  Matrix d = Matrix::RandomNormal(7, 9, &rng);
  d.Apply([](double v) { return std::fabs(v) < 0.8 ? 0.0 : v; });
  SparseMatrix m = SparseMatrix::FromDense(d);
  SparseMatrix pos = PositivePart(m);
  SparseMatrix neg = NegativePart(m);
  EXPECT_EQ(MaxAbsDiff(pos.ToDense(), PositivePart(d)), 0.0);
  EXPECT_EQ(MaxAbsDiff(neg.ToDense(), NegativePart(d)), 0.0);
  // The split partitions the pattern: pos and neg together hold exactly
  // m's nonzeros, and both are entrywise nonnegative.
  EXPECT_EQ(pos.nnz() + neg.nnz(), m.nnz());
  for (double v : pos.values()) EXPECT_GT(v, 0.0);
  for (double v : neg.values()) EXPECT_GT(v, 0.0);
}

TEST(Sparse, PartsOfEmptyMatrixAreEmpty) {
  SparseMatrix m;
  EXPECT_EQ(PositivePart(m).nnz(), 0u);
  EXPECT_EQ(NegativePart(m).nnz(), 0u);
}

TEST(Sparse, SandwichMatchesExplicitTrace) {
  Rng rng(42);
  const std::size_t n = 24, c = 5;
  Matrix l_dense = RandomSparseDense(n, n, 0.3, 43);
  SparseMatrix l = SparseMatrix::FromDense(l_dense);
  Matrix g = Matrix::RandomUniform(n, c, &rng);
  // tr(Gᵀ L G) = <L·G, G>_F with L densified.
  EXPECT_NEAR(Sandwich(g, l), FrobeniusInner(Multiply(l_dense, g), g), 1e-10);
}

TEST(Sparse, SandwichEmptyIsZero) {
  EXPECT_EQ(Sandwich(Matrix(), SparseMatrix()), 0.0);
  SparseMatrix l = SparseMatrix::FromTriplets(4, 4, {});
  EXPECT_EQ(Sandwich(Matrix(4, 3), l), 0.0);
}

TEST(Sparse, SandwichIsBitStableAcrossThreadCounts) {
  const std::size_t n = 400, c = 12;
  Matrix l_dense = RandomSparseDense(n, n, 0.05, 44);
  SparseMatrix l = SparseMatrix::FromDense(l_dense);
  Rng rng(45);
  Matrix g = Matrix::RandomUniform(n, c, &rng);
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    return Sandwich(g, l);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Sparse, CopyIsDeep) {
  SparseMatrix original = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, std::nan("")}, {1, 1, 2.0}});
  SparseMatrix copy = original;
  // Mutating the original must not reach the copy's values.
  EXPECT_EQ(original.ReplaceNonFinite(0.0), 1u);
  EXPECT_TRUE(std::isnan(copy.At(0, 0)));
  EXPECT_EQ(copy.At(1, 1), 2.0);
}

}  // namespace
}  // namespace la
}  // namespace rhchme
