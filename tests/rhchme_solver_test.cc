// Unit and property tests for the RHCHME solver (paper Algorithm 2),
// including the Theorem 1 monotone-descent property.

#include "core/rhchme_solver.h"

#include <gtest/gtest.h>

#include <cmath>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "data/corruption.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "factorization/hocc_common.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "scoped_num_threads.h"

namespace rhchme {
namespace core {
namespace {

data::MultiTypeRelationalData SmallData(uint64_t seed = 21) {
  data::BlockWorldOptions o;
  o.objects_per_type = {24, 18, 12};
  o.n_classes = 3;
  o.seed = seed;
  return data::GenerateBlockWorld(o).value();
}

/// sparse_r_density_threshold values that pin the joint R's store: every
/// nonzero R is denser than 0, and no R is denser than 1.
constexpr double kDenseStorage = 0.0;
constexpr double kCsrStorage = 1.0;

RhchmeOptions FastOptions() {
  RhchmeOptions opts;
  opts.max_iterations = 25;
  opts.lambda = 1.0;
  opts.beta = 50.0;
  opts.ensemble.subspace.spg.max_iterations = 20;
  return opts;
}

TEST(RhchmeOptions, Validation) {
  EXPECT_TRUE(FastOptions().Validate().ok());
  RhchmeOptions o = FastOptions();
  o.lambda = -1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = FastOptions();
  o.beta = -1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = FastOptions();
  o.max_iterations = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = FastOptions();
  o.ensemble.include_knn = false;
  o.ensemble.include_subspace = false;
  EXPECT_FALSE(o.Validate().ok());
  // The storage threshold must be a density.
  o = FastOptions();
  o.sparse_r_density_threshold = -0.1;
  EXPECT_FALSE(o.Validate().ok());
  o = FastOptions();
  o.sparse_r_density_threshold = 1.5;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(Rhchme, SurvivesNonFiniteCorruptedInput) {
  // End-to-end guard check: a block world whose corrupted rows carry
  // NaN/Inf (not spikes) must still fit — input sanitization zeroes the
  // poison, counts it, and every downstream invariant holds.
  data::BlockWorldOptions gen;
  gen.objects_per_type = {24, 18, 12};
  gen.n_classes = 3;
  gen.corrupted_fraction = 0.2;
  gen.corruption_mode = data::RowCorruptionMode::kNonFinite;
  gen.seed = 33;
  data::MultiTypeRelationalData d = data::GenerateBlockWorld(gen).value();

  for (double threshold : {kDenseStorage, kCsrStorage}) {
    RhchmeOptions opts = FastOptions();
    opts.sparse_r_density_threshold = threshold;
    Rhchme solver(opts);
    Result<RhchmeResult> r = solver.Fit(d);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r.value().diagnostics.nonfinite_input_entries, 0u);
    EXPECT_TRUE(r.value().hocc.g.AllFinite());
    EXPECT_TRUE(r.value().hocc.g.IsNonNegative());
    EXPECT_FALSE(r.value().hocc.objective_trace.empty());
    for (double obj : r.value().hocc.objective_trace) {
      EXPECT_TRUE(std::isfinite(obj));
    }
  }
}

TEST(Rhchme, ProducesValidResult) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const fact::HoccResult& h = r.value().hocc;
  EXPECT_TRUE(h.g.AllFinite());
  EXPECT_TRUE(h.g.IsNonNegative());
  EXPECT_EQ(h.g.rows(), 54u);
  EXPECT_EQ(h.g.cols(), 9u);
  ASSERT_EQ(h.labels.size(), 3u);
  EXPECT_EQ(h.labels[0].size(), 24u);
  EXPECT_GT(h.iterations, 0);
  EXPECT_FALSE(h.objective_trace.empty());
  EXPECT_GT(h.seconds, 0.0);
  EXPECT_TRUE(r.value().HasErrorMatrix());
  EXPECT_EQ(r.value().ErrorMatrix().rows(), 54u);
}

TEST(Rhchme, MembershipRowsAreL1Normalised) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  const la::Matrix& g = r.value().hocc.g;
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = b.type_offset[k]; i < b.type_offset[k + 1]; ++i) {
      double sum = 0.0;
      for (std::size_t j = b.cluster_offset[k]; j < b.cluster_offset[k + 1];
           ++j) {
        sum += g(i, j);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << i;
    }
  }
}

TEST(Rhchme, BlockStructurePreserved) {
  // G block-diagonal; S zero diagonal blocks (paper §I.A structure).
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  const la::Matrix& g = r.value().hocc.g;
  const la::Matrix& s = r.value().hocc.s;
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = b.type_offset[k]; i < b.type_offset[k + 1]; ++i) {
      for (std::size_t j = 0; j < g.cols(); ++j) {
        const bool inside =
            j >= b.cluster_offset[k] && j < b.cluster_offset[k + 1];
        if (!inside) {
          EXPECT_EQ(g(i, j), 0.0);
        }
      }
    }
    la::Matrix s_block =
        s.Block(b.cluster_offset[k], b.cluster_offset[k], b.clusters(k),
                b.clusters(k));
    EXPECT_LT(s_block.MaxAbs(), 1e-8) << "S diagonal block " << k;
  }
}

/// Theorem 1: the objective decreases monotonically under the S, G, E_R
/// updates (the row-normalisation step is outside the theorem; disable it).
class Theorem1Test
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Theorem1Test, ObjectiveMonotonicallyDecreases) {
  auto [lambda, beta] = GetParam();
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.lambda = lambda;
  opts.beta = beta;
  opts.normalize_rows = false;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;  // Run all iterations.
  Rhchme solver(opts);
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  const auto& trace = r.value().hocc.objective_trace;
  ASSERT_GE(trace.size(), 5u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-7))
        << "objective rose at iteration " << i << " (lambda=" << lambda
        << ", beta=" << beta << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    LambdaBetaGrid, Theorem1Test,
    ::testing::Values(std::make_tuple(0.0, 10.0), std::make_tuple(1.0, 10.0),
                      std::make_tuple(10.0, 10.0),
                      std::make_tuple(1.0, 1000.0),
                      std::make_tuple(100.0, 100.0)));

TEST(Rhchme, ErrorMatrixLocalisesOnCorruptedRows) {
  // Corrupt a handful of document rows of R and check that E_R carries
  // more mass on those rows than on clean ones (the L2,1 sample-wise
  // noise model, paper Eq. 13/14).
  data::MultiTypeRelationalData d = SmallData(33);
  la::Matrix r01 = d.Relation(0, 1);
  la::Matrix r02 = d.Relation(0, 2);
  Rng rng(3);
  data::RowCorruptionOptions corr;
  corr.row_fraction = 0.15;
  corr.magnitude = 8.0;
  corr.entry_fraction = 0.8;
  std::vector<std::size_t> bad = data::CorruptRows(&r01, corr, &rng);
  ASSERT_TRUE(d.SetRelation(0, 1, r01).ok());
  ASSERT_TRUE(d.SetRelation(0, 2, r02).ok());

  RhchmeOptions opts = FastOptions();
  opts.beta = 30.0;
  opts.max_iterations = 20;
  Rhchme solver(opts);
  Result<RhchmeResult> res = solver.Fit(d);
  ASSERT_TRUE(res.ok());
  const la::Matrix& e = res.value().ErrorMatrix();

  double bad_mass = 0.0, clean_mass = 0.0;
  std::size_t n_bad = 0, n_clean = 0;
  for (std::size_t i = 0; i < 24; ++i) {  // Document rows.
    double row_norm = 0.0;
    for (std::size_t j = 0; j < e.cols(); ++j) row_norm += e(i, j) * e(i, j);
    row_norm = std::sqrt(row_norm);
    if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
      bad_mass += row_norm;
      ++n_bad;
    } else {
      clean_mass += row_norm;
      ++n_clean;
    }
  }
  ASSERT_GT(n_bad, 0u);
  EXPECT_GT(bad_mass / n_bad, 2.0 * clean_mass / n_clean);
}

TEST(Rhchme, CallbackSeesEveryIteration) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.max_iterations = 7;
  opts.tolerance = 0.0;
  Rhchme solver(opts);
  std::vector<int> seen;
  solver.SetIterationCallback([&seen](int it, const la::Matrix& g) {
    seen.push_back(it);
    EXPECT_GT(g.rows(), 0u);
  });
  ASSERT_TRUE(solver.Fit(d).ok());
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen.front(), 1);
  EXPECT_EQ(seen.back(), 7);
}

TEST(Rhchme, FitWithEnsembleMatchesFit) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  Rhchme solver(opts);
  Result<RhchmeResult> direct = solver.Fit(d);
  ASSERT_TRUE(direct.ok());
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts.ensemble);
  ASSERT_TRUE(e.ok());
  Result<RhchmeResult> staged = solver.FitWithEnsemble(d, e.value());
  ASSERT_TRUE(staged.ok());
  EXPECT_LT(la::MaxAbsDiff(direct.value().hocc.g, staged.value().hocc.g),
            1e-12);
}

TEST(Rhchme, DeterministicGivenSeed) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> a = solver.Fit(d);
  Result<RhchmeResult> b = solver.Fit(d);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(la::MaxAbsDiff(a.value().hocc.g, b.value().hocc.g), 0.0);
  EXPECT_EQ(a.value().hocc.objective_trace, b.value().hocc.objective_trace);
}

TEST(Rhchme, RecoversPlantedClusters) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  Result<double> f =
      eval::FScore(d.Type(0).labels, r.value().hocc.labels[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.9);
}

TEST(Rhchme, DisablingErrorMatrixLeavesItEmpty) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.use_error_matrix = false;
  Rhchme solver(opts);
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().HasErrorMatrix());
  EXPECT_TRUE(r.value().ErrorMatrix().empty());
}

TEST(Rhchme, ConvergesBeforeIterationCapOnEasyData) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.max_iterations = 200;
  opts.tolerance = 1e-4;
  Rhchme solver(opts);
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().hocc.converged);
  EXPECT_LT(r.value().hocc.iterations, 200);
}

TEST(Rhchme, RandomInitAlsoWorks) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.init = fact::MembershipInit::kRandom;
  opts.seed = 4;
  Rhchme solver(opts);
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().hocc.g.AllFinite());
}

// ---- Test-only dense reference of Algorithm 2 ------------------------------

/// A fit's trajectory from the dense reference loop below.
struct ReferenceFit {
  std::vector<double> objective_trace;
  la::Matrix g;
  la::Matrix s;
  la::Matrix error;  ///< Dense E_R (empty when the robust term is off).
};

/// Eq. 15 scored elementwise: forms R − G·S·Gᵀ − E explicitly, then adds
/// beta·‖E‖₂,₁ and lambda·tr(Gᵀ·L·G) with L densified from the ensemble's
/// CSR Laplacian. An empty E stands for E_R = 0 (robust term off).
double DenseObjective(const la::Matrix& r, const la::Matrix& g,
                      const la::Matrix& s, const la::Matrix& e,
                      const la::SparseMatrix& laplacian, double lambda,
                      double beta) {
  la::Matrix resid = la::MultiplyNT(la::Multiply(g, s), g);
  resid.Scale(-1.0);
  resid.Add(r);
  double l21 = 0.0;
  if (!e.empty()) {
    resid.Sub(e);
    l21 = e.L21Norm();
  }
  const double smooth =
      la::FrobeniusInner(la::Multiply(laplacian.ToDense(), g), g);
  return resid.FrobeniusNormSquared() + beta * l21 + lambda * smooth;
}

/// Algorithm 2 the straightforward way: every iteration materialises
/// M = R − E_R, runs the library's dense update kernels
/// (fact::SolveCentralS, fact::MultiplicativeGUpdate), forms the residual
/// Q = R − G·S·Gᵀ and a dense E_R, and scores Eq. 15 elementwise. The
/// solver's low-rank core must reproduce this trajectory to rounding on
/// either R store; nothing here shares its algebra.
ReferenceFit ReferenceLoop(const data::MultiTypeRelationalData& d,
                           const HeterogeneousEnsemble& ensemble,
                           const RhchmeOptions& opts) {
  const fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  la::Matrix r = d.BuildJointR();
  r.ReplaceNonFinite(0.0);
  const std::size_t n = r.rows();
  const la::SparseMatrix lap_pos = la::PositivePart(ensemble.laplacian);
  const la::SparseMatrix lap_neg = la::NegativePart(ensemble.laplacian);

  Rng rng(opts.seed);
  ReferenceFit out;
  out.g = fact::InitMembership(d, blocks, opts.init, &rng).value();
  if (opts.use_error_matrix) out.error = la::Matrix(n, n);
  for (int t = 1; t <= opts.max_iterations; ++t) {
    la::Matrix m = r;
    if (opts.use_error_matrix) m.Sub(out.error);
    out.s = fact::SolveCentralS(out.g, m, opts.ridge).value();
    fact::MultiplicativeGUpdate(m, out.s, opts.lambda, &lap_pos, &lap_neg,
                                opts.mu_eps, &out.g);
    if (opts.normalize_rows) fact::NormalizeMembershipRows(blocks, &out.g);
    la::Matrix q = la::MultiplyNT(la::Multiply(out.g, out.s), out.g);
    q.Scale(-1.0);
    q.Add(r);
    if (opts.use_error_matrix) {
      for (std::size_t i = 0; i < n; ++i) {
        double norm_sq = 0.0;
        for (std::size_t j = 0; j < n; ++j) norm_sq += q(i, j) * q(i, j);
        const double d_ii = 1.0 / (2.0 * std::sqrt(norm_sq) + opts.l21_zeta);
        const double scale = 1.0 / (opts.beta * d_ii + 1.0);
        for (std::size_t j = 0; j < n; ++j) out.error(i, j) = scale * q(i, j);
      }
    }
    out.objective_trace.push_back(
        DenseObjective(r, out.g, out.s, out.error, ensemble.laplacian,
                       opts.lambda, opts.beta));
  }
  return out;
}

void ExpectTracesMatch(const std::vector<double>& got,
                       const std::vector<double>& want, double rel_tol,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double rel = std::fabs(got[i] - want[i]) / std::fabs(want[i]);
    EXPECT_LT(rel, rel_tol) << what << ", iteration " << i + 1;
  }
}

/// Permanent equivalence gate of the low-rank core: on both R stores, at
/// one and at four threads, with and without the robust and manifold
/// terms, the objective trace matches the dense reference loop within
/// 1e-8 relative, and the rebuilt E_R matches its dense E_R.
TEST(RhchmeCore, TraceMatchesDenseReferenceLoop) {
  data::MultiTypeRelationalData d = SmallData();
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  RhchmeOptions base = FastOptions();
  base.max_iterations = 15;
  base.tolerance = 0.0;  // Fixed-length traces on both sides.
  const HeterogeneousEnsemble ensemble =
      BuildEnsemble(d, b, base.ensemble).value();

  struct Terms {
    double lambda;
    double beta;
    bool robust;
  };
  for (const Terms& terms : {Terms{1.0, 50.0, true}, Terms{250.0, 300.0, true},
                             Terms{1.0, 50.0, false}, Terms{0.0, 50.0, true}}) {
    RhchmeOptions opts = base;
    opts.lambda = terms.lambda;
    opts.beta = terms.beta;
    opts.use_error_matrix = terms.robust;
    const ReferenceFit ref = ReferenceLoop(d, ensemble, opts);
    for (double threshold : {kDenseStorage, kCsrStorage}) {
      opts.sparse_r_density_threshold = threshold;
      for (int threads : {1, 4}) {
        ScopedNumThreads scoped(threads);
        const std::string what =
            "lambda=" + std::to_string(terms.lambda) +
            " beta=" + std::to_string(terms.beta) +
            " robust=" + std::to_string(terms.robust) +
            " threshold=" + std::to_string(threshold) +
            " threads=" + std::to_string(threads);
        Result<RhchmeResult> fit = Rhchme(opts).FitWithEnsemble(d, ensemble);
        ASSERT_TRUE(fit.ok()) << what << ": " << fit.status().ToString();
        ExpectTracesMatch(fit.value().hocc.objective_trace,
                          ref.objective_trace, 1e-8, what);
        EXPECT_LT(la::MaxAbsDiff(fit.value().hocc.g, ref.g), 1e-8) << what;
        EXPECT_LT(la::MaxAbsDiff(fit.value().ErrorMatrix(), ref.error), 1e-8)
            << what;
      }
    }
  }
}

// ---- Storage of the joint R ------------------------------------------------

/// ErrorMatrix() rebuilds diag(s)·(R − G·S·Gᵀ) with exactly these kernels.
la::Matrix FactoredErrorMatrix(const data::MultiTypeRelationalData& d,
                               const RhchmeResult& res) {
  la::Matrix q =
      la::MultiplyNT(la::Multiply(res.hocc.g, res.hocc.s), res.hocc.g);
  q.Scale(-1.0);
  la::Matrix r = d.BuildJointR();
  r.ReplaceNonFinite(0.0);
  q.Add(r);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t j = 0; j < q.cols(); ++j) q(i, j) *= res.error_scale[i];
  }
  return q;
}

TEST(RhchmeCore, LazyErrorMatrixMatchesFactoredForm) {
  data::MultiTypeRelationalData d = SmallData();
  for (double threshold : {kDenseStorage, kCsrStorage}) {
    RhchmeOptions opts = FastOptions();
    opts.sparse_r_density_threshold = threshold;
    Result<RhchmeResult> r = Rhchme(opts).Fit(d);
    ASSERT_TRUE(r.ok());
    const RhchmeResult& res = r.value();
    ASSERT_TRUE(res.HasErrorMatrix());
    EXPECT_EQ(res.error_relation.storage(),
              threshold == kCsrStorage ? RelationOperator::Storage::kCsr
                                       : RelationOperator::Storage::kDense);
    EXPECT_EQ(la::MaxAbsDiff(res.ErrorMatrix(), FactoredErrorMatrix(d, res)),
              0.0)
        << "threshold=" << threshold;
  }
}

/// Memory gate: a fit allocates exactly one dense n x n matrix when R is
/// stored dense — R itself — and none when R is CSR. No dense E_R, no
/// residual, no workspace, no dense Laplacian or ± parts (la::memstats
/// counts every Matrix construction/Resize of at least n² doubles). The
/// same holds with the robust and manifold terms switched off.
TEST(RhchmeCore, DenseNxNAllocationsPerStorage) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  const std::size_t n = b.total_objects();
  for (bool disabled_terms : {false, true}) {
    RhchmeOptions opts = FastOptions();
    if (disabled_terms) {
      opts.use_error_matrix = false;
      opts.lambda = 0.0;
    }
    Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts.ensemble);
    ASSERT_TRUE(e.ok());
    for (double threshold : {kDenseStorage, kCsrStorage}) {
      opts.sparse_r_density_threshold = threshold;
      la::memstats::StartTracking(n * n);
      Result<RhchmeResult> r = Rhchme(opts).FitWithEnsemble(d, e.value());
      la::memstats::StopTracking();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(la::memstats::LargeAllocations(),
                threshold == kDenseStorage ? 1u : 0u)
          << "threshold=" << threshold << " disabled_terms=" << disabled_terms;
      EXPECT_EQ(r.value().HasErrorMatrix(), !disabled_terms);
    }
  }
}

/// Every kernel of the core (R products on either store, row
/// recombinations, c x c products, Sandwich) chunks independently of the
/// pool size, so the full fit is bit-identical across thread counts.
TEST(RhchmeCore, FitIsBitStableAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  for (double threshold : {kDenseStorage, kCsrStorage}) {
    RhchmeOptions opts = FastOptions();
    opts.max_iterations = 10;
    opts.tolerance = 0.0;
    opts.sparse_r_density_threshold = threshold;
    auto fit = [&](int threads) {
      ScopedNumThreads scoped(threads);
      Result<RhchmeResult> r = Rhchme(opts).Fit(d);
      EXPECT_TRUE(r.ok());
      return std::move(r).value();
    };
    const RhchmeResult serial = fit(1);
    const RhchmeResult threaded = fit(4);
    EXPECT_EQ(serial.hocc.objective_trace, threaded.hocc.objective_trace);
    EXPECT_EQ(la::MaxAbsDiff(serial.hocc.g, threaded.hocc.g), 0.0);
    EXPECT_EQ(serial.error_scale, threaded.error_scale);
    EXPECT_EQ(la::MaxAbsDiff(serial.ErrorMatrix(), threaded.ErrorMatrix()),
              0.0);
  }
}

/// Dense and CSR stores run the same algebra with differently ordered
/// products: traces agree to rounding, labels and E_R agree.
TEST(RhchmeCore, DenseAndCsrStorageAgree) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.max_iterations = 15;
  opts.tolerance = 0.0;
  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    RhchmeOptions dense_opts = opts;
    dense_opts.sparse_r_density_threshold = kDenseStorage;
    RhchmeOptions csr_opts = opts;
    csr_opts.sparse_r_density_threshold = kCsrStorage;
    Result<RhchmeResult> dense_fit = Rhchme(dense_opts).Fit(d);
    Result<RhchmeResult> csr_fit = Rhchme(csr_opts).Fit(d);
    ASSERT_TRUE(dense_fit.ok());
    ASSERT_TRUE(csr_fit.ok());
    ExpectTracesMatch(csr_fit.value().hocc.objective_trace,
                      dense_fit.value().hocc.objective_trace, 1e-8,
                      "threads=" + std::to_string(threads));
    EXPECT_EQ(csr_fit.value().hocc.labels, dense_fit.value().hocc.labels);
    EXPECT_LT(la::MaxAbsDiff(csr_fit.value().ErrorMatrix(),
                             dense_fit.value().ErrorMatrix()),
              1e-8);
  }
}

/// The default threshold picks the store per dataset: a tf-idf-sparse
/// block world (heavy dropout) runs on CSR (zero dense n x n), the dense
/// default block world on a dense R (exactly one).
TEST(RhchmeCore, DefaultThresholdSelectsStorageByDensity) {
  RhchmeOptions opts = FastOptions();
  ASSERT_EQ(opts.sparse_r_density_threshold, 0.05);

  data::BlockWorldOptions sparse_world;
  sparse_world.objects_per_type = {24, 18, 12};
  sparse_world.n_classes = 3;
  sparse_world.dropout = 0.97;
  sparse_world.seed = 21;
  data::MultiTypeRelationalData sparse_data =
      data::GenerateBlockWorld(sparse_world).value();
  ASSERT_LE(sparse_data.JointRDensity(), opts.sparse_r_density_threshold);

  data::MultiTypeRelationalData dense_data = SmallData();
  ASSERT_GT(dense_data.JointRDensity(), opts.sparse_r_density_threshold);

  struct Case {
    const data::MultiTypeRelationalData* data;
    std::size_t expected_allocs;
    RelationOperator::Storage storage;
  };
  for (const Case& c :
       {Case{&sparse_data, 0, RelationOperator::Storage::kCsr},
        Case{&dense_data, 1, RelationOperator::Storage::kDense}}) {
    const data::MultiTypeRelationalData& data = *c.data;
    fact::BlockStructure b = fact::BuildBlockStructure(data);
    Result<HeterogeneousEnsemble> e = BuildEnsemble(data, b, opts.ensemble);
    ASSERT_TRUE(e.ok());
    const std::size_t n = b.total_objects();
    la::memstats::StartTracking(n * n);
    Result<RhchmeResult> r = Rhchme(opts).FitWithEnsemble(data, e.value());
    la::memstats::StopTracking();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(la::memstats::LargeAllocations(), c.expected_allocs);
    EXPECT_EQ(r.value().error_relation.storage(), c.storage);
  }
}

/// Theorem 1 holds on the CSR store too: same updates, different
/// arithmetic grouping of the R products.
TEST(RhchmeCore, CsrObjectiveMonotonicallyDecreases) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.sparse_r_density_threshold = kCsrStorage;
  opts.normalize_rows = false;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;
  Rhchme solver(opts);
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  const auto& trace = r.value().hocc.objective_trace;
  ASSERT_GE(trace.size(), 5u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-7))
        << "objective rose at iteration " << i;
  }
}

/// The fit's analytic Eq. 15 — its last objective_trace entry — matches
/// DenseObjective on the fit's own factors and rebuilt E_R, on both R
/// stores and with the robust term off.
TEST(RhchmeCore, FinalTraceMatchesDenseObjective) {
  struct Case {
    const char* name;
    double density_threshold;
    bool use_error_matrix;
  };
  const Case cases[] = {
      {"dense store", kDenseStorage, true},
      {"CSR store", kCsrStorage, true},
      {"robust term off", kDenseStorage, false},
  };
  data::MultiTypeRelationalData d = SmallData();
  const la::Matrix r = d.BuildJointR();
  for (const Case& c : cases) {
    RhchmeOptions opts = FastOptions();
    opts.sparse_r_density_threshold = c.density_threshold;
    opts.use_error_matrix = c.use_error_matrix;
    opts.max_iterations = 8;
    opts.tolerance = 0.0;
    Result<RhchmeResult> fit = Rhchme(opts).Fit(d);
    ASSERT_TRUE(fit.ok()) << c.name;
    const RhchmeResult& res = fit.value();
    const double want =
        DenseObjective(r, res.hocc.g, res.hocc.s, res.ErrorMatrix(),
                       res.ensemble.laplacian, opts.lambda, opts.beta);
    EXPECT_NEAR(res.hocc.objective_trace.back(), want,
                1e-8 * std::fabs(want))
        << c.name;
  }
}

// ---- ErrorMatrix thread-safety ---------------------------------------------

/// Concurrent const readers each rebuild E_R from the shared result and
/// must all get the same values. Run under TSan in CI.
TEST(RhchmeResult, ErrorMatrixIsSafeUnderConcurrentConstReads) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  const RhchmeResult& res = r.value();
  ASSERT_TRUE(res.HasErrorMatrix());

  constexpr int kReaders = 8;
  std::vector<la::Matrix> seen(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&res, &seen, i] { seen[i] = res.ErrorMatrix(); });
  }
  for (std::thread& t : readers) t.join();
  for (int i = 1; i < kReaders; ++i) {
    EXPECT_EQ(la::MaxAbsDiff(seen[i], seen[0]), 0.0) << "reader " << i;
  }
  // The rebuilt matrix matches the factored form.
  EXPECT_EQ(la::MaxAbsDiff(seen[0], FactoredErrorMatrix(d, res)), 0.0);
}

}  // namespace
}  // namespace core
}  // namespace rhchme
