// Unit tests for the SRC, SNMTF, RMC and DRCC baselines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "baselines/drcc.h"
#include "baselines/rmc.h"
#include "baselines/snmtf.h"
#include "baselines/src_clustering.h"
#include "core/rhchme_solver.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "graph/laplacian.h"
#include "la/gemm.h"
#include "la/sparse.h"
#include "scoped_num_threads.h"

namespace rhchme {
namespace baselines {
namespace {

data::MultiTypeRelationalData SmallData(uint64_t seed = 17) {
  data::BlockWorldOptions o;
  o.objects_per_type = {24, 18, 12};
  o.n_classes = 3;
  o.seed = seed;
  return data::GenerateBlockWorld(o).value();
}

// ---- SRC -------------------------------------------------------------------

TEST(Src, RecoversPlantedClusters) {
  data::MultiTypeRelationalData d = SmallData();
  SrcOptions opts;
  opts.max_iterations = 40;
  Result<fact::HoccResult> r = RunSrc(d, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<double> f = eval::FScore(d.Type(0).labels, r.value().labels[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.9);
}

TEST(Src, ObjectiveDecreases) {
  data::MultiTypeRelationalData d = SmallData();
  SrcOptions opts;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;
  Result<fact::HoccResult> r = RunSrc(d, opts);
  ASSERT_TRUE(r.ok());
  const auto& t = r.value().objective_trace;
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i], t[i - 1] * (1.0 + 1e-7)) << "iteration " << i;
  }
}

TEST(Src, ValidationErrors) {
  SrcOptions opts;
  opts.max_iterations = 0;
  EXPECT_FALSE(RunSrc(SmallData(), opts).ok());
}

// ---- SNMTF -----------------------------------------------------------------

TEST(Snmtf, RecoversPlantedClusters) {
  data::MultiTypeRelationalData d = SmallData();
  SnmtfOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 40;
  Result<fact::HoccResult> r = RunSnmtf(d, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<double> f = eval::FScore(d.Type(0).labels, r.value().labels[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.9);
}

TEST(Snmtf, ObjectiveDecreases) {
  data::MultiTypeRelationalData d = SmallData();
  SnmtfOptions opts;
  opts.lambda = 0.5;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;
  Result<fact::HoccResult> r = RunSnmtf(d, opts);
  ASSERT_TRUE(r.ok());
  const auto& t = r.value().objective_trace;
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i], t[i - 1] * (1.0 + 1e-7)) << "iteration " << i;
  }
}

TEST(Snmtf, FailsWithoutFeatures) {
  data::MultiTypeRelationalData d = SmallData();
  d.MutableType(1).features = la::Matrix();
  SnmtfOptions opts;
  EXPECT_FALSE(RunSnmtf(d, opts).ok());
}

// ---- RMC -------------------------------------------------------------------

TEST(Rmc, DefaultCandidatesMatchPaper) {
  // q = 6: p ∈ {5, 10} × {binary, heat, cosine} (paper §IV.B).
  auto cands = DefaultRmcCandidates();
  ASSERT_EQ(cands.size(), 6u);
  std::size_t p5 = 0, p10 = 0;
  for (const auto& c : cands) {
    if (c.p == 5) ++p5;
    if (c.p == 10) ++p10;
  }
  EXPECT_EQ(p5, 3u);
  EXPECT_EQ(p10, 3u);
}

TEST(Rmc, RecoversPlantedClustersAndWeightsSumToOne) {
  data::MultiTypeRelationalData d = SmallData();
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 30;
  Result<RmcResult> r = RunRmc(d, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<double> f = eval::FScore(d.Type(0).labels, r.value().hocc.labels[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.9);
  double sum = 0.0;
  for (double b : r.value().candidate_weights) {
    EXPECT_GE(b, 0.0);
    sum += b;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Rmc, CustomCandidateListRespected) {
  data::MultiTypeRelationalData d = SmallData();
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 10;
  graph::KnnGraphOptions only;
  only.p = 3;
  opts.candidates = {only};
  Result<RmcResult> r = RunRmc(d, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().candidate_weights.size(), 1u);
  EXPECT_NEAR(r.value().candidate_weights[0], 1.0, 1e-12);
}

/// The dense RMC loop as the library ran it before moving onto the core's
/// low-rank seams, kept as the equivalence reference: dense joint R and
/// dense candidate Laplacians, traces tr(Gᵀ·L̂_i·G) as dense products, the
/// ensemble summed densely, and ‖R − G·S·Gᵀ‖²_F formed elementwise. Only
/// the Eq. 18 / Eq. 21 seams are shared, fed with dense products.
RmcResult DenseReferenceRmc(const data::MultiTypeRelationalData& d,
                            const RmcOptions& opts) {
  const fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  const la::Matrix r = d.BuildJointR();
  const std::size_t n = r.rows();
  const std::vector<graph::KnnGraphOptions> candidates =
      opts.candidates.empty() ? DefaultRmcCandidates() : opts.candidates;
  const std::size_t q = candidates.size();
  std::vector<la::Matrix> lap(q, la::Matrix(n, n));
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t k = 0; k < d.NumTypes(); ++k) {
      const la::SparseMatrix w =
          graph::BuildKnnGraph(d.Type(k).features, candidates[i]).value();
      lap[i].SetBlock(blocks.type_offset[k], blocks.type_offset[k],
                      graph::BuildLaplacian(w, opts.laplacian).value());
    }
  }
  auto trace = [](const la::Matrix& l, const la::Matrix& g) {
    return la::FrobeniusInner(la::Multiply(l, g), g);
  };

  Rng rng(opts.seed);
  la::Matrix g = fact::InitMembership(d, blocks, opts.init, &rng).value();
  std::vector<double> beta(q, 1.0 / static_cast<double>(q));
  RmcResult out;
  fact::HoccResult& res = out.hocc;
  la::Matrix s;
  double prev = std::numeric_limits<double>::infinity();
  for (int t = 1; t <= opts.max_iterations; ++t) {
    std::vector<double> traces(q);
    for (std::size_t i = 0; i < q; ++i) traces[i] = trace(lap[i], g);
    double mu = opts.mu;
    if (mu <= 0.0) {
      double mean = 0.0;
      for (double v : traces) mean += std::fabs(v);
      mu = std::max(mean / static_cast<double>(q), 1e-12);
    }
    std::vector<double> target(q);
    for (std::size_t i = 0; i < q; ++i) target[i] = -traces[i] / (2.0 * mu);
    beta = ProjectOntoSimplex(std::move(target));

    la::Matrix ensemble(n, n);
    for (std::size_t i = 0; i < q; ++i) {
      if (beta[i] > 0.0) ensemble.AddScaled(lap[i], beta[i]);
    }
    const la::SparseMatrix lap_pos =
        la::SparseMatrix::FromDense(la::PositivePart(ensemble));
    const la::SparseMatrix lap_neg =
        la::SparseMatrix::FromDense(la::NegativePart(ensemble));

    const la::Matrix mg = la::Multiply(r, g);
    const la::Matrix mtg = la::MultiplyTN(r, g);
    const la::Matrix gtg = la::Gram(g);
    s = fact::SolveCentralSFromProducts(gtg, la::MultiplyTN(g, mg),
                                        opts.ridge)
            .value();
    EXPECT_TRUE(fact::MultiplicativeGUpdateFromProducts(
                    mg, mtg, s, gtg, opts.lambda, &lap_pos, &lap_neg,
                    opts.mu_eps, &g)
                    .ok());

    double smooth = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      if (beta[i] > 0.0) smooth += beta[i] * trace(lap[i], g);
    }
    la::Matrix resid = la::MultiplyNT(la::Multiply(g, s), g);
    resid.Sub(r);
    const double objective =
        resid.FrobeniusNormSquared() + opts.lambda * smooth;
    res.objective_trace.push_back(objective);
    res.iterations = t;
    const double rel =
        std::fabs(prev - objective) / std::max(1.0, std::fabs(prev));
    if (std::isfinite(prev) && rel < opts.tolerance) {
      res.converged = true;
      break;
    }
    prev = objective;
  }
  res.g = std::move(g);
  res.s = std::move(s);
  res.labels = fact::ExtractLabels(blocks, res.g);
  out.candidate_weights = std::move(beta);
  return out;
}

TEST(Rmc, MatchesDenseReferenceLoop) {
  data::MultiTypeRelationalData d = SmallData();
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 15;
  opts.tolerance = 0.0;  // Fixed-length traces on both sides.
  opts.seed = 5;
  const RmcResult ref = DenseReferenceRmc(d, opts);
  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    Result<RmcResult> fit = RunRmc(d, opts);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    const RmcResult& got = fit.value();
    ASSERT_EQ(got.hocc.objective_trace.size(),
              ref.hocc.objective_trace.size());
    for (std::size_t i = 0; i < ref.hocc.objective_trace.size(); ++i) {
      const double want = ref.hocc.objective_trace[i];
      EXPECT_LT(std::fabs(got.hocc.objective_trace[i] - want) /
                    std::fabs(want),
                1e-8)
          << "threads=" << threads << " iteration " << i + 1;
    }
    ASSERT_EQ(got.candidate_weights.size(), ref.candidate_weights.size());
    for (std::size_t i = 0; i < ref.candidate_weights.size(); ++i) {
      EXPECT_NEAR(got.candidate_weights[i], ref.candidate_weights[i], 1e-10)
          << "threads=" << threads << " candidate " << i;
    }
    EXPECT_EQ(got.hocc.labels, ref.hocc.labels) << "threads=" << threads;
  }
}

// Simplex projection properties (TEST_P over inputs).
class SimplexTest : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(SimplexTest, OutputOnSimplex) {
  std::vector<double> out = ProjectOntoSimplex(GetParam());
  double sum = 0.0;
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, SimplexTest,
    ::testing::Values(std::vector<double>{0.2, 0.3, 0.5},
                      std::vector<double>{10.0, -5.0, 0.0},
                      std::vector<double>{-1.0, -2.0, -3.0},
                      std::vector<double>{0.0, 0.0},
                      std::vector<double>{7.0},
                      std::vector<double>{1e6, 1e6, 1e-6}));

TEST(Simplex, AlreadyOnSimplexIsFixedPoint) {
  std::vector<double> v = {0.1, 0.4, 0.5};
  std::vector<double> out = ProjectOntoSimplex(v);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(out[i], v[i], 1e-12);
}

TEST(Simplex, PreservesOrdering) {
  std::vector<double> out = ProjectOntoSimplex({3.0, 1.0, 2.0});
  EXPECT_GE(out[0], out[2]);
  EXPECT_GE(out[2], out[1]);
}

// ---- DRCC ------------------------------------------------------------------

/// Nonnegative block matrix with planted co-clusters.
la::Matrix BlockMatrix(Rng* rng) {
  la::Matrix x(30, 20);
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      const bool same = (i / 10) == (j / 7 > 2 ? 2 : j / 7);
      x(i, j) = (same ? 1.0 : 0.1) * (0.5 + rng->Uniform());
    }
  }
  return x;
}

TEST(Drcc, RecoversRowCoClusters) {
  Rng rng(23);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 3;
  opts.col_clusters = 3;
  opts.lambda = 0.1;
  opts.mu = 0.1;
  opts.max_iterations = 60;
  Result<DrccResult> r = RunDrcc(x, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::size_t> truth(30);
  for (std::size_t i = 0; i < 30; ++i) truth[i] = i / 10;
  Result<double> f = eval::FScore(truth, r.value().row_labels);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.85);
}

TEST(Drcc, FactorsHaveRightShapes) {
  Rng rng(29);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 3;
  opts.col_clusters = 4;
  opts.max_iterations = 15;
  Result<DrccResult> r = RunDrcc(x, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().g.rows(), 30u);
  EXPECT_EQ(r.value().g.cols(), 3u);
  EXPECT_EQ(r.value().f.rows(), 20u);
  EXPECT_EQ(r.value().f.cols(), 4u);
  EXPECT_EQ(r.value().s.rows(), 3u);
  EXPECT_EQ(r.value().s.cols(), 4u);
  EXPECT_EQ(r.value().row_labels.size(), 30u);
  EXPECT_EQ(r.value().col_labels.size(), 20u);
  EXPECT_TRUE(r.value().g.IsNonNegative());
  EXPECT_TRUE(r.value().f.IsNonNegative());
}

TEST(Drcc, ObjectiveDecreases) {
  Rng rng(31);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 3;
  opts.col_clusters = 3;
  opts.lambda = 0.2;
  opts.mu = 0.2;
  opts.max_iterations = 25;
  opts.tolerance = 0.0;
  Result<DrccResult> r = RunDrcc(x, opts);
  ASSERT_TRUE(r.ok());
  const auto& t = r.value().objective_trace;
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i], t[i - 1] * (1.0 + 1e-6)) << "iteration " << i;
  }
}

TEST(Drcc, ValidationErrors) {
  Rng rng(37);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 0;
  EXPECT_FALSE(RunDrcc(x, opts).ok());
  opts = DrccOptions{};
  opts.row_clusters = 100;  // More clusters than rows.
  opts.col_clusters = 2;
  EXPECT_FALSE(RunDrcc(x, opts).ok());
  opts = DrccOptions{};
  opts.row_clusters = 2;
  opts.col_clusters = 2;
  opts.lambda = -1.0;
  EXPECT_FALSE(RunDrcc(x, opts).ok());
}

// ---- Memory ------------------------------------------------------------------

/// Memory gate of the three NMTF baselines: like the RHCHME core they run
/// on, each allocates exactly one dense n x n matrix when the joint R is
/// stored dense (R itself) and none when it is CSR — no dense Laplacian,
/// residual or M (la::memstats counts every Matrix of >= n² doubles).
TEST(BaselineMemory, DenseNxNAllocationsPerStorage) {
  const double threshold = core::RhchmeOptions().sparse_r_density_threshold;
  data::BlockWorldOptions sparse_world;
  sparse_world.objects_per_type = {24, 18, 12};
  sparse_world.n_classes = 3;
  sparse_world.dropout = 0.95;
  sparse_world.seed = 17;
  for (bool csr : {false, true}) {
    const data::MultiTypeRelationalData d =
        csr ? data::GenerateBlockWorld(sparse_world).value() : SmallData();
    // The core's store rule must pick the store this case is about.
    ASSERT_EQ(d.JointRDensity() <= threshold, csr);
    const std::size_t want = csr ? 0 : 1;
    const std::size_t n = d.TotalObjects();
    auto count = [&](auto fit) {
      la::memstats::StartTracking(n * n);
      const bool ok = fit();
      la::memstats::StopTracking();
      EXPECT_TRUE(ok);
      return la::memstats::LargeAllocations();
    };
    SrcOptions src;
    src.max_iterations = 5;
    EXPECT_EQ(count([&] { return RunSrc(d, src).ok(); }), want)
        << "SRC csr=" << csr;
    SnmtfOptions snmtf;
    snmtf.lambda = 1.0;
    snmtf.max_iterations = 5;
    EXPECT_EQ(count([&] { return RunSnmtf(d, snmtf).ok(); }), want)
        << "SNMTF csr=" << csr;
    RmcOptions rmc;
    rmc.lambda = 1.0;
    rmc.max_iterations = 5;
    EXPECT_EQ(count([&] { return RunRmc(d, rmc).ok(); }), want)
        << "RMC csr=" << csr;
  }
}

// ---- Thread-count determinism ---------------------------------------------
//
// The scenario quality gate (tools/quality_compare.py) compares baseline
// metrics exactly against a committed artefact, which is only sound if
// every baseline honours the library's determinism contract:
// bit-identical results for any pool size given a fixed seed.

/// Runs `fit` under pool sizes 1 and 4 and returns both outcomes.
template <typename Fn>
auto FitUnderThreadCounts(Fn fit) {
  ScopedNumThreads one(1);
  auto a = fit();
  ScopedNumThreads four(4);
  auto b = fit();
  return std::make_pair(std::move(a), std::move(b));
}

void ExpectIdenticalHocc(const fact::HoccResult& a, const fact::HoccResult& b) {
  ASSERT_EQ(a.labels.size(), b.labels.size());
  for (std::size_t k = 0; k < a.labels.size(); ++k) {
    EXPECT_EQ(a.labels[k], b.labels[k]) << "type " << k;
  }
  ASSERT_EQ(a.objective_trace.size(), b.objective_trace.size());
  for (std::size_t i = 0; i < a.objective_trace.size(); ++i) {
    EXPECT_EQ(a.objective_trace[i], b.objective_trace[i]) << "iteration " << i;
  }
}

TEST(Determinism, SrcBitIdenticalAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  SrcOptions opts;
  opts.max_iterations = 15;
  opts.seed = 5;
  auto [a, b] = FitUnderThreadCounts([&] { return RunSrc(d, opts); });
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalHocc(a.value(), b.value());
}

TEST(Determinism, SnmtfBitIdenticalAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  SnmtfOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 15;
  opts.seed = 5;
  auto [a, b] = FitUnderThreadCounts([&] { return RunSnmtf(d, opts); });
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalHocc(a.value(), b.value());
}

TEST(Determinism, RmcBitIdenticalAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 15;
  opts.seed = 5;
  auto [a, b] = FitUnderThreadCounts([&] { return RunRmc(d, opts); });
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalHocc(a.value().hocc, b.value().hocc);
  ASSERT_EQ(a.value().candidate_weights.size(),
            b.value().candidate_weights.size());
  for (std::size_t i = 0; i < a.value().candidate_weights.size(); ++i) {
    EXPECT_EQ(a.value().candidate_weights[i], b.value().candidate_weights[i]);
  }
}

TEST(Determinism, DrccBitIdenticalAcrossThreadCounts) {
  Rng rng(41);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 3;
  opts.col_clusters = 3;
  opts.max_iterations = 15;
  opts.seed = 5;
  auto [a, b] = FitUnderThreadCounts([&] { return RunDrcc(x, opts); });
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().row_labels, b.value().row_labels);
  EXPECT_EQ(a.value().col_labels, b.value().col_labels);
  ASSERT_EQ(a.value().objective_trace.size(),
            b.value().objective_trace.size());
  for (std::size_t i = 0; i < a.value().objective_trace.size(); ++i) {
    EXPECT_EQ(a.value().objective_trace[i], b.value().objective_trace[i])
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace baselines
}  // namespace rhchme
