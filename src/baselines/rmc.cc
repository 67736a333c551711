#include "baselines/rmc.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "core/ensemble.h"
#include "core/relation_operator.h"
#include "core/rhchme_solver.h"
#include "la/gemm.h"
#include "la/sparse.h"
#include "util/stopwatch.h"

namespace rhchme {
namespace baselines {

Status RmcOptions::Validate() const {
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  for (const auto& c : candidates) RHCHME_RETURN_IF_ERROR(c.Validate());
  return Status::OK();
}

std::vector<graph::KnnGraphOptions> DefaultRmcCandidates() {
  std::vector<graph::KnnGraphOptions> out;
  for (std::size_t p : {std::size_t{5}, std::size_t{10}}) {
    for (graph::WeightScheme scheme :
         {graph::WeightScheme::kBinary, graph::WeightScheme::kHeatKernel,
          graph::WeightScheme::kCosine}) {
      graph::KnnGraphOptions o;
      o.p = p;
      o.scheme = scheme;
      out.push_back(o);
    }
  }
  return out;
}

std::vector<double> ProjectOntoSimplex(std::vector<double> v) {
  // Duchi et al. (ICML 2008): sort descending, find the threshold rho.
  std::vector<double> u = v;
  std::sort(u.begin(), u.end(), std::greater<double>());
  double cumsum = 0.0;
  double theta = 0.0;
  std::size_t rho = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cumsum += u[i];
    const double t = (cumsum - 1.0) / static_cast<double>(i + 1);
    if (u[i] - t > 0.0) {
      rho = i + 1;
      theta = t;
    }
  }
  if (rho == 0) {
    // Degenerate input; fall back to uniform.
    std::fill(v.begin(), v.end(), 1.0 / static_cast<double>(v.size()));
    return v;
  }
  for (double& x : v) x = std::max(0.0, x - theta);
  return v;
}

Result<RmcResult> RunRmc(const data::MultiTypeRelationalData& data,
                         const RmcOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  RHCHME_RETURN_IF_ERROR(data.Validate());
  Stopwatch watch;

  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  const std::size_t n = blocks.total_objects();
  // R behind the core's operator and store rule; R is symmetric, so
  // M·G = Mᵀ·G = K = R·G, the iteration's one R product.
  const core::RelationOperator r = core::RelationOperator::FromData(
      data, core::RhchmeOptions().sparse_r_density_threshold);
  const std::vector<double> r_norm_sq = r.RowNormsSquared();

  // Pre-build all candidate Laplacians, each a sparse pNN-only ensemble
  // (this is RMC's extra cost that Table V attributes to it).
  const std::vector<graph::KnnGraphOptions> candidates =
      opts.candidates.empty() ? DefaultRmcCandidates() : opts.candidates;
  const std::size_t q = candidates.size();
  std::vector<la::SparseMatrix> lap(q);
  for (std::size_t i = 0; i < q; ++i) {
    core::EnsembleOptions member;
    member.include_subspace = false;
    member.knn = candidates[i];
    member.laplacian = opts.laplacian;
    Result<core::HeterogeneousEnsemble> built =
        core::BuildEnsemble(data, blocks, member);
    if (!built.ok()) return built.status();
    lap[i] = std::move(built).value().laplacian;
  }

  Rng rng(opts.seed);
  Result<la::Matrix> init =
      fact::InitMembership(data, blocks, opts.init, &rng);
  if (!init.ok()) return init.status();
  la::Matrix g = std::move(init).value();

  // Low-rank state of the current G: K = R·G, GᵀG and the candidate
  // traces tr(Gᵀ·L̂_i·G). Formed once per G, they serve both that
  // iteration's objective and the next iteration's beta, S and G steps.
  la::Matrix k, gtg, h, hg;
  std::vector<double> traces(q);
  auto refresh_state = [&]() {
    r.MultiplyInto(g, &k);
    gtg = la::Gram(g);
    for (std::size_t i = 0; i < q; ++i) traces[i] = la::Sandwich(g, lap[i]);
  };
  refresh_state();

  std::vector<double> beta(q, 1.0 / static_cast<double>(q));
  std::vector<double> row_norm(n, 0.0);
  RmcResult out;
  fact::HoccResult& res = out.hocc;
  la::Matrix s;
  double prev = std::numeric_limits<double>::infinity();
  for (int t = 1; t <= opts.max_iterations; ++t) {
    // ---- beta update: argmin over the simplex of
    //      sum_i beta_i·tr(GᵀL̂_iG) + mu·||beta||²
    //      => beta = Proj_simplex(-trace_vec / (2·mu)).
    double mu = opts.mu;
    if (mu <= 0.0) {
      // Auto scale: comparable to the trace magnitudes, so weights spread
      // over several candidates instead of collapsing onto one.
      double mean = 0.0;
      for (double v : traces) mean += std::fabs(v);
      mu = std::max(mean / static_cast<double>(q), 1e-12);
    }
    std::vector<double> target(q);
    for (std::size_t i = 0; i < q; ++i) target[i] = -traces[i] / (2.0 * mu);
    beta = ProjectOntoSimplex(std::move(target));

    // ---- Ensemble Laplacian under the current beta, assembled as CSR.
    std::vector<la::Triplet> trips;
    for (std::size_t i = 0; i < q; ++i) {
      if (beta[i] <= 0.0) continue;
      const auto& offsets = lap[i].row_offsets();
      const auto& cols = lap[i].col_indices();
      const auto& vals = lap[i].values();
      for (std::size_t row = 0; row < n; ++row) {
        for (std::size_t p = offsets[row]; p < offsets[row + 1]; ++p) {
          trips.push_back({row, cols[p], beta[i] * vals[p]});
        }
      }
    }
    const la::SparseMatrix ensemble =
        la::SparseMatrix::FromTriplets(n, n, std::move(trips));
    const la::SparseMatrix lap_pos = la::PositivePart(ensemble);
    const la::SparseMatrix lap_neg = la::NegativePart(ensemble);

    // ---- Standard NMTF steps against the ensemble.
    Result<la::Matrix> s_new = fact::SolveCentralSFromProducts(
        gtg, la::MultiplyTN(g, k), opts.ridge);
    if (!s_new.ok()) return s_new.status();
    s = std::move(s_new).value();
    RHCHME_RETURN_IF_ERROR(fact::MultiplicativeGUpdateFromProducts(
        k, k, s, gtg, opts.lambda, &lap_pos, &lap_neg, opts.mu_eps, &g));
    refresh_state();

    // ---- Objective: ‖R − G·S·Gᵀ‖²_F from the residual row norms (the
    // core's identity, with H = G·S) plus the weighted smoothness term.
    la::MultiplyInto(g, s, &h);
    la::MultiplyInto(h, gtg, &hg);
    fact::ResidualRowNorms(r_norm_sq, h, k, hg, &row_norm);
    double reconstruction = 0.0;
    for (double norm : row_norm) reconstruction += norm * norm;
    double smooth = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      if (beta[i] > 0.0) smooth += beta[i] * traces[i];
    }
    const double objective = reconstruction + opts.lambda * smooth;
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
  res.seconds = watch.ElapsedSeconds();
  out.candidate_weights = std::move(beta);
  return out;
}

}  // namespace baselines
}  // namespace rhchme
