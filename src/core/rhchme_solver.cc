#include "core/rhchme_solver.h"

#include <cmath>
#include <limits>
#include <new>
#include <utility>

#include "core/checkpoint.h"
#include "la/gemm.h"
#include "la/sparse.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace rhchme {
namespace core {

Status RhchmeOptions::Validate() const {
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  if (beta < 0.0) return Status::InvalidArgument("beta must be >= 0");
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (tolerance < 0.0) return Status::InvalidArgument("tolerance must be >= 0");
  if (sparse_r_density_threshold < 0.0 || sparse_r_density_threshold > 1.0) {
    return Status::InvalidArgument(
        "sparse_r_density_threshold must be in [0, 1]");
  }
  if (checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    return Status::InvalidArgument("checkpoint_every requires checkpoint_path");
  }
  if (resume && checkpoint_path.empty()) {
    return Status::InvalidArgument("resume requires checkpoint_path");
  }
  return ensemble.Validate();
}

bool RhchmeResult::HasErrorMatrix() const { return !error_scale.empty(); }

la::Matrix RhchmeResult::ErrorMatrix() const {
  // The fit never formed Q = R − G·S·Gᵀ, so it is rebuilt here from the
  // stored operator and the final factors — the only dense n x n
  // allocation beyond a dense-stored R, made on demand.
  if (error_scale.empty()) return la::Matrix();
  return error_relation.ScaledResidual(la::Multiply(hocc.g, hocc.s), hocc.g,
                                       error_scale);
}

namespace {

/// Objective-divergence guard: multiplicative updates descend
/// monotonically on healthy data (Theorem 1), so an accepted objective
/// jumping more than this factor above the previous one is a numerical
/// blow-up, not progress — roll it back.
constexpr double kDivergenceFactor = 10.0;
/// A rolled-back iteration replays deterministically, so a second
/// consecutive failure means the blow-up is persistent (not a one-shot
/// fault): stop degraded instead of spinning.
constexpr int kMaxConsecutiveBacktracks = 2;

bool ObjectiveLooksBad(double objective, double prev) {
  if (!std::isfinite(objective)) return true;
  return std::isfinite(prev) &&
         std::fabs(objective) >
             kDivergenceFactor * std::max(1.0, std::fabs(prev));
}

/// Resume probe: loads opts.checkpoint_path and validates it against this
/// fit's identity. OK + *loaded=false means no snapshot yet (fresh fit);
/// OK + *loaded=true hands the snapshot back; anything else — corruption,
/// fingerprint/shape mismatch — is a real error (never a silent restart).
Status TryLoadResume(const std::string& path, uint64_t fingerprint,
                     std::size_t n, std::size_t c, std::size_t er_size,
                     SolverSnapshot* snap, bool* loaded) {
  *loaded = false;
  Result<SolverSnapshot> r = LoadSolverSnapshot(path);
  if (!r.ok()) {
    if (r.status().code() == StatusCode::kNotFound) return Status::OK();
    return r.status();
  }
  SolverSnapshot s = std::move(r).value();
  if (s.options_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "snapshot options fingerprint mismatch: " + path);
  }
  if (s.g.rows() != n || s.g.cols() != c || s.s.rows() != c ||
      s.s.cols() != c) {
    return Status::FailedPrecondition("snapshot factor shape mismatch: " +
                                      path);
  }
  if (s.er_scale.size() != er_size) {
    return Status::FailedPrecondition("snapshot E_R state mismatch: " + path);
  }
  if (s.iteration < 1 ||
      s.objective_trace.size() != static_cast<std::size_t>(s.iteration)) {
    return Status::FailedPrecondition(
        "snapshot iteration/trace inconsistency: " + path);
  }
  *snap = std::move(s);
  *loaded = true;
  return Status::OK();
}

}  // namespace

Result<RhchmeResult> Rhchme::Fit(
    const data::MultiTypeRelationalData& data) const {
  RHCHME_RETURN_IF_ERROR(opts_.Validate());
  RHCHME_RETURN_IF_ERROR(data.Validate());
  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  Result<HeterogeneousEnsemble> ensemble =
      BuildEnsemble(data, blocks, opts_.ensemble);
  if (!ensemble.ok()) return ensemble.status();
  return FitWithEnsemble(data, ensemble.value());
}

Result<RhchmeResult> Rhchme::FitWithEnsemble(
    const data::MultiTypeRelationalData& data,
    const HeterogeneousEnsemble& ensemble) const {
  RHCHME_RETURN_IF_ERROR(opts_.Validate());
  RHCHME_RETURN_IF_ERROR(data.Validate());

  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  if (ensemble.laplacian.rows() != blocks.total_objects()) {
    return Status::InvalidArgument("ensemble Laplacian size mismatch");
  }

  // An allocation failure anywhere in the fit — the joint R, the
  // low-rank state, any kernel temporary — surfaces as a clean Status
  // instead of an abort: the fit entry point is a recovery seam, not a
  // crash seam.
  try {
    return Solve(data, ensemble, blocks);
  } catch (const std::bad_alloc&) {
    return Status::Internal("allocation failure during fit (out of memory)");
  }
}

Result<RhchmeResult> Rhchme::Solve(
    const data::MultiTypeRelationalData& data,
    const HeterogeneousEnsemble& ensemble,
    const fact::BlockStructure& blocks) const {
  Stopwatch watch;
  const std::size_t n = blocks.total_objects();
  const std::size_t c = blocks.total_clusters();
  const bool robust = opts_.use_error_matrix;

  RhchmeResult out;
  out.ensemble = ensemble;
  fact::HoccResult& res = out.hocc;
  res.objective_trace.reserve(opts_.max_iterations);
  FitDiagnostics& diag = out.diagnostics;

  // Step 1 of Algorithm 2: the joint R behind its operator, dense or CSR
  // by density. Non-finite entries (kNonFinite row corruption, bad
  // upstream data) are zeroed and counted before anything derives from
  // them; the row norms ‖r_i‖² then anchor the analytic residual norms
  // all fit long.
  if (util::FaultShouldFail(util::fault_site::kAllocJointR)) {
    throw std::bad_alloc();
  }
  RelationOperator r =
      RelationOperator::FromData(data, opts_.sparse_r_density_threshold);
  diag.nonfinite_input_entries += r.ReplaceNonFinite();
  const std::vector<double> r_norm_sq = r.RowNormsSquared();

  // ±-parts of L are fixed across iterations (Eq. 21) and stay sparse;
  // not built when lambda == 0 (no manifold term).
  la::SparseMatrix lap_pos, lap_neg;
  if (opts_.lambda != 0.0) {
    lap_pos = la::PositivePart(ensemble.laplacian);
    lap_neg = la::NegativePart(ensemble.laplacian);
  }

  // E_R stays doubly implicit: per-row scales s_i with
  // E_R = diag(s)·(R − H·Gᵀ) — neither the error matrix nor the residual
  // is ever formed.
  std::vector<double> er_scale(robust ? n : 0, 0.0);
  std::vector<double> row_norm(n, 0.0);
  bool have_error = false;  // True once the first E_R update has run.

  Rng rng(opts_.seed);
  const uint64_t fingerprint = OptionsFingerprint(opts_, n, c, r.storage());

  // Low-rank iteration state, all n x c or c x c. K = R·G, H = G·S, GᵀG
  // and HG = H·(GᵀG) are computed right after each G update and double as
  // the next iteration's implicit-M product inputs — M·G = K − diag(s)·
  // (K − HG) needs exactly them.
  la::Matrix g, s, h, k, hg, gtg;
  la::Matrix mg, mtg, gs_scaled, rgs;
  double prev_objective = std::numeric_limits<double>::infinity();
  int start_t = 1;

  // Rebuilds the cached low-rank state from the current factors with the
  // loop's own kernel sequence, so resume and rollback continue
  // bit-identically with an uninterrupted fit.
  auto rebuild_derived_state = [&]() {
    if (have_error) la::MultiplyInto(g, s, &h);
    r.MultiplyInto(g, &k);
    gtg = la::Gram(g);
    if (have_error) la::MultiplyInto(h, gtg, &hg);
  };

  // ---- Resume (or fresh initialisation) ---------------------------------
  if (opts_.resume) {
    SolverSnapshot snap;
    bool resumed = false;
    RHCHME_RETURN_IF_ERROR(TryLoadResume(opts_.checkpoint_path, fingerprint,
                                         n, c, er_scale.size(), &snap,
                                         &resumed));
    if (resumed) {
      g = std::move(snap.g);
      s = std::move(snap.s);
      er_scale = std::move(snap.er_scale);
      have_error = snap.have_error;
      prev_objective = snap.prev_objective;
      res.objective_trace = std::move(snap.objective_trace);
      rng.RestoreState(snap.rng_state);
      diag = snap.diagnostics;  // Counters resume too (incl. input count).
      diag.resumed_from_iteration = snap.iteration;
      res.iterations = snap.iteration;
      start_t = snap.iteration + 1;
    }
  }
  if (start_t == 1) {
    // Initialise G (k-means by default) and E_R = 0.
    Result<la::Matrix> init =
        fact::InitMembership(data, blocks, opts_.init, &rng);
    if (!init.ok()) return init.status();
    g = std::move(init).value();
    // Init tripwire: a poisoned initial membership is cleaned like a
    // poisoned update — zeroed rows become uniform over their block.
    if (!g.AllFinite()) {
      ++diag.nan_guard_trips;
      diag.nonfinite_g_entries += g.ReplaceNonFinite(0.0);
      fact::NormalizeMembershipRows(blocks, &g);
    }
  }
  if (util::FaultShouldFail(util::fault_site::kAllocWorkspace)) {
    throw std::bad_alloc();
  }
  rebuild_derived_state();

  // Periodic snapshot after an accepted iteration t; failures count and
  // the fit keeps going (the previous snapshot file stays intact).
  auto write_checkpoint = [&](int t) {
    if (opts_.checkpoint_every <= 0 || t % opts_.checkpoint_every != 0) return;
    SolverSnapshot snap;
    snap.options_fingerprint = fingerprint;
    snap.iteration = t;
    snap.prev_objective = prev_objective;
    snap.have_error = have_error;
    snap.rng_state = rng.SaveState();
    snap.diagnostics = diag;
    snap.g = g;
    snap.s = s;
    snap.er_scale = er_scale;
    snap.objective_trace = res.objective_trace;
    const Status st = SaveSolverSnapshot(opts_.checkpoint_path, snap);
    if (st.ok()) {
      ++diag.snapshots_written;
    } else {
      ++diag.snapshot_failures;
    }
  };

  // Iteration-start state for the divergence guard's rollback; n·c + c²
  // copies, cheap next to the R products.
  la::Matrix g_prev, s_prev;
  std::vector<double> er_prev;
  bool have_error_prev = false;
  int consecutive_backtracks = 0;
  fact::SolveStats solve_stats;

  // Rolls the loop-carried state back to the last accepted iterate.
  auto restore_accepted = [&]() {
    g = g_prev;
    s = s_prev;
    if (robust) er_scale = er_prev;
    have_error = have_error_prev;
    rebuild_derived_state();
  };

  for (int t = start_t; t <= opts_.max_iterations; ++t) {
    g_prev = g;
    s_prev = s;
    if (robust) er_prev = er_scale;
    have_error_prev = have_error;
    // ---- M·G and Mᵀ·G from the implicit M = R − diag(s)·(R − H·Gᵀ) ------
    // R is symmetric, so with E_R = 0 (first iteration, or disabled) both
    // products are the cached K.
    const la::Matrix* m_g = &k;
    const la::Matrix* mt_g = &k;
    if (robust && have_error) {
      // mg_i = k_i − s_i·(k_i − hg_i): the E_R fold collapses to a row
      // recombination of cached n x c state.
      mg.Resize(n, c);
      gs_scaled.Resize(n, c);
      util::ParallelFor(0, n, util::GrainForWork(5 * c + 1),
                        [&](std::size_t r0, std::size_t r1) {
                          for (std::size_t i = r0; i < r1; ++i) {
                            const double si = er_scale[i];
                            const double* ki = k.row_ptr(i);
                            const double* hgi = hg.row_ptr(i);
                            const double* gi = g.row_ptr(i);
                            double* mi = mg.row_ptr(i);
                            double* oi = gs_scaled.row_ptr(i);
                            for (std::size_t j = 0; j < c; ++j) {
                              mi[j] = ki[j] - si * (ki[j] - hgi[j]);
                              oi[j] = si * gi[j];
                            }
                          }
                        });
      // Mᵀ·G = Rᵀ·G − Rᵀ·diag(s)·G + G·(Hᵀ·diag(s)·G). With R symmetric,
      // Rᵀ·G is the cached K and Rᵀ·diag(s)·G = R·(diag(s)·G): the
      // iteration's second and last R product.
      r.MultiplyInto(gs_scaled, &rgs);
      mtg = k;
      mtg.Sub(rgs);
      la::Matrix hts = la::MultiplyTN(h, gs_scaled);  // Hᵀ·diag(s)·G, c x c
      mtg.Add(la::Multiply(g, hts));
      m_g = &mg;
      mt_g = &mtg;
    }

    // ---- Step 3: S update (Eq. 18) from the c x c products --------------
    la::Matrix gtmg = la::MultiplyTN(g, *m_g);
    Result<la::Matrix> s_new =
        fact::SolveCentralSFromProducts(gtg, gtmg, opts_.ridge, &solve_stats);
    diag.solve_ridge_retries += solve_stats.ridge_retries;
    solve_stats.ridge_retries = 0;
    if (!s_new.ok()) {
      // The ridge ladder inside the solve already retried, so the failure
      // is persistent. With no accepted iterate there is nothing to fall
      // back to; otherwise keep the last accepted iterate, stop degraded.
      if (res.objective_trace.empty()) return s_new.status();
      ++diag.degraded_stops;
      restore_accepted();
      break;
    }
    s = std::move(s_new).value();

    // ---- Step 4: multiplicative G update (Eq. 21) -----------------------
    RHCHME_RETURN_IF_ERROR_CTX(fact::MultiplicativeGUpdateFromProducts(
        *m_g, *mt_g, s, gtg, opts_.lambda, &lap_pos, &lap_neg, opts_.mu_eps,
        &g));

    // NaN tripwire: a poisoned or overflowed update must not fold NaNs
    // into the next iteration. Bad entries are zeroed and the rows
    // renormalised — an all-zero row becomes uniform over its block, a
    // valid membership. Healthy fits only pay the AllFinite scan. Runs
    // BEFORE the Eq. 22 normalisation: its zero-row uniform fallback
    // (|NaN| sums fail `s > 0`) would silently absorb a NaN row and hide
    // the recovery from the diagnostics.
    if (!g.AllFinite()) {
      ++diag.nan_guard_trips;
      diag.nonfinite_g_entries += g.ReplaceNonFinite(0.0);
      fact::NormalizeMembershipRows(blocks, &g);
    }

    // ---- Step 5: row ℓ1 normalisation (Eq. 22) --------------------------
    if (opts_.normalize_rows) fact::NormalizeMembershipRows(blocks, &g);

    // ---- Post-update low-rank state -------------------------------------
    la::MultiplyInto(g, s, &h);  // H = G·S
    r.MultiplyInto(g, &k);       // K = R·G — the iteration's first R product
    gtg = la::Gram(g);
    la::MultiplyInto(h, gtg, &hg);  // H·(GᵀG)

    // ---- Steps 6–7: E_R scales (Eq. 25–27) and objective, all analytic --
    // ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ + h_i·(GᵀG)·h_iᵀ — per-row dots of
    // cached n x c state, staged row-indexed then reduced serially in row
    // order (bit-identical for any pool size). (beta·D + I)⁻¹ is diagonal:
    // row i of E_R is row i of Q scaled by s_i = 1/(beta/(2‖q_i‖+zeta)+1),
    // and the objective terms follow from E_R = diag(s)·Q:
    //   ‖Q − E_R‖²_F = Σ (1 − s_i)²·‖q_i‖²,  ‖E_R‖₂,₁ = Σ s_i·‖q_i‖.
    fact::ResidualRowNorms(r_norm_sq, h, k, hg, &row_norm);
    if (util::FaultShouldFail(util::fault_site::kResidualPoison) && n > 0) {
      row_norm[0] = std::numeric_limits<double>::quiet_NaN();
    }
    double data_term = 0.0;
    double l21 = 0.0;
    if (robust) {
      have_error = true;
      for (std::size_t i = 0; i < n; ++i) {
        const double norm = row_norm[i];
        const double d_ii = 1.0 / (2.0 * norm + opts_.l21_zeta);
        er_scale[i] = 1.0 / (opts_.beta * d_ii + 1.0);
        const double keep = 1.0 - er_scale[i];
        data_term += keep * keep * norm * norm;
        l21 += er_scale[i] * norm;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        data_term += row_norm[i] * row_norm[i];
      }
    }

    const double smooth =
        opts_.lambda != 0.0 ? la::Sandwich(g, ensemble.laplacian) : 0.0;
    double objective = data_term + opts_.beta * l21 + opts_.lambda * smooth;
    if (util::FaultShouldFail(util::fault_site::kObjectivePoison)) {
      objective = std::numeric_limits<double>::quiet_NaN();
    }

    // ---- Divergence guard -----------------------------------------------
    // A non-finite or blown-up objective never lands in the trace. The
    // iteration is rolled back and replayed (a one-shot fault vanishes on
    // the deterministic replay); a persistent blow-up stops the fit on the
    // last accepted iterate.
    if (ObjectiveLooksBad(objective, prev_objective)) {
      if (consecutive_backtracks < kMaxConsecutiveBacktracks) {
        ++consecutive_backtracks;
        ++diag.backtracks;
        restore_accepted();
        --t;  // Replay this iteration from the accepted state.
        continue;
      }
      if (res.objective_trace.empty()) {
        return Status::NumericalError(
            "objective non-finite at the first iteration");
      }
      ++diag.degraded_stops;
      restore_accepted();
      break;
    }
    consecutive_backtracks = 0;

    res.objective_trace.push_back(objective);
    res.iterations = t;
    if (callback_) callback_(t, g);

    const double rel = std::fabs(prev_objective - objective) /
                       std::max(1.0, std::fabs(prev_objective));
    if (std::isfinite(prev_objective) && rel < opts_.tolerance) {
      res.converged = true;
      break;
    }
    prev_objective = objective;
    write_checkpoint(t);
  }

  res.g = std::move(g);
  res.s = std::move(s);
  res.labels = fact::ExtractLabels(blocks, res.g);
  res.seconds = watch.ElapsedSeconds();
  if (robust) {
    out.error_scale = std::move(er_scale);
    // The factored E_R's second factor Q = R − G·S·Gᵀ is never formed;
    // the result keeps the operator so ErrorMatrix() can rebuild it.
    out.error_relation = std::move(r);
  }
  return out;
}

}  // namespace core
}  // namespace rhchme
