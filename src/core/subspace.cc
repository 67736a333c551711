#include "core/subspace.h"

#include <algorithm>
#include <cmath>

#include "la/gemm.h"
#include "la/simd.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rhchme {
namespace core {

Status SpgOptions::Validate() const {
  if (max_iterations <= 0) {
    return Status::InvalidArgument("SPG needs max_iterations >= 1");
  }
  if (tolerance <= 0.0) {
    return Status::InvalidArgument("SPG tolerance must be positive");
  }
  if (step_min <= 0.0 || step_max <= step_min) {
    return Status::InvalidArgument("SPG step clamp invalid");
  }
  return Status::OK();
}

Status SubspaceOptions::Validate() const {
  if (gamma <= 0.0) {
    return Status::InvalidArgument("subspace gamma must be positive");
  }
  if (affine_penalty < 0.0) {
    return Status::InvalidArgument("affine_penalty must be nonnegative");
  }
  return spg.Validate();
}

void ProjectFeasible(la::Matrix* w) {
  w->ClampNonNegative();
  const std::size_t n = std::min(w->rows(), w->cols());
  for (std::size_t i = 0; i < n; ++i) (*w)(i, i) = 0.0;
}

namespace {

/// Upper bound on the chunks of sweep A. Each chunk owns one row of
/// column sums of d, merged in chunk order after the sweep, so the bound
/// caps that merge at kMaxColSumChunks·n adds and the slot buffer well
/// below n² doubles.
constexpr std::size_t kMaxColSumChunks = 64;

/// Per-row partial sums of one row sweep. Rows are written by exactly one
/// chunk and reduced in row order afterwards, so every total is the same
/// for any pool size (util/parallel.h, idiom (a)).
struct RowPartials {
  double v[4];
};

/// Sweep A on the entries [j0, j1) of one row of W (the caller handles the
/// diagonal): writes d = P(W − step·grad) − W and returns the largest
/// |P(W − grad) − W|, the row's share of the stationarity measure.
double ProjectRow(const double* w, const double* g, double step, double* d,
                  std::size_t j0, std::size_t j1) {
  double stat = 0.0;
  for (std::size_t j = j0; j < j1; ++j) {
    const double probe = std::max(w[j] - g[j], 0.0);
    stat = std::max(stat, std::fabs(probe - w[j]));
    d[j] = std::max(w[j] - step * g[j], 0.0) - w[j];
  }
  return stat;
}

/// One row of grad = 2γ(W·Q − Q) + 2·1·(1ᵀW) + 2η(W·1 − 1)·1ᵀ, where
/// `affine` is the row's 2η(W·1 − 1) entry; `y` receives
/// grad_new − grad_old before `g` is overwritten.
void GradientRow(const double* wq, const double* q, const double* cs,
                 double two_gamma, double affine, double* g, double* y,
                 std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double fresh = (wq[j] - q[j]) * two_gamma + (2.0 * cs[j] + affine);
    y[j] = fresh - g[j];
    g[j] = fresh;
  }
}

}  // namespace

Result<SubspaceResult> LearnSubspaceAffinity(const la::Matrix& objects,
                                             const SubspaceOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  const std::size_t n = objects.rows();
  if (n < 2) {
    return Status::InvalidArgument(
        "subspace learning needs at least two objects");
  }

  // Gram of object rows; all reconstruction algebra runs through it, so
  // the ambient dimension D only costs one n²D product here.
  la::Matrix gram = la::MultiplyNT(objects, objects);
  if (opts.normalize_rows) {
    // Scale Gram by the row norms: equivalent to normalising X's rows.
    std::vector<double> inv_norm(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::sqrt(gram(i, i));
      inv_norm[i] = d > 0.0 ? 1.0 / d : 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        gram(i, j) *= inv_norm[i] * inv_norm[j];
      }
    }
  }

  Rng rng(opts.seed);
  la::Matrix w = la::Matrix::RandomUniform(n, n, &rng, 0.0,
                                           1.0 / static_cast<double>(n));
  ProjectFeasible(&w);

  const la::simd::KernelTable& kt = la::simd::Table();
  const double two_gamma = 2.0 * opts.gamma;
  const double eta = opts.affine_penalty;
  const double tr_q = gram.Trace();

  // Workspaces: every n×n buffer of the iteration is allocated here, once.
  // W·Q is carried forward as W·Q + t·(d·Q), so d·Q is the one product of
  // each step.
  la::Matrix wq;
  la::MultiplyInto(w, gram, &wq);
  la::Matrix grad(n, n), d(n, n), dq(n, n);
  std::vector<double> cs = w.ColSums();
  std::vector<double> rs = eta > 0.0 ? w.RowSums() : std::vector<double>(n);
  std::vector<double> cs_d(n), rs_d(n);
  std::vector<RowPartials> parts(n);

  // Sweep grains from each sweep's per-entry work. Sweep A's grain is
  // also its column-sum slot size: chunk starts are grain-aligned even
  // when the pool fuses chunks, so row i always lands in slot i / grain.
  const std::size_t grain_a =
      std::max(util::GrainForWork(8 * n),
               (n + kMaxColSumChunks - 1) / kMaxColSumChunks);
  const std::size_t grain_b = util::GrainForWork(4 * n);
  const std::size_t grain_c = util::GrainForWork(10 * n);
  la::Matrix cs_slots((n + grain_a - 1) / grain_a, n);

  // Rebuilds grad's row i and writes y = grad_new − grad_old over dq's
  // row i, whose d·Q entries are spent by then.
  auto gradient_row = [&](std::size_t i) {
    const double affine = eta > 0.0 ? 2.0 * eta * (rs[i] - 1.0) : 0.0;
    GradientRow(wq.row_ptr(i), gram.row_ptr(i), cs.data(), two_gamma, affine,
                grad.row_ptr(i), dq.row_ptr(i), n);
  };
  util::ParallelFor(0, n, grain_c, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) gradient_row(i);
  });

  SubspaceResult out;
  double step = 1.0;  // Initial BB steplength guess.
  bool converged = false;
  int it = 0;
  for (; it < opts.spg.max_iterations; ++it) {
    // Sweep A: stationarity ||P(W − grad) − W||_inf (row maxima in
    // parts[i].v[0]) and the projected direction d = P(W − step·grad) − W,
    // whose column sums accumulate into the row's chunk slot. P clamps
    // negatives and zeroes the diagonal, so d's diagonal is 0 − 0.
    util::ParallelFor(0, n, grain_a, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        const double* wi = w.row_ptr(i);
        const double* gi = grad.row_ptr(i);
        double* di = d.row_ptr(i);
        double* slot = cs_slots.row_ptr(i / grain_a);
        if (i % grain_a == 0) std::fill(slot, slot + n, 0.0);
        const double stat = std::max(ProjectRow(wi, gi, step, di, 0, i),
                                     ProjectRow(wi, gi, step, di, i + 1, n));
        di[i] = 0.0;
        kt.add(slot, di, n);
        parts[i].v[0] = stat;
      }
    });
    double stat = 0.0;
    for (std::size_t i = 0; i < n; ++i) stat = std::max(stat, parts[i].v[0]);
    if (stat <= opts.spg.tolerance) {
      converged = true;
      break;
    }
    std::copy(cs_slots.row_ptr(0), cs_slots.row_ptr(0) + n, cs_d.begin());
    for (std::size_t s = 1; s < cs_slots.rows(); ++s) {
      kt.add(cs_d.data(), cs_slots.row_ptr(s), n);
    }

    // The one product of the step. The GEMM's zero probe sends the
    // mostly-zero panels of d (W and d sparsify within ~20 steps) down
    // its axpy path.
    la::MultiplyInto(d, gram, &dq);

    // Sweep B: per-row partials of tr(dQ), <dQ, W>, <dQ, d> and d·1.
    util::ParallelFor(0, n, grain_b, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        const double* dqi = dq.row_ptr(i);
        const double* di = d.row_ptr(i);
        parts[i].v[0] = dqi[i];
        parts[i].v[1] = kt.dot(dqi, w.row_ptr(i), n);
        parts[i].v[2] = kt.dot(dqi, di, n);
        if (eta > 0.0) {
          double sum = 0.0;
          for (std::size_t j = 0; j < n; ++j) sum += di[j];
          rs_d[i] = sum;
        }
      }
    });
    double tr_dq = 0.0, fi_dq_w = 0.0, fi_dq_d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      tr_dq += parts[i].v[0];
      fi_dq_w += parts[i].v[1];
      fi_dq_d += parts[i].v[2];
    }
    // J₂ is a convex quadratic, so the line objective
    //   f(W + t·d) = f(W) + b·t + a·t²
    // is exact; the minimiser replaces the Armijo search of Algorithm 1
    // and guarantees monotone descent.
    double b = -2.0 * opts.gamma * (tr_dq - fi_dq_w) +
               2.0 * kt.dot(cs.data(), cs_d.data(), n);
    double a = opts.gamma * fi_dq_d + kt.dot(cs_d.data(), cs_d.data(), n);
    if (eta > 0.0) {
      // Affine term: eta·||(W + t·d)·1 − 1||² adds eta·(2t·<u, v> + t²·|v|²)
      // with u = W·1 − 1, v = d·1.
      double uv = 0.0, vv = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        uv += (rs[i] - 1.0) * rs_d[i];
        vv += rs_d[i] * rs_d[i];
      }
      b += 2.0 * eta * uv;
      a += eta * vv;
    }

    double t = 1.0;
    if (a > 0.0) t = std::clamp(-b / (2.0 * a), 1e-6, 1.0);
    kt.axpy(t, cs_d.data(), cs.data(), n);
    if (eta > 0.0) kt.axpy(t, rs_d.data(), rs.data(), n);

    // Sweep C: take the step on W and W·Q, rebuild the gradient, and
    // collect s·y and s·s (s = t·d) for the Barzilai–Borwein steplength
    // plus tr(W·Q) and <W·Q, W> for the objective.
    util::ParallelFor(0, n, grain_c, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        double* wi = w.row_ptr(i);
        double* wqi = wq.row_ptr(i);
        const double* di = d.row_ptr(i);
        const double* dqi = dq.row_ptr(i);
        kt.axpy(t, di, wi, n);
        kt.axpy(t, dqi, wqi, n);
        gradient_row(i);  // dq's row i now holds y.
        parts[i].v[0] = t * kt.dot(di, dqi, n);
        parts[i].v[1] = t * t * kt.dot(di, di, n);
        parts[i].v[2] = wqi[i];
        parts[i].v[3] = kt.dot(wqi, wi, n);
      }
    });
    double sy = 0.0, ss = 0.0, tr_wq = 0.0, fi_wq_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sy += parts[i].v[0];
      ss += parts[i].v[1];
      tr_wq += parts[i].v[2];
      fi_wq_w += parts[i].v[3];
    }
    step = sy > 0.0 ? std::clamp(ss / sy, opts.spg.step_min,
                                 opts.spg.step_max)
                    : opts.spg.step_max;

    double affine = 0.0;
    if (eta > 0.0) {
      for (double r : rs) affine += (r - 1.0) * (r - 1.0);
    }
    out.objective_trace.push_back(
        opts.gamma * (tr_q - 2.0 * tr_wq + fi_wq_w) +
        kt.dot(cs.data(), cs.data(), n) + eta * affine);
  }

  // Post-processing: prune dust, symmetrise for Laplacian use.
  if (opts.prune_rel_tol > 0.0) {
    const double cut = opts.prune_rel_tol * w.MaxAbs();
    w.Apply([cut](double v) { return v < cut ? 0.0 : v; });
  }
  if (opts.keep_top_k > 0 && opts.keep_top_k < n - 1) {
    std::vector<std::pair<double, std::size_t>> row;
    for (std::size_t i = 0; i < n; ++i) {
      row.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (w(i, j) > 0.0) row.push_back({w(i, j), j});
      }
      if (row.size() <= opts.keep_top_k) continue;
      std::nth_element(row.begin(),
                       row.begin() + static_cast<std::ptrdiff_t>(
                                         opts.keep_top_k - 1),
                       row.end(), std::greater<>());
      const double cut = row[opts.keep_top_k - 1].first;
      for (std::size_t j = 0; j < n; ++j) {
        if (w(i, j) < cut) w(i, j) = 0.0;
      }
    }
  }
  if (opts.symmetrize) {
    la::Matrix wt = w.Transposed();
    w.Add(wt);
    w.Scale(0.5);
  }

  out.affinity = std::move(w);
  out.iterations = it;
  out.converged = converged;
  return out;
}

}  // namespace core
}  // namespace rhchme
