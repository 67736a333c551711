#include "baselines/snmtf.h"

#include <utility>

#include "core/rhchme_solver.h"
#include "util/stopwatch.h"

namespace rhchme {
namespace baselines {

Status SnmtfOptions::Validate() const {
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  return knn.Validate();
}

Result<fact::HoccResult> RunSnmtf(const data::MultiTypeRelationalData& data,
                                  const SnmtfOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  // The watch covers the pNN graph construction inside Fit as well as the
  // solve, so Table V charges SNMTF for its graphs.
  Stopwatch watch;

  // Eq. 1 plus one pNN Laplacian: Eq. 15 with a pNN-only ensemble, the
  // robust term off and no row normalisation.
  core::RhchmeOptions core_opts;
  core_opts.lambda = opts.lambda;
  core_opts.ensemble.include_subspace = false;
  core_opts.ensemble.knn = opts.knn;
  core_opts.ensemble.laplacian = opts.laplacian;
  core_opts.use_error_matrix = false;
  core_opts.normalize_rows = false;
  core_opts.max_iterations = opts.max_iterations;
  core_opts.tolerance = opts.tolerance;
  core_opts.ridge = opts.ridge;
  core_opts.mu_eps = opts.mu_eps;
  core_opts.init = opts.init;
  core_opts.seed = opts.seed;

  Result<core::RhchmeResult> fit = core::Rhchme(core_opts).Fit(data);
  if (!fit.ok()) return fit.status();
  fact::HoccResult res = std::move(fit).value().hocc;
  res.seconds = watch.ElapsedSeconds();
  return res;
}

}  // namespace baselines
}  // namespace rhchme
