#include "baselines/src_clustering.h"

#include <utility>

#include "core/rhchme_solver.h"
#include "util/stopwatch.h"

namespace rhchme {
namespace baselines {

Status SrcOptions::Validate() const {
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (tolerance < 0.0) return Status::InvalidArgument("tolerance must be >= 0");
  return Status::OK();
}

Result<fact::HoccResult> RunSrc(const data::MultiTypeRelationalData& data,
                                const SrcOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  Stopwatch watch;

  // Eq. 1 is Eq. 15 with the manifold and robust terms off and no row
  // normalisation; the empty n x n Laplacian is never read at lambda = 0.
  core::RhchmeOptions core_opts;
  core_opts.lambda = 0.0;
  core_opts.use_error_matrix = false;
  core_opts.normalize_rows = false;
  core_opts.max_iterations = opts.max_iterations;
  core_opts.tolerance = opts.tolerance;
  core_opts.ridge = opts.ridge;
  core_opts.mu_eps = opts.mu_eps;
  core_opts.init = opts.init;
  core_opts.seed = opts.seed;
  const std::size_t n = data.TotalObjects();
  core::HeterogeneousEnsemble no_manifold;
  no_manifold.laplacian = la::SparseMatrix::FromTriplets(n, n, {});

  Result<core::RhchmeResult> fit =
      core::Rhchme(core_opts).FitWithEnsemble(data, no_manifold);
  if (!fit.ok()) return fit.status();
  fact::HoccResult res = std::move(fit).value().hocc;
  res.seconds = watch.ElapsedSeconds();
  return res;
}

}  // namespace baselines
}  // namespace rhchme
