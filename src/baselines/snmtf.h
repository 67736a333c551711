// SNMTF — Symmetric Nonnegative Matrix Tri-Factorisation baseline
// (paper §II.A Eq. 1 and §IV.B; Wang et al., CIKM/ICDM 2011 [5, 6]).
//
// Adds a single-graph manifold regulariser to the SRC objective:
//
//   min_{G >= 0}  ||R − G·S·Gᵀ||²_F + lambda·tr(Gᵀ·L·G)
//
// with L built from ONE pNN graph per type (the paper uses p = 5). This
// is the "intra-type relationships from a pNN graph only" reference
// point that RHCHME's heterogeneous ensemble improves on. The original
// SNMTF imposes Gᵀ·L·G = I; as in RMC [15] we use the relaxed
// multiplicative scheme, which keeps G nonnegative (the paper §III.C
// discusses exactly this trade-off).
//
// Runs on the RHCHME solver core (core/rhchme_solver.h): core::Rhchme::Fit
// with a pNN-only ensemble, the robust term off and no row normalisation.
// It therefore shares the core's R store, memory model and numerical
// guards.

#ifndef RHCHME_BASELINES_SNMTF_H_
#define RHCHME_BASELINES_SNMTF_H_

#include <cstdint>

#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "graph/knn_graph.h"
#include "graph/laplacian.h"
#include "util/status.h"

namespace rhchme {
namespace baselines {

struct SnmtfOptions {
  double lambda = 250.0;  ///< Graph regularisation strength.
  graph::KnnGraphOptions knn;  ///< Single pNN member (paper: p=5 cosine).
  graph::LaplacianKind laplacian = graph::LaplacianKind::kSymmetric;
  int max_iterations = 100;
  double tolerance = 1e-5;
  double ridge = 1e-9;
  double mu_eps = 1e-12;
  fact::MembershipInit init = fact::MembershipInit::kKMeans;
  uint64_t seed = 0;

  Status Validate() const;
};

/// Fits SNMTF. Types must have nonempty features (for the pNN graphs).
Result<fact::HoccResult> RunSnmtf(const data::MultiTypeRelationalData& data,
                                  const SnmtfOptions& opts);

}  // namespace baselines
}  // namespace rhchme

#endif  // RHCHME_BASELINES_SNMTF_H_
