// Shared machinery for NMTF-based HOCC solvers.
//
// RHCHME and the SRC/SNMTF/RMC baselines all decompose the joint inter-type
// matrix R ≈ G·S·Gᵀ with block-diagonal G and zero-diagonal-block S (paper
// §I.A / Eq. 1). This module holds the block-structure bookkeeping, the
// closed-form central-factor update (Eq. 18), the multiplicative ±-split
// G update (Eq. 21), the analytic residual row norms and the shared result
// type. The updates take low-rank products (n x c and c x c), never the
// dense n x n M they are formed from.

#ifndef RHCHME_FACTORIZATION_HOCC_COMMON_H_
#define RHCHME_FACTORIZATION_HOCC_COMMON_H_

#include <string>
#include <vector>

#include "data/multitype_data.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "util/rng.h"
#include "util/status.h"

namespace rhchme {
namespace fact {

/// Row/column offsets describing the block layout of the joint matrices.
struct BlockStructure {
  std::vector<std::size_t> type_offset;     ///< Row offset per type (+ n).
  std::vector<std::size_t> cluster_offset;  ///< Column offset per type (+ c).

  std::size_t num_types() const { return type_offset.size() - 1; }
  std::size_t total_objects() const { return type_offset.back(); }
  std::size_t total_clusters() const { return cluster_offset.back(); }
  std::size_t objects(std::size_t k) const {
    return type_offset[k + 1] - type_offset[k];
  }
  std::size_t clusters(std::size_t k) const {
    return cluster_offset[k + 1] - cluster_offset[k];
  }
};

/// Derives the block layout from the data's type/cluster counts.
BlockStructure BuildBlockStructure(const data::MultiTypeRelationalData& data);

/// How to initialise the membership matrix G (paper §III.D: either works;
/// k-means is Algorithm 2's default).
enum class MembershipInit { kKMeans, kRandom };

/// Block-diagonal initial G: type k's block is filled by k-means on the
/// type's features (or randomly), rows L1-normalised, never exactly zero
/// inside the block (multiplicative updates cannot leave zeros).
Result<la::Matrix> InitMembership(const data::MultiTypeRelationalData& data,
                                  const BlockStructure& blocks,
                                  MembershipInit init, Rng* rng);

/// Counters surfaced by the central-solve guard (folded into the solver's
/// FitDiagnostics). Optional everywhere — passing nullptr skips counting.
struct SolveStats {
  int ridge_retries = 0;  ///< Boosted-ridge attempts after a failed solve.
};

/// Closed-form S (paper Eq. 18): S = P·Gᵀ·M·G·P with P = (GᵀG + ridge·I)⁻¹,
/// from the precomputed c x c factors `gtg` = GᵀG and `gtmg` = Gᵀ·M·G, where
/// M is R (or R − E_R for the robust variant). Every solver evaluates
/// Gᵀ·M·G from low-rank products without forming M, then hands the c x c
/// pieces here.
///
/// Numerical guard: when the base solve fails or produces a non-finite S
/// (singular GᵀG, injected fault), the solve is retried up the ridge
/// ladder {ridge, ~1e-8·d̄, ~1e-4·d̄} with d̄ the mean |diagonal| of GᵀG,
/// counting each retry in `stats`. Only after the whole ladder fails does
/// the last error surface. The first attempt is byte-for-byte the
/// unguarded computation, so healthy fits keep their exact trajectory.
Result<la::Matrix> SolveCentralSFromProducts(const la::Matrix& gtg,
                                             const la::Matrix& gtmg,
                                             double ridge = 1e-9,
                                             SolveStats* stats = nullptr);

/// One multiplicative update of G (paper Eq. 21) for the objective
///   ‖M − G·S·Gᵀ‖²_F + lambda·tr(Gᵀ·L·G):
///   G ← G ∘ sqrt( (lambda·L⁻·G + A⁺ + G·B⁻) / (lambda·L⁺·G + A⁻ + G·B⁺) )
/// with the symmetrised gradient halves A = ½(M·G·Sᵀ + Mᵀ·G·S) and
/// B = ½(Sᵀ·GᵀG·S + S·GᵀG·Sᵀ), which reduce to the paper's A = M·G·Sᵀ,
/// B = Sᵀ·GᵀG·S when M and S are symmetric (DESIGN.md §5).
///
/// M enters only through the precomputed gradient halves `mg` = M·G and
/// `mtg` = Mᵀ·G (both n x c), with `gtg` = GᵀG: the RHCHME core evaluates
/// them from R·X products and O(n·c²) low-rank work via the implicit
/// M = R − diag(s)·(R − H·Gᵀ), and RMC from its cached K = R·G. `g` must
/// be the same membership every product was formed against.
/// `laplacian_pos`/`laplacian_neg` are the precomputed ± parts of L, kept
/// in CSR (the L±·G terms run as SpMM); pass nullptr (with lambda = 0)
/// when there is no manifold regulariser. `eps` floors the denominator.
/// Zero entries of G stay zero, so the block-diagonal structure is
/// preserved. Returns InvalidArgument on shape mismatch instead of
/// aborting — this is a fit-pipeline seam, and bad shapes here can come
/// from corrupted snapshots, not only programmer error.
Status MultiplicativeGUpdateFromProducts(const la::Matrix& mg,
                                         const la::Matrix& mtg,
                                         const la::Matrix& s,
                                         const la::Matrix& gtg, double lambda,
                                         const la::SparseMatrix* laplacian_pos,
                                         const la::SparseMatrix* laplacian_neg,
                                         double eps, la::Matrix* g);

/// G ∘= sqrt(num/(den+eps)) — the bare ratio update (used by DRCC, whose
/// factor matrices are not symmetric).
void RatioUpdate(const la::Matrix& num, const la::Matrix& den, double eps,
                 la::Matrix* g);

/// Row-wise L1 normalisation applied block-by-block: each row of type k is
/// normalised within its own cluster columns (paper Eq. 22; all-zero rows
/// become uniform over the block).
void NormalizeMembershipRows(const BlockStructure& blocks, la::Matrix* g);

/// Residual row norms ‖q_i‖ of Q = R − G·S·Gᵀ from cached n x c state,
/// never forming Q: with H = G·S, K = R·G and HG = H·(GᵀG),
/// ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ + h_i·HG_iᵀ, where `r_norm_sq` holds the
/// ‖r_i‖². Each row is written by exactly one chunk in fixed order, so the
/// norms are bit-identical for any pool size. `row_norm` must hold n
/// entries.
void ResidualRowNorms(const std::vector<double>& r_norm_sq,
                      const la::Matrix& h, const la::Matrix& k,
                      const la::Matrix& hg, std::vector<double>* row_norm);

/// Shared outcome of a HOCC solver.
struct HoccResult {
  la::Matrix g;                         ///< Joint n x c membership matrix.
  la::Matrix s;                         ///< Joint c x c association matrix.
  /// Hard labels per type (labels[k][i] in [0, c_k)).
  std::vector<std::vector<std::size_t>> labels;
  std::vector<double> objective_trace;  ///< Objective after each iteration.
  int iterations = 0;
  bool converged = false;
  double seconds = 0.0;                 ///< Wall-clock fit time.
};

/// Extracts hard per-type labels from the joint G.
std::vector<std::vector<std::size_t>> ExtractLabels(
    const BlockStructure& blocks, const la::Matrix& g);

}  // namespace fact
}  // namespace rhchme

#endif  // RHCHME_FACTORIZATION_HOCC_COMMON_H_
