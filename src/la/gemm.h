// Dense matrix-multiplication kernels.
//
// Every solver inner loop in the library funnels through these products.
// The kernels are cache-blocked (tiled over the reduction and column
// dimensions) and dispatch independent row panels of the output through
// util::ParallelFor, so they scale across cores; thread count is governed
// by util::SetNumThreads / the RHCHME_NUM_THREADS environment variable,
// and grain sizes derive from util::GrainForWork (≈64K flops per chunk).
//
// Within each row panel the inner loops run on the runtime-dispatched
// kernel table (la/simd.h, la/kernels.h): dense A tiles are packed —
// both operands, BLIS-style — and go through the table's register-blocked
// microkernel; mostly-zero tiles (membership blocks) keep a zero-skipping
// axpy path, selected per tile by a cheap density probe; when B is wider
// than one column block, a row panel whose every tile probes mostly zero
// runs that axpy path row by row over the whole reduction. One binary
// carries every compiled table (scalar, avx2, avx512, neon) and picks one
// at startup by CPUID; RHCHME_FORCE_ISA / --force_isa pins the choice.
//
// Determinism: each output row is produced by exactly one chunk and its
// accumulation order is fixed by compile-time tile constants and the
// shape-only chunk layout, never by the thread count or schedule, so
// results are bit-identical for any pool size *under a given dispatched
// table* (different tables reassociate reductions differently and are
// not bit-comparable to each other). Shapes are checked; `*Into` variants
// reuse the caller's output buffer.

#ifndef RHCHME_LA_GEMM_H_
#define RHCHME_LA_GEMM_H_

#include "la/matrix.h"

namespace rhchme {
namespace la {

/// C = A * B. Requires a.cols() == b.rows().
Matrix Multiply(const Matrix& a, const Matrix& b);

/// C = Aᵀ * B. Requires a.rows() == b.rows(). Materialises Aᵀ first —
/// fastest for the general case, but costs an A-sized temporary.
Matrix MultiplyTN(const Matrix& a, const Matrix& b);

/// C = A * Bᵀ. Requires a.cols() == b.cols().
Matrix MultiplyNT(const Matrix& a, const Matrix& b);

/// Writes A * B into `c` (resized as needed).
void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* c);

/// Gram matrix AᵀA (symmetric; computes the upper triangle in parallel
/// row panels and mirrors).
Matrix Gram(const Matrix& a);

/// y = A * x. Requires a.cols() == x.size().
std::vector<double> MultiplyVec(const Matrix& a, const std::vector<double>& x);

/// tr(Aᵀ B) = sum of the entrywise product — the Frobenius inner product.
/// Cheaper than forming the product when only the trace is needed.
double FrobeniusInner(const Matrix& a, const Matrix& b);

}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_GEMM_H_
