#include "la/gemm.h"

#include <algorithm>
#include <vector>

#include "la/aligned.h"
#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace la {
namespace {

// Tile sizes for the blocked kernels. A reduction tile of B
// (kBlockK x kBlockJ = 128 KB) stays resident in L2 while a panel of
// kRowPanel output rows streams over it; the C row segment (kBlockJ
// doubles) stays in L1 across the reduction tile. The accumulation order
// for any output element is fixed by these constants and the dispatched
// kernel table alone, never by the thread count, which keeps results
// bit-identical for any pool size within a dispatched ISA.
constexpr std::size_t kRowPanel = 32;
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kBlockJ = 256;

/// Zero fraction at or above which a (row panel x kBlockK) tile of A takes
/// the zero-skipping scalar path. Membership blocks (one nonzero per row
/// per type block) sit far above this; dense R products sit far below, so
/// the probe rarely flips on borderline tiles.
constexpr double kSparsePanelZeroFraction = 0.5;

/// Cheap density probe: true when at least kSparsePanelZeroFraction of the
/// A tile rows [p0, p1) x cols [kb, kend) is exactly zero. One pass over
/// at most kRowPanel x kBlockK doubles — noise against the 2·rows·klen·n
/// flops the tile is about to spend.
bool PanelMostlyZero(const Matrix& a, std::size_t p0, std::size_t p1,
                     std::size_t kb, std::size_t kend) {
  std::size_t zeros = 0;
  for (std::size_t i = p0; i < p1; ++i) {
    const double* ai = a.row_ptr(i);
    for (std::size_t l = kb; l < kend; ++l) zeros += (ai[l] == 0.0);
  }
  const std::size_t total = (p1 - p0) * (kend - kb);
  return static_cast<double>(zeros) >=
         kSparsePanelZeroFraction * static_cast<double>(total);
}

/// Zero-skipping panel kernel: right for mostly-zero A tiles (membership
/// blocks), where skipped rows save the whole B-row stream. The branch
/// defeats vectorization of the l loop, which is why dense tiles bypass
/// this kernel entirely.
void GemmPanelSparse(const simd::KernelTable& kt, const Matrix& a,
                     const Matrix& b, Matrix* c, std::size_t p0,
                     std::size_t p1, std::size_t kb, std::size_t kend,
                     std::size_t jb, std::size_t jlen) {
  for (std::size_t i = p0; i < p1; ++i) {
    const double* ai = a.row_ptr(i);
    double* ci = c->row_ptr(i) + jb;
    for (std::size_t l = kb; l < kend; ++l) {
      const double ail = ai[l];
      if (ail == 0.0) continue;
      kt.axpy(ail, b.row_ptr(l) + jb, ci, jlen);
    }
  }
}

/// C rows [r0, r1) of C = A * B, tiled over the reduction and column dims
/// on the dispatched table's packed protocol. Loop order per chunk is
/// kb → jb → row panel: every dense (panel × kb) A tile is packed once
/// into mr-row micro-panels (BLIS A-panel layout — the packed stream is
/// contiguous in the reduction direction, which removes the strided-row
/// L1 conflict misses that capped the unpacked microkernel at large n),
/// and each nr-column packed B block is then reused across *all* row
/// panels of the chunk — B packing traffic scales with blocks, not with
/// blocks × panels, which is what capped the packed kernel at n=1024.
///
/// Terms enter every C element in "l ascending within kb, kb ascending"
/// order on both paths, but the rounding chain differs between them (FMA
/// into a zero-initialised register partial vs unfused in-place updates
/// of C), so the two paths are NOT bit-identical to each other. That is
/// fine for the determinism contract: probe decisions sit on kRowPanel
/// sub-panels of the *global* row grid (ParallelFor chunk starts are
/// always grain-aligned, even when ranges fuse on the inline path) and
/// read only A's content, never the thread count, so the path chosen for
/// a given tile — and the result — is the same for every pool size.
void GemmPanelNN(const Matrix& a, const Matrix& b, Matrix* c, std::size_t r0,
                 std::size_t r1) {
  const simd::KernelTable& kt = simd::Table();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  const std::size_t npanels = (r1 - r0 + kRowPanel - 1) / kRowPanel;
  const std::size_t ntiles = (k + kBlockK - 1) / kBlockK;
  AlignedVector<double> packa, packb;
  std::vector<std::size_t> aoff(npanels);
  // One probe per (panel × kBlockK) tile, taken before any product work.
  std::vector<char> sparse(npanels * ntiles);
  std::vector<char> rowwise(npanels);
  for (std::size_t p = 0; p < npanels; ++p) {
    const std::size_t p0 = r0 + p * kRowPanel;
    const std::size_t p1 = std::min(r1, p0 + kRowPanel);
    bool all_sparse = true;
    for (std::size_t t = 0; t < ntiles; ++t) {
      const std::size_t kb = t * kBlockK;
      const bool s =
          PanelMostlyZero(a, p0, p1, kb, std::min(k, kb + kBlockK));
      sparse[p * ntiles + t] = s ? 1 : 0;
      all_sparse = all_sparse && s;
    }
    rowwise[p] = all_sparse && n > kBlockJ ? 1 : 0;
  }
  // A panel whose every tile probes mostly zero (a sparse SPG direction)
  // skips the tiling when B is wider than one column block: each row adds
  // the B rows of its nonzeros straight into its C row, which stays in L1
  // instead of being re-streamed once per (kBlockK slab × column block).
  // Narrow products (the solver's n×c ones) keep the tiled loop, whose
  // B slab stays cache-resident across the panel. Every C element still
  // receives its terms in ascending l order through the same (exact,
  // element-parallel) axpy, so the result is bit-identical either way.
  for (std::size_t p = 0; p < npanels; ++p) {
    if (!rowwise[p]) continue;
    const std::size_t p0 = r0 + p * kRowPanel;
    const std::size_t p1 = std::min(r1, p0 + kRowPanel);
    for (std::size_t i = p0; i < p1; ++i) {
      const double* ai = a.row_ptr(i);
      double* ci = c->row_ptr(i);
      for (std::size_t l = 0; l < k; ++l) {
        if (ai[l] != 0.0) kt.axpy(ai[l], b.row_ptr(l), ci, n);
      }
    }
  }
  for (std::size_t t = 0; t < ntiles; ++t) {
    const std::size_t kb = t * kBlockK;
    const std::size_t kend = std::min(k, kb + kBlockK);
    const std::size_t klen = kend - kb;
    std::size_t atotal = 0;
    for (std::size_t p = 0; p < npanels; ++p) {
      if (sparse[p * ntiles + t]) continue;
      const std::size_t p0 = r0 + p * kRowPanel;
      const std::size_t p1 = std::min(r1, p0 + kRowPanel);
      const std::size_t apanels = (p1 - p0 + kt.mr - 1) / kt.mr;
      aoff[p] = atotal;
      atotal += apanels * klen * kt.mr;
    }
    packa.resize(atotal);
    for (std::size_t p = 0; p < npanels; ++p) {
      if (sparse[p * ntiles + t]) continue;
      const std::size_t p0 = r0 + p * kRowPanel;
      const std::size_t p1 = std::min(r1, p0 + kRowPanel);
      kt.pack_a(a.row_ptr(p0) + kb, a.stride(), p1 - p0, klen,
                packa.data() + aoff[p]);
    }
    for (std::size_t jb = 0; jb < n; jb += kBlockJ) {
      const std::size_t jlen = std::min(n, jb + kBlockJ) - jb;
      bool b_packed = false;
      for (std::size_t p = 0; p < npanels; ++p) {
        if (rowwise[p]) continue;
        const std::size_t p0 = r0 + p * kRowPanel;
        const std::size_t p1 = std::min(r1, p0 + kRowPanel);
        if (sparse[p * ntiles + t]) {
          GemmPanelSparse(kt, a, b, c, p0, p1, kb, kend, jb, jlen);
          continue;
        }
        if (!b_packed) {
          const std::size_t bpanels = (jlen + kt.nr - 1) / kt.nr;
          packb.resize(bpanels * klen * kt.nr);
          kt.pack_b(b.row_ptr(kb) + jb, b.stride(), klen, jlen,
                    packb.data());
          b_packed = true;
        }
        kt.gemm_packed(packa.data() + aoff[p], packb.data(), p1 - p0, klen,
                       jlen, c->row_ptr(p0) + jb, c->stride());
      }
    }
  }
}

}  // namespace

void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* c) {
  RHCHME_CHECK(a.cols() == b.rows(), "Multiply: inner dims mismatch");
  const std::size_t m = a.rows();
  c->Resize(m, b.cols());
  util::ParallelFor(0, m, kRowPanel, [&](std::size_t r0, std::size_t r1) {
    GemmPanelNN(a, b, c, r0, r1);
  });
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  Matrix c;
  MultiplyInto(a, b, &c);
  return c;
}

Matrix MultiplyTN(const Matrix& a, const Matrix& b) {
  RHCHME_CHECK(a.rows() == b.rows(), "MultiplyTN: inner dims mismatch");
  // Materialising Aᵀ costs O(mk) against the O(mkn) product and turns the
  // column-strided reads into the contiguous row-panel kernel.
  const Matrix at = a.Transposed();
  Matrix c(at.rows(), b.cols());
  util::ParallelFor(0, at.rows(), kRowPanel,
                    [&](std::size_t r0, std::size_t r1) {
                      GemmPanelNN(at, b, &c, r0, r1);
                    });
  return c;
}

void MultiplyTNStreamInto(const Matrix& a, const Matrix& b, Matrix* c) {
  RHCHME_CHECK(a.rows() == b.rows(), "MultiplyTN: inner dims mismatch");
  const simd::KernelTable& kt = simd::Table();
  const std::size_t kk = a.rows(), m = a.cols(), n = b.cols();
  c->Resize(m, n);
  if (kk == 0 || m == 0 || n == 0) return;
  // Bounded per-chunk accumulators keep the merge memory at <= kMaxChunks
  // output copies, and the shape-only chunk layout keeps the per-element
  // accumulation order (ascending source row) independent of the thread
  // count (util/parallel.h, idiom (c)).
  constexpr std::size_t kMaxChunks = 16;
  const std::size_t cap_grain = (kk + kMaxChunks - 1) / kMaxChunks;
  const std::size_t grain =
      std::max(util::GrainForWork(2 * m * (n ? n : 1)), cap_grain);
  const std::size_t nchunks = (kk + grain - 1) / grain;
  if (nchunks <= 1) {
    for (std::size_t k = 0; k < kk; ++k) {
      const double* ak = a.row_ptr(k);
      const double* bk = b.row_ptr(k);
      for (std::size_t i = 0; i < m; ++i) {
        const double aki = ak[i];
        if (aki == 0.0) continue;
        kt.axpy(aki, bk, c->row_ptr(i), n);
      }
    }
    return;
  }
  std::vector<Matrix> partial(nchunks);
  util::ParallelFor(0, kk, grain, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t cb = b0; cb < e0; cb += grain) {
      Matrix& slot = partial[cb / grain];
      slot.Resize(m, n);  // Zero-initialised accumulator.
      const std::size_t ce = std::min(e0, cb + grain);
      for (std::size_t k = cb; k < ce; ++k) {
        const double* ak = a.row_ptr(k);
        const double* bk = b.row_ptr(k);
        for (std::size_t i = 0; i < m; ++i) {
          const double aki = ak[i];
          if (aki == 0.0) continue;
          kt.axpy(aki, bk, slot.row_ptr(i), n);
        }
      }
    }
  });
  for (const Matrix& slot : partial) c->Add(slot);
}

Matrix MultiplyNT(const Matrix& a, const Matrix& b) {
  RHCHME_CHECK(a.cols() == b.cols(), "MultiplyNT: inner dims mismatch");
  const simd::KernelTable& kt = simd::Table();
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  // C(i,j) is a dot product of two contiguous rows; rows of C are
  // independent, so panels go straight to the pool.
  const std::size_t grain =
      std::max(std::size_t{1}, util::GrainForWork(2 * k * (n ? n : 1)));
  util::ParallelFor(0, m, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* ai = a.row_ptr(i);
      double* ci = c.row_ptr(i);
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] = kt.dot(ai, b.row_ptr(j), k);
      }
    }
  });
  return c;
}

Matrix Gram(const Matrix& a) {
  const simd::KernelTable& kt = simd::Table();
  const std::size_t k = a.rows(), n = a.cols();
  Matrix g(n, n);
  if (n == 0) return g;
  // Row i of AᵀA needs column i of A; the transpose makes every dot
  // contiguous. Upper triangle first (disjoint rows per chunk), mirror
  // after the barrier.
  const Matrix at = a.Transposed();
  const std::size_t grain =
      std::max(std::size_t{1}, util::GrainForWork(k * (n / 2 + 1)));
  util::ParallelFor(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* ati = at.row_ptr(i);
      double* gi = g.row_ptr(i);
      for (std::size_t j = i; j < n; ++j) {
        gi[j] = kt.dot(ati, at.row_ptr(j), k);
      }
    }
  });
  util::ParallelFor(0, n, std::max(std::size_t{1}, util::GrainForWork(n)),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        for (std::size_t j = 0; j < i; ++j) {
                          g(i, j) = g(j, i);
                        }
                      }
                    });
  return g;
}

std::vector<double> MultiplyVec(const Matrix& a, const std::vector<double>& x) {
  RHCHME_CHECK(a.cols() == x.size(), "MultiplyVec: dims mismatch");
  const simd::KernelTable& kt = simd::Table();
  std::vector<double> y(a.rows(), 0.0);
  util::ParallelFor(0, a.rows(), util::GrainForWork(2 * a.cols() + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        y[i] = kt.dot(a.row_ptr(i), x.data(), a.cols());
                      }
                    });
  return y;
}

double FrobeniusInner(const Matrix& a, const Matrix& b) {
  RHCHME_CHECK(a.SameShape(b), "FrobeniusInner: shape mismatch");
  const simd::KernelTable& kt = simd::Table();
  const std::size_t cols = a.cols();
  if (a.rows() == 0 || cols == 0) return 0.0;
  // Row-wise so the padded storage's stride never enters the sum; rows
  // within a chunk accumulate in ascending order and ParallelSum merges
  // chunk partials in chunk order.
  return util::ParallelSum(0, a.rows(), util::GrainForWork(2 * cols),
                           [&](std::size_t r0, std::size_t r1) {
                             double acc = 0.0;
                             for (std::size_t i = r0; i < r1; ++i) {
                               acc += kt.dot(a.row_ptr(i), b.row_ptr(i),
                                             cols);
                             }
                             return acc;
                           });
}

}  // namespace la
}  // namespace rhchme
