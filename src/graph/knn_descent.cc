#include "graph/knn_descent.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "la/simd.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rhchme {
namespace graph {
namespace {

/// Bounded chunk count for the shape-only triangular split of the exact
/// engine (same idiom and cap as la::MultiplyTNStreamInto): scratch is
/// O(n·p) per chunk, so the cap bounds peak memory at 16·n·p entries.
constexpr std::size_t kMaxExactChunks = 16;

/// Row panel height of the exact engine's distance tiles: each j-row load
/// is reused against a whole panel of i-rows while the panel's heap state
/// stays hot.
constexpr std::size_t kExactPanelRows = 8;

/// Total order on candidates: closer first, ties broken by index so every
/// merge order yields the same list.
inline bool CloserThan(double da, std::size_t ia, double db, std::size_t ib) {
  return da < db || (da == db && ia < ib);
}

/// Per-row top-p candidate heap over a caller-owned entry slab: a binary
/// max-heap ordered by CloserThan, worst candidate at the root so inserts
/// beyond capacity replace it in O(log p).
class TopPHeap {
 public:
  TopPHeap(KnnNeighbor* slab, std::size_t capacity, std::size_t size = 0)
      : slab_(slab), capacity_(capacity), size_(size) {}

  std::size_t size() const { return size_; }
  const KnnNeighbor& entry(std::size_t i) const { return slab_[i]; }

  bool full() const { return size_ == capacity_; }
  /// Root = worst entry when the heap is full.
  const KnnNeighbor& root() const { return slab_[0]; }

  bool Contains(std::size_t index) const {
    for (std::size_t t = 0; t < size_; ++t) {
      if (slab_[t].index == index) return true;
    }
    return false;
  }

  /// True when (index, distance) entered the heap.
  bool Push(std::size_t index, double distance) {
    if (size_ < capacity_) {
      slab_[size_++] = {index, distance};
      SiftUp(size_ - 1);
      return true;
    }
    if (!CloserThan(distance, index, slab_[0].distance, slab_[0].index)) {
      return false;
    }
    slab_[0] = {index, distance};
    SiftDown(0);
    return true;
  }

  /// Copies the entries out, sorted ascending by (distance, index).
  void ExtractSorted(std::vector<KnnNeighbor>* out) const {
    out->assign(slab_, slab_ + size_);
    std::sort(out->begin(), out->end(),
              [](const KnnNeighbor& a, const KnnNeighbor& b) {
                return CloserThan(a.distance, a.index, b.distance, b.index);
              });
  }

 private:
  /// True when a is *farther* than b (the heap's "greater" order).
  static bool Farther(const KnnNeighbor& a, const KnnNeighbor& b) {
    return CloserThan(b.distance, b.index, a.distance, a.index);
  }

  void SiftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!Farther(slab_[i], slab_[parent])) break;
      std::swap(slab_[i], slab_[parent]);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    for (;;) {
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      std::size_t top = i;
      if (l < size_ && Farther(slab_[l], slab_[top])) top = l;
      if (r < size_ && Farther(slab_[r], slab_[top])) top = r;
      if (top == i) break;
      std::swap(slab_[i], slab_[top]);
      i = top;
    }
  }

  KnnNeighbor* slab_;
  std::size_t capacity_;
  std::size_t size_ = 0;
};

/// Shared metric state: squared row norms for kSquaredEuclidean (the
/// historical sq[i] + sq[j] − 2·dot grouping, kept so exact weights stay
/// bit-identical to the old dense path), row norms for kCosine.
struct MetricContext {
  const la::Matrix& points;
  KnnMetric metric;
  std::vector<double> norm;  // ‖x_i‖² (Euclidean) or ‖x_i‖ (cosine).
};

MetricContext MakeMetricContext(const la::Matrix& points, KnnMetric metric) {
  const std::size_t n = points.rows(), d = points.cols();
  MetricContext ctx{points, metric, std::vector<double>(n, 0.0)};
  util::ParallelFor(0, n, util::GrainForWork(2 * d + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        const double* r = points.row_ptr(i);
                        const double sq = la::simd::Dot(r, r, d);
                        ctx.norm[i] =
                            metric == KnnMetric::kCosine ? std::sqrt(sq) : sq;
                      }
                    });
  return ctx;
}

inline double Distance(const MetricContext& ctx, std::size_t i,
                       std::size_t j) {
  const std::size_t d = ctx.points.cols();
  const double dot =
      la::simd::Dot(ctx.points.row_ptr(i), ctx.points.row_ptr(j), d);
  if (ctx.metric == KnnMetric::kSquaredEuclidean) {
    // max() guards the tiny negatives produced by cancellation.
    return std::max(0.0, ctx.norm[i] + ctx.norm[j] - 2.0 * dot);
  }
  if (ctx.norm[i] == 0.0 || ctx.norm[j] == 0.0) return 1.0;
  return 1.0 - dot / (ctx.norm[i] * ctx.norm[j]);
}

/// Cost-balanced boundaries of the triangular pair set: chunk k covers
/// rows [bounds[k], bounds[k+1]) such that every chunk owns about
/// total/chunks of the Σ (n−1−i) distance dots. Derived from (n, chunks)
/// only — never the pool size — so chunk identity survives any schedule.
std::vector<std::size_t> TriangularBounds(std::size_t n, std::size_t chunks) {
  std::vector<std::size_t> bounds(chunks + 1, n);
  bounds[0] = 0;
  const double total = 0.5 * static_cast<double>(n) * (n - 1);
  std::size_t row = 0;
  double done = 0.0;
  for (std::size_t k = 1; k < chunks; ++k) {
    const double target = total * static_cast<double>(k) /
                          static_cast<double>(chunks);
    while (row < n && done < target) {
      done += static_cast<double>(n - 1 - row);
      ++row;
    }
    bounds[k] = row;
  }
  return bounds;
}

/// Fixed chunk count of the descent join — shape-only so the proposal
/// merge order (chunk ascending, emission order within a chunk) never
/// depends on the pool size.
constexpr std::size_t kMaxJoinChunks = 16;

/// One improvement proposal from the generator-side join: `partner` at
/// distance `dist` challenges `target`'s current list.
struct JoinProposal {
  uint32_t target;
  uint32_t partner;
  double dist;
};

/// Pushes `cand` into the heap unless it is already present or provably
/// rejected; the cheap root test runs first so the O(size) membership
/// scan is only paid for candidates that would actually enter. Heap
/// content stays insertion-order-independent: an evicted entry can never
/// re-enter because eviction implies every survivor is closer in the
/// (distance, index) total order.
inline bool DedupPush(TopPHeap* heap, std::size_t cand, double dist) {
  if (heap->full() &&
      !CloserThan(dist, cand, heap->root().distance, heap->root().index)) {
    return false;
  }
  if (heap->Contains(cand)) return false;
  return heap->Push(cand, dist);
}

/// Seeds the n×p `lists` slabs from a random-projection forest: each tree
/// recursively halves the row set by a hyperplane through two sampled
/// rows (deterministic median split in the (projection, index) total
/// order) down to `leaf` rows, then joins every leaf exhaustively.
/// Leaves of one tree are disjoint, so the per-leaf parallel join owns
/// its rows' heaps exclusively; trees run sequentially. Requires
/// leaf >= 2·(p+1): a median split never creates a leaf smaller than
/// ceil(leaf/2) > p, so every heap comes out full.
///
/// `leaf_tags` (n × trees, tag t of node v at v*trees + t) records each
/// node's leaf ordinal per tree. A pair sharing a tag was already joined
/// exhaustively, and a pair that one endpoint's heap has seen can never
/// improve that heap again (rejection and eviction are monotone in the
/// (distance, index) total order) — so later trees and the descent rounds
/// skip tag-sharing pairs with bit-identical results.
void RpForestInit(const MetricContext& ctx, std::size_t p, int trees,
                  std::size_t leaf, uint64_t seed,
                  std::vector<KnnNeighbor>* lists,
                  std::vector<std::size_t>* sizes,
                  std::vector<uint32_t>* leaf_tags) {
  const std::size_t n = ctx.points.rows(), d = ctx.points.cols();
  struct Span {
    std::size_t lo, hi;
  };
  std::vector<uint32_t> idx(n), scratch(n);
  std::vector<double> proj(n), dir(d);
  std::vector<std::pair<double, uint32_t>> keys;
  std::vector<Span> stack, leaves;
  for (int tree = 0; tree < trees; ++tree) {
    for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
    stack.assign(1, Span{0, n});
    leaves.clear();
    uint64_t split_id = 0;
    const uint64_t tree_seed =
        DeriveStreamSeed(seed, 0xa11f0000ULL + static_cast<uint64_t>(tree));
    while (!stack.empty()) {
      const Span s = stack.back();
      stack.pop_back();
      const std::size_t m = s.hi - s.lo;
      if (m <= leaf) {
        leaves.push_back(s);
        continue;
      }
      // Hyperplane through two sampled rows: direction x_a − x_b.
      Rng rng = StreamRng(tree_seed, split_id++);
      const std::size_t a = s.lo + rng.UniformInt(m);
      std::size_t b = s.lo + rng.UniformInt(m);
      if (b == a) b = s.lo + (b + 1 - s.lo) % m;
      const double* xa = ctx.points.row_ptr(idx[a]);
      const double* xb = ctx.points.row_ptr(idx[b]);
      for (std::size_t j = 0; j < d; ++j) dir[j] = xa[j] - xb[j];
      keys.resize(m);
      for (std::size_t k = 0; k < m; ++k) {
        proj[s.lo + k] =
            la::simd::Dot(ctx.points.row_ptr(idx[s.lo + k]), dir.data(), d);
        keys[k] = {proj[s.lo + k], idx[s.lo + k]};
      }
      // Median split in the (projection, index) total order: exactly
      // m/2 keys are strictly below the pivot, so the stable two-way
      // scatter below fills the halves exactly — deterministic even
      // though nth_element's internal ordering is not.
      std::nth_element(keys.begin(), keys.begin() + m / 2, keys.end());
      const std::pair<double, uint32_t> pivot = keys[m / 2];
      std::size_t lo_at = s.lo, hi_at = s.lo + m / 2;
      for (std::size_t k = 0; k < m; ++k) {
        const std::pair<double, uint32_t> key{proj[s.lo + k], idx[s.lo + k]};
        scratch[key < pivot ? lo_at++ : hi_at++] = idx[s.lo + k];
      }
      std::copy(scratch.begin() + s.lo, scratch.begin() + s.hi,
                idx.begin() + s.lo);
      stack.push_back(Span{s.lo + m / 2, s.hi});
      stack.push_back(Span{s.lo, s.lo + m / 2});
    }
    // Exhaustive join inside every leaf: pair (a, b) is evaluated once
    // and challenges both endpoints' heaps. Rows are gathered up front so
    // the pair loop runs over L1-resident pointers. Pairs that shared a
    // leaf in an earlier tree are skipped (already joined there), which
    // also means no heap ever sees the same partner twice — plain pushes
    // suffice, no duplicate scan.
    const std::size_t t_now = static_cast<std::size_t>(tree);
    util::ParallelFor(
        0, leaves.size(), 1, [&](std::size_t l0, std::size_t l1) {
          std::vector<const double*> l_ptr(leaf);
          std::vector<double> l_norm(leaf);
          for (std::size_t l = l0; l < l1; ++l) {
            const Span s = leaves[l];
            const std::size_t m = s.hi - s.lo;
            for (std::size_t k = 0; k < m; ++k) {
              const std::size_t a = idx[s.lo + k];
              l_ptr[k] = ctx.points.row_ptr(a);
              l_norm[k] = ctx.norm[a];
            }
            for (std::size_t i = 0; i + 1 < m; ++i) {
              const std::size_t a = idx[s.lo + i];
              const double* pa = l_ptr[i];
              const double na = l_norm[i];
              const uint32_t* tag_a = leaf_tags->data() + a * trees;
              for (std::size_t j = i + 1; j < m; ++j) {
                const std::size_t b = idx[s.lo + j];
                const uint32_t* tag_b = leaf_tags->data() + b * trees;
                bool joined_before = false;
                for (std::size_t t = 0; t < t_now; ++t) {
                  if (tag_a[t] == tag_b[t]) {
                    joined_before = true;
                    break;
                  }
                }
                if (joined_before) continue;
                const double dot = la::simd::Dot(pa, l_ptr[j], d);
                double dist;
                if (ctx.metric == KnnMetric::kSquaredEuclidean) {
                  dist = std::max(0.0, na + l_norm[j] - 2.0 * dot);
                } else if (na == 0.0 || l_norm[j] == 0.0) {
                  dist = 1.0;
                } else {
                  dist = 1.0 - dot / (na * l_norm[j]);
                }
                TopPHeap ha(lists->data() + a * p, p, (*sizes)[a]);
                ha.Push(b, dist);
                (*sizes)[a] = ha.size();
                TopPHeap hb(lists->data() + b * p, p, (*sizes)[b]);
                hb.Push(a, dist);
                (*sizes)[b] = hb.size();
              }
            }
          }
        });
    // Record this tree's leaf ordinals only after its join, so the skip
    // test above never sees the tree's own tags.
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      for (std::size_t k = leaves[l].lo; k < leaves[l].hi; ++k) {
        (*leaf_tags)[idx[k] * trees + tree] = static_cast<uint32_t>(l);
      }
    }
  }
}

}  // namespace

Status KnnDescentOptions::Validate() const {
  if (max_iterations < 1) {
    return Status::InvalidArgument("NN-descent needs max_iterations >= 1");
  }
  if (termination_delta < 0.0) {
    return Status::InvalidArgument(
        "NN-descent termination_delta must be >= 0");
  }
  if (sample_rate <= 0.0 || sample_rate > 1.0) {
    return Status::InvalidArgument(
        "NN-descent sample_rate must be in (0, 1]");
  }
  if (rp_trees < 0) {
    return Status::InvalidArgument("NN-descent rp_trees must be >= 0");
  }
  if (leaf_size < 4) {
    return Status::InvalidArgument("NN-descent leaf_size must be >= 4");
  }
  return Status::OK();
}

KnnNeighborLists ExactKnnNeighbors(const la::Matrix& points, std::size_t p,
                                   KnnMetric metric) {
  const std::size_t n = points.rows(), d = points.cols();
  KnnNeighborLists out(n);
  if (n < 2) return out;
  p = std::min(p, n - 1);
  const MetricContext ctx = MakeMetricContext(points, metric);

  // Shape-only chunk count: enough chunks to amortise kMinWorkPerChunk
  // dots of length d each, capped so scratch stays O(n·p).
  const double total_pairs = 0.5 * static_cast<double>(n) * (n - 1);
  const std::size_t want =
      static_cast<std::size_t>(total_pairs * static_cast<double>(d) /
                               static_cast<double>(util::kMinWorkPerChunk)) +
      1;
  const std::size_t chunks = std::min(kMaxExactChunks, std::min(want, n));
  const std::vector<std::size_t> bounds = TriangularBounds(n, chunks);

  // Chunk k owns source rows [bounds[k], bounds[k+1]) and evaluates every
  // pair (i, j) with j > i in that range — each pair exactly once across
  // chunks. Both endpoints' candidates land in the chunk's own heap
  // scratch, which covers target rows [bounds[k], n); the merge below
  // walks chunks in fixed order.
  std::vector<std::vector<KnnNeighbor>> slabs(chunks);
  std::vector<std::vector<std::size_t>> sizes(chunks);
  util::ParallelFor(0, chunks, 1, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t r0 = bounds[c], r1 = bounds[c + 1];
      if (r0 >= r1) continue;
      const std::size_t span = n - r0;
      slabs[c].resize(span * p);
      sizes[c].assign(span, 0);
      std::vector<TopPHeap> heaps;
      heaps.reserve(span);
      for (std::size_t t = 0; t < span; ++t) {
        heaps.emplace_back(slabs[c].data() + t * p, p);
      }
      // Row panels: each j-row is streamed once per panel and scored
      // against up to kExactPanelRows i-rows while their heaps stay hot.
      for (std::size_t i0 = r0; i0 < r1; i0 += kExactPanelRows) {
        const std::size_t i1 = std::min(i0 + kExactPanelRows, r1);
        for (std::size_t j = i0 + 1; j < n; ++j) {
          const std::size_t i_end = std::min(i1, j);
          for (std::size_t i = i0; i < i_end; ++i) {
            const double dist = Distance(ctx, i, j);
            if (heaps[i - r0].Push(j, dist)) sizes[c][i - r0] = heaps[i - r0].size();
            if (heaps[j - r0].Push(i, dist)) sizes[c][j - r0] = heaps[j - r0].size();
          }
        }
      }
    }
  });

  // Merge: row i's candidates are spread over the chunks whose scratch
  // covers it; every partner index appears exactly once (each pair was
  // evaluated once), so concatenating in chunk order and keeping the
  // closest p by (distance, index) is schedule-independent.
  util::ParallelFor(
      0, n, util::GrainForWork(chunks * p * 8 + 1),
      [&](std::size_t t0, std::size_t t1) {
        std::vector<KnnNeighbor> merged;
        for (std::size_t i = t0; i < t1; ++i) {
          merged.clear();
          for (std::size_t c = 0; c < chunks; ++c) {
            if (bounds[c] > i) break;  // Later chunks do not cover row i.
            if (bounds[c] >= bounds[c + 1]) continue;
            const std::size_t t = i - bounds[c];
            const KnnNeighbor* s = slabs[c].data() + t * p;
            merged.insert(merged.end(), s, s + sizes[c][t]);
          }
          std::sort(merged.begin(), merged.end(),
                    [](const KnnNeighbor& a, const KnnNeighbor& b) {
                      return CloserThan(a.distance, a.index, b.distance,
                                        b.index);
                    });
          if (merged.size() > p) merged.resize(p);
          out[i] = merged;
        }
      });
  return out;
}

Result<KnnNeighborLists> NnDescent(const la::Matrix& points, std::size_t p,
                                   KnnMetric metric,
                                   const KnnDescentOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  const std::size_t n = points.rows();
  KnnNeighborLists out(n);
  if (n < 2) return out;
  p = std::min(p, n - 1);
  if (p + 1 >= n) {
    // Every other point is a neighbour; the exact engine is already
    // O(n·p) here and descent could not prune anything.
    return ExactKnnNeighbors(points, p, metric);
  }
  const MetricContext ctx = MakeMetricContext(points, metric);
  const std::size_t d = points.cols();

  // Neighbour state as flat heap slabs: entry t of row v lives at v*p + t,
  // with the worst entry at slot 0 once the heap is full. `fresh` marks
  // entries not yet fed through a join round.
  std::vector<KnnNeighbor> lists(n * p);
  std::vector<char> fresh(n * p, 1);

  // Per-node leaf ordinals of the init forest (n × rp_trees): pairs
  // sharing a tag were joined exhaustively during init and are skipped by
  // every later pair scan (bit-identical, see RpForestInit).
  const std::size_t n_tags = static_cast<std::size_t>(opts.rp_trees);
  std::vector<uint32_t> leaf_tags(n * n_tags);
  if (opts.rp_trees > 0) {
    // Random-projection forest init: every heap comes out full because
    // the effective leaf keeps >= p + 1 rows per leaf (see RpForestInit).
    const std::size_t leaf =
        std::max<std::size_t>(opts.leaf_size, 2 * (p + 1));
    std::vector<std::size_t> sizes(n, 0);
    RpForestInit(ctx, p, opts.rp_trees, leaf, opts.seed, &lists, &sizes,
                 &leaf_tags);
  } else {
    // Reference fallback: random initial lists from per-node streams —
    // node v samples p distinct partners from [0, n) \ {v}.
    util::ParallelFor(
        0, n, util::GrainForWork(2 * d * p + 1),
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t v = r0; v < r1; ++v) {
            Rng rng = StreamRng(opts.seed, v);
            const std::vector<std::size_t> picks =
                rng.SampleWithoutReplacement(n - 1, p);
            TopPHeap heap(lists.data() + v * p, p);
            for (std::size_t raw : picks) {
              const std::size_t u = raw >= v ? raw + 1 : raw;  // Skip self.
              heap.Push(u, Distance(ctx, v, u));
            }
          }
        });
  }

  const std::size_t fwd_cap = static_cast<std::size_t>(
      std::ceil(opts.sample_rate * static_cast<double>(p)));
  const std::size_t rev_cap = 2 * fwd_cap;
  const std::size_t max_adj = p + rev_cap;
  const std::size_t update_floor = static_cast<std::size_t>(
      opts.termination_delta * static_cast<double>(n) *
      static_cast<double>(p));

  // Flat per-round state, allocated once. Forward edges: up to p kept
  // entries per node (old edges plus the sampled fresh ones). Reverse
  // edges: exact CSR of the kept forward edges, capped per node when the
  // adjacency is assembled.
  std::vector<uint32_t> fwd_node(n * p);
  std::vector<char> fwd_flag(n * p);
  std::vector<uint32_t> fwd_cnt(n);
  std::vector<uint32_t> rev_off(n + 1), rev_node(n * p);
  std::vector<char> rev_flag(n * p);
  std::vector<uint32_t> adj_off(n + 1), adj_node(n * max_adj);
  std::vector<char> adj_flag(n * max_adj);
  std::vector<double> worst(n);
  std::vector<std::vector<JoinProposal>> proposals(kMaxJoinChunks);
  for (auto& buf : proposals) buf.reserve(2 * (n / kMaxJoinChunks + 1) * p);
  std::vector<JoinProposal> by_target;
  by_target.reserve(2 * n * p);
  std::vector<uint32_t> target_off(n + 1);
  std::vector<KnnNeighbor> next(n * p);
  std::vector<char> next_fresh(n * p);
  std::vector<std::size_t> updates(n, 0);

  for (int round = 0; round < opts.max_iterations; ++round) {
    // ---- Forward thinning: node v keeps its settled entries plus at
    // most fwd_cap of its fresh ones, drawn from a (seed, round, node)
    // stream; sampled entries lose their flag, unsampled fresh entries
    // stay fresh and sit the round out (the rho-sampling of the paper).
    const uint64_t fwd_seed = DeriveStreamSeed(
        opts.seed, 0x7e7e0000ULL + static_cast<uint64_t>(round));
    const uint64_t rev_seed = DeriveStreamSeed(
        opts.seed, 0x5a5a0000ULL + static_cast<uint64_t>(round));
    util::ParallelFor(
        0, n, util::GrainForWork(64 * p + 1),
        [&](std::size_t r0, std::size_t r1) {
          std::vector<std::size_t> fresh_slots;
          for (std::size_t v = r0; v < r1; ++v) {
            fresh_slots.clear();
            uint32_t cnt = 0;
            for (std::size_t t = 0; t < p; ++t) {
              if (fresh[v * p + t]) {
                fresh_slots.push_back(t);
              } else {
                fwd_node[v * p + cnt] =
                    static_cast<uint32_t>(lists[v * p + t].index);
                fwd_flag[v * p + cnt] = 0;
                ++cnt;
              }
            }
            if (fresh_slots.size() > fwd_cap) {
              Rng rng = StreamRng(fwd_seed, v);
              std::vector<std::size_t> keep =
                  rng.SampleWithoutReplacement(fresh_slots.size(), fwd_cap);
              std::sort(keep.begin(), keep.end());
              for (std::size_t k : keep) {
                const std::size_t t = fresh_slots[k];
                fwd_node[v * p + cnt] =
                    static_cast<uint32_t>(lists[v * p + t].index);
                fwd_flag[v * p + cnt] = 1;
                ++cnt;
                fresh[v * p + t] = 0;
              }
            } else {
              for (std::size_t t : fresh_slots) {
                fwd_node[v * p + cnt] =
                    static_cast<uint32_t>(lists[v * p + t].index);
                fwd_flag[v * p + cnt] = 1;
                ++cnt;
                fresh[v * p + t] = 0;
              }
            }
            fwd_cnt[v] = cnt;
          }
        });

    // ---- Reverse CSR of the kept forward edges (serial counting
    // scatter in ascending source order: deterministic and O(n·p)).
    std::memset(rev_off.data(), 0, (n + 1) * sizeof(uint32_t));
    for (std::size_t v = 0; v < n; ++v) {
      for (uint32_t t = 0; t < fwd_cnt[v]; ++t) {
        ++rev_off[fwd_node[v * p + t] + 1];
      }
    }
    for (std::size_t v = 0; v < n; ++v) rev_off[v + 1] += rev_off[v];
    {
      std::vector<uint32_t> cursor(rev_off.begin(), rev_off.end() - 1);
      for (std::size_t v = 0; v < n; ++v) {
        for (uint32_t t = 0; t < fwd_cnt[v]; ++t) {
          const uint32_t u = fwd_node[v * p + t];
          rev_node[cursor[u]] = static_cast<uint32_t>(v);
          rev_flag[cursor[u]] = fwd_flag[v * p + t];
          ++cursor[u];
        }
      }
    }

    // ---- Adjacency assembly: forward entries plus at most rev_cap
    // reverse entries, oversized reverse lists thinned by a
    // (seed, round, node) stream. Exclusive per-node output ranges.
    adj_off[0] = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const uint32_t rdeg = rev_off[v + 1] - rev_off[v];
      adj_off[v + 1] =
          adj_off[v] + fwd_cnt[v] +
          std::min<uint32_t>(rdeg, static_cast<uint32_t>(rev_cap));
    }
    util::ParallelFor(
        0, n, util::GrainForWork(64 * max_adj + 1),
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t v = r0; v < r1; ++v) {
            uint32_t at = adj_off[v];
            for (uint32_t t = 0; t < fwd_cnt[v]; ++t) {
              adj_node[at] = fwd_node[v * p + t];
              adj_flag[at] = fwd_flag[v * p + t];
              ++at;
            }
            const uint32_t rb = rev_off[v], re = rev_off[v + 1];
            if (re - rb > rev_cap) {
              Rng rng = StreamRng(rev_seed, v);
              std::vector<std::size_t> keep =
                  rng.SampleWithoutReplacement(re - rb, rev_cap);
              std::sort(keep.begin(), keep.end());
              for (std::size_t k : keep) {
                adj_node[at] = rev_node[rb + k];
                adj_flag[at] = rev_flag[rb + k];
                ++at;
              }
            } else {
              for (uint32_t k = rb; k < re; ++k) {
                adj_node[at] = rev_node[k];
                adj_flag[at] = rev_flag[k];
                ++at;
              }
            }
          }
        });

    // ---- Generator-side join, pair evaluated once: node u scores every
    // pair in its adjacency with at least one fresh edge; improvements
    // against either endpoint's round-start worst distance (the full
    // heap's root) become proposals in the generator chunk's buffer.
    // Chunk layout is shape-only (kMaxJoinChunks uniform node ranges),
    // so buffer contents and order are schedule-independent.
    for (std::size_t v = 0; v < n; ++v) worst[v] = lists[v * p].distance;
    const std::size_t chunks = std::min(kMaxJoinChunks, n);
    util::ParallelFor(0, chunks, 1, [&](std::size_t c0, std::size_t c1) {
      std::vector<const double*> g_ptr(max_adj);
      std::vector<double> g_sq(max_adj), g_worst(max_adj);
      std::vector<uint32_t> g_id(max_adj), g_tag(max_adj * (n_tags + 1));
      std::vector<char> g_flag(max_adj);
      for (std::size_t c = c0; c < c1; ++c) {
        std::vector<JoinProposal>& out_props = proposals[c];
        out_props.clear();
        const std::size_t u0 = c * n / chunks, u1 = (c + 1) * n / chunks;
        for (std::size_t u = u0; u < u1; ++u) {
          const uint32_t b = adj_off[u], e = adj_off[u + 1];
          const std::size_t m = e - b;
          if (m < 2) continue;
          for (std::size_t i = 0; i < m; ++i) {
            const uint32_t a = adj_node[b + i];
            g_id[i] = a;
            g_flag[i] = adj_flag[b + i];
            g_ptr[i] = ctx.points.row_ptr(a);
            g_sq[i] = ctx.norm[a];
            g_worst[i] = worst[a];
            for (std::size_t t = 0; t < n_tags; ++t) {
              g_tag[i * n_tags + t] = leaf_tags[a * n_tags + t];
            }
          }
          for (std::size_t i = 0; i + 1 < m; ++i) {
            const uint32_t a = g_id[i];
            const double* pa = g_ptr[i];
            const double na = g_sq[i], wa = g_worst[i];
            const char fa = g_flag[i];
            const uint32_t* tag_a = g_tag.data() + i * n_tags;
            for (std::size_t j = i + 1; j < m; ++j) {
              if (!(fa | g_flag[j])) continue;
              const uint32_t cnd = g_id[j];
              if (a == cnd) continue;
              // Same init leaf in some tree: the pair was already joined
              // exhaustively there, so it cannot improve either list.
              bool joined_before = false;
              for (std::size_t t = 0; t < n_tags; ++t) {
                if (tag_a[t] == g_tag[j * n_tags + t]) {
                  joined_before = true;
                  break;
                }
              }
              if (joined_before) continue;
              const double dot = la::simd::Dot(pa, g_ptr[j], d);
              double dist;
              if (metric == KnnMetric::kSquaredEuclidean) {
                dist = std::max(0.0, na + g_sq[j] - 2.0 * dot);
              } else if (na == 0.0 || g_sq[j] == 0.0) {
                dist = 1.0;
              } else {
                dist = 1.0 - dot / (na * g_sq[j]);
              }
              if (dist < wa) out_props.push_back({a, cnd, dist});
              if (dist < g_worst[j]) out_props.push_back({cnd, a, dist});
            }
          }
        }
      }
    });

    // ---- Proposal scatter: stable counting sort by target over the
    // chunk buffers in chunk order — the per-target segments therefore
    // have a schedule-independent order.
    std::memset(target_off.data(), 0, (n + 1) * sizeof(uint32_t));
    std::size_t total_props = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      total_props += proposals[c].size();
      for (const JoinProposal& pr : proposals[c]) ++target_off[pr.target + 1];
    }
    for (std::size_t v = 0; v < n; ++v) target_off[v + 1] += target_off[v];
    by_target.resize(total_props);
    {
      std::vector<uint32_t> cursor(target_off.begin(), target_off.end() - 1);
      for (std::size_t c = 0; c < chunks; ++c) {
        for (const JoinProposal& pr : proposals[c]) {
          by_target[cursor[pr.target]++] = pr;
        }
      }
    }

    // ---- Apply, per-target ownership: each list absorbs its proposal
    // segment through the dedup heap; freshness is recomputed with
    // carry-over (an entry that survives keeps its previous flag, a new
    // entry starts fresh).
    std::copy(lists.begin(), lists.end(), next.begin());
    std::copy(fresh.begin(), fresh.end(), next_fresh.begin());
    util::ParallelFor(
        0, n, util::GrainForWork(64 * p + 1),
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t v = r0; v < r1; ++v) {
            const uint32_t b = target_off[v], e = target_off[v + 1];
            updates[v] = 0;
            if (b == e) continue;
            TopPHeap heap(next.data() + v * p, p, p);
            std::size_t count = 0;
            for (uint32_t i = b; i < e; ++i) {
              const JoinProposal& pr = by_target[i];
              if (DedupPush(&heap, pr.partner, pr.dist)) ++count;
            }
            updates[v] = count;
            if (count == 0) continue;
            for (std::size_t t = 0; t < p; ++t) {
              const std::size_t idx = next[v * p + t].index;
              char flag = 1;
              for (std::size_t s = 0; s < p; ++s) {
                if (lists[v * p + s].index == idx) {
                  flag = fresh[v * p + s];
                  break;
                }
              }
              next_fresh[v * p + t] = flag;
            }
          }
        });
    std::size_t total_updates = 0;
    for (std::size_t v = 0; v < n; ++v) total_updates += updates[v];
    lists.swap(next);
    fresh.swap(next_fresh);
    if (total_updates <= update_floor) break;
  }

  util::ParallelFor(0, n, util::GrainForWork(8 * p + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t v = r0; v < r1; ++v) {
                        out[v].assign(lists.begin() + v * p,
                                      lists.begin() + (v + 1) * p);
                        std::sort(out[v].begin(), out[v].end(),
                                  [](const KnnNeighbor& a,
                                     const KnnNeighbor& b) {
                                    return CloserThan(a.distance, a.index,
                                                      b.distance, b.index);
                                  });
                      }
                    });
  return out;
}

}  // namespace graph
}  // namespace rhchme
