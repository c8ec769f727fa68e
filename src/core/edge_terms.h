// Per-edge terms of the localized post-stream estimators (paper
// Algorithm 2) and their ordered sum. One kernel serves the
// single-reservoir pass (core/post_stream.cc) and the cross-shard union
// passes (engine/merge.cc); each supplies its per-slot records through a
// small accessor.

#ifndef GPS_CORE_EDGE_TERMS_H_
#define GPS_CORE_EDGE_TERMS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "core/estimates.h"
#include "graph/intersect.h"
#include "graph/sampled_graph.h"
#include "graph/types.h"
#include "util/ordered_fold.h"

namespace gps {

/// One sampled edge's contribution to the estimator sums. The
/// triangle-wedge covariance has two parts (pair terms sharing only this
/// edge, and wedges contained in a triangle through it) that are added to
/// the covariance sum one after the other, never pre-added, so the sum's
/// bits match a loop that accumulates them directly.
struct EdgeTerms {
  double n_tri = 0.0, v_tri = 0.0, c_tri = 0.0;
  double n_wed = 0.0, v_wed = 0.0, c_wed = 0.0;
  double cov_pairs = 0.0, cov_contained = 0.0;
};

/// Running sums of EdgeTerms over a sample.
struct EdgeTermSums {
  double n_tri = 0.0, v_tri = 0.0, c_tri = 0.0;
  double n_wed = 0.0, v_wed = 0.0, c_wed = 0.0;
  double cov_tw = 0.0;

  void Add(const EdgeTerms& t) {
    n_tri += t.n_tri;
    v_tri += t.v_tri;
    c_tri += t.c_tri;
    n_wed += t.n_wed;
    v_wed += t.v_wed;
    c_wed += t.c_wed;
    cov_tw += t.cov_pairs;
    cov_tw += t.cov_contained;
  }

  /// Algorithm 2 lines 32-36: each triangle is visited once per edge and
  /// each wedge once per edge, so counts and variance sums carry 1/3 and
  /// 1/2; pair sums are attributed only to the shared edge and are not
  /// divided.
  GraphEstimates Finalize() const {
    GraphEstimates out;
    out.triangles.value = n_tri / 3.0;
    out.triangles.variance = v_tri / 3.0 + c_tri;
    out.wedges.value = n_wed / 2.0;
    out.wedges.variance = v_wed / 2.0 + c_wed;
    out.tri_wedge_cov = cov_tw;
    return out;
  }
};

namespace edge_terms_detail {

/// `x` if `keep`, else +0.0, computed without a branch. The SpanOnly
/// wedge walk drops a wedge by adding +0.0 terms in its place: every
/// per-edge sum is non-negative, so that changes no bit, and the stratum
/// test is a coin flip a branch predictor cannot learn.
inline double Keep(double x, bool keep) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(x) &
                               (uint64_t{0} - static_cast<uint64_t>(keep)));
}

}  // namespace edge_terms_detail

/// Algorithm 2's localized estimators for one sampled edge k = (u, v) of
/// `graph`, whose adjacency slots index `records`. The accessor supplies
/// `double inv_q(SlotId)`, 1/q of a sampled edge, and with SpanOnly also
/// `uint64_t stratum(SlotId)`.
///
/// Mapping to Algorithm 2 of the paper, with v1 the endpoint of the
/// smaller sampled neighborhood:
///   * triangles incident to k are the common sampled neighbors
///     Γ̂(v1) ∩ Γ̂(v2) (lines 5-9), found by the adaptive intersection
///     kernels (graph/intersect.h) — the same query the in-stream path
///     answers per arrival, here with no metrics attached. The kernels
///     emit common neighbors in ascending id order, which is v1's block
///     order, so the triangle sums see one fixed operation sequence
///     under every kernel. Each triangle is visited once per constituent
///     edge, i.e. 3 times in total, so the count/variance sums carry a
///     final 1/3 (lines 32-33);
///   * wedges incident to k are enumerated from both endpoints (lines
///     16-28), v1's block then v2's; each wedge is visited twice, giving
///     the final 1/2. Their accumulators are disjoint from the triangle
///     ones, so the two walks are separate loops;
///   * covariance terms couple pairs of triangles (resp. wedges) whose
///     intersection is exactly {k} (Theorem 3(iv)); running prefix sums
///     turn the quadratic pair sums into linear scans (lines 14-15,
///     19-20, 27-28), with the common factor 2*(1/q)*(1/q - 1) applied
///     once per edge (lines 29-30); pair sums are attributed only to the
///     shared edge and are therefore NOT divided by 3 (resp. 2) at
///     aggregation (lines 34-36).
///
/// Beyond Algorithm 2, the triangle-wedge covariance (paper Eq. 12) needed
/// for the clustering-coefficient interval is accumulated as well:
///   V̂(tri,wedge) = Σ_{τ,λ: τ∩λ≠∅} Ŝ_{τ∪λ} (Ŝ_{τ∩λ} - 1),
/// split into two disjoint cases:
///   (a) |τ∩λ| = 1 with shared edge k: the pair sum factorizes per edge as
///       (Σ_{τ∋k} Ŝ_{τ∖k}) * (Σ_{λ∋k} Ŝ_{λ∖k}) minus the pairs with λ ⊂ τ,
///       scaled by (1/q)(1/q - 1);
///   (b) λ ⊂ τ (|τ∩λ| = 2): visiting τ at edge k pairs it with its
///       contained wedge {k1, k2} (the two non-k edges); over the three
///       visits of τ this covers each contained wedge exactly once.
///
/// With SpanOnly (the cross-shard stratum of engine/merge.h), a subgraph
/// contributes only when its edges lie in >= 2 strata; the pair-covariance
/// prefix sums then run over counted subgraphs only, so cross terms pair
/// spanning subgraphs with spanning subgraphs (within-stratum subgraphs
/// are estimated by the in-stream estimator). Without it every subgraph
/// counts and no stratum is read.
///
/// The per-edge computations are independent — the paper's "abundant
/// parallelism" — so callers run them on many threads and fold the terms
/// in a fixed order (SumEdgeTerms).
template <bool SpanOnly, typename Records>
EdgeTerms ComputeEdgeTerms(const SampledGraph& graph, const Records& records,
                           const Edge& edge, SlotId slot_k) {
  NodeId v1 = edge.u;
  NodeId v2 = edge.v;
  std::span<const AdjEntry> n1 = graph.Neighbors(v1);
  std::span<const AdjEntry> n2 = graph.Neighbors(v2);
  if (n1.size() > n2.size()) {
    std::swap(v1, v2);
    std::swap(n1, n2);
  }

  const double inv_q = records.inv_q(slot_k);
  uint64_t sh = 0;  // edge k's stratum
  if constexpr (SpanOnly) sh = records.stratum(slot_k);

  double nk_tri = 0.0, vk_tri = 0.0;
  double run_tri = 0.0;      // prefix sum of 1/(q1*q2) over counted triangles
  double ck_tri = 0.0;       // ordered-pair triangle cross-products
  double d_contained = 0.0;  // counted (triangle, contained-wedge) pairs
  double covb = 0.0;         // |tri ∩ wedge| = 2 contributions
  IntersectSorted(
      n1.data(), n1.size(), n2.data(), n2.size(), /*metrics=*/nullptr,
      [&](NodeId, SlotId slot_k1, SlotId slot_k2) {
        // Triangle (k1, k2, k): k1 = (v1, w), k2 = (v2, w).
        uint64_t s1 = 0, s2 = 0;
        if constexpr (SpanOnly) {
          s1 = records.stratum(slot_k1);
          s2 = records.stratum(slot_k2);
          if (s1 == sh && s2 == sh) return;
        }
        const double inv_q1 = records.inv_q(slot_k1);
        const double inv_q2 = records.inv_q(slot_k2);
        const double inv_q1q2 = inv_q1 * inv_q2;
        const double est = inv_q * inv_q1q2;
        nk_tri += est;
        vk_tri += est * (est - 1.0);
        ck_tri += run_tri * inv_q1q2;
        run_tri += inv_q1q2;
        // Pairs (triangle, wedge ⊂ triangle sharing only k) to subtract
        // from the run_tri * run_wed product: only wedges the walks below
        // count participate in run_wed.
        if (!SpanOnly || s1 != sh) d_contained += inv_q1q2 * inv_q1;
        if (!SpanOnly || s2 != sh) d_contained += inv_q1q2 * inv_q2;
        // Case |tri ∩ wedge| = 2: the wedge {k1, k2} inside the triangle.
        if (!SpanOnly || s1 != s2) covb += est * (inv_q1q2 - 1.0);
      });

  double nk_wed = 0.0, vk_wed = 0.0;
  double run_wed = 0.0;  // prefix sum of 1/q_other over counted wedges
  double ck_wed = 0.0;   // ordered-pair wedge cross-products
  // Wedges {(center, w), k} at each endpoint, excluding k itself.
  const auto walk_wedges = [&](std::span<const AdjEntry> nbrs,
                               NodeId other) {
    for (const AdjEntry& entry : nbrs) {
      if (entry.nbr == other) continue;
      double inv_qo = records.inv_q(entry.slot);
      if constexpr (SpanOnly) {
        inv_qo = edge_terms_detail::Keep(
            inv_qo, records.stratum(entry.slot) != sh);
      }
      const double west = inv_q * inv_qo;
      nk_wed += west;
      vk_wed += west * (west - 1.0);
      ck_wed += run_wed * inv_qo;
      run_wed += inv_qo;
    }
  };
  walk_wedges(n1, v2);
  walk_wedges(n2, v1);

  const double pair_factor = 2.0 * inv_q * (inv_q - 1.0);
  EdgeTerms t;
  t.n_tri = nk_tri;
  t.v_tri = vk_tri;
  t.c_tri = ck_tri * pair_factor;
  t.n_wed = nk_wed;
  t.v_wed = vk_wed;
  t.c_wed = ck_wed * pair_factor;
  t.cov_pairs = (run_tri * run_wed - d_contained) * inv_q * (inv_q - 1.0);
  t.cov_contained = covb;
  return t;
}

/// Estimates from the terms of edges 0..n-1: `compute(i)` returns edge
/// i's EdgeTerms and runs on up to `threads` threads; the terms are added
/// in index order (util/ordered_fold.h), so the result is bit-identical
/// at every thread count.
template <typename Compute>
GraphEstimates SumEdgeTerms(size_t n, size_t threads, Compute&& compute) {
  EdgeTermSums sums;
  ParallelOrderedFold(n, threads, compute,
                      [&](size_t, const EdgeTerms& t) { sums.Add(t); });
  return sums.Finalize();
}

}  // namespace gps

#endif  // GPS_CORE_EDGE_TERMS_H_
