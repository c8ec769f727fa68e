#include "core/post_stream.h"

#include <vector>

#include "core/edge_terms.h"

namespace gps {
namespace {

// The localized estimators for one sampled edge k = (v1, v2) (Algorithm 2
// body; see the mapping notes below). The paper highlights that these
// per-edge computations are independent and "Algorithm 2 already has
// abundant parallelism" — EstimatePostStreamParallel exploits exactly
// that independence.
//
// Mapping to Algorithm 2 of the paper:
//   * triangles incident to k are enumerated once by scanning the smaller
//     sampled neighborhood and probing the other (lines 5-9); each triangle
//     is visited once per constituent edge, i.e. 3 times in total, so the
//     count/variance sums carry a final 1/3 (lines 32-33);
//   * wedges incident to k are enumerated from both endpoints (lines
//     16-28); each wedge is visited twice, giving the final 1/2;
//   * covariance terms couple pairs of triangles (resp. wedges) whose
//     intersection is exactly {k} (Theorem 3(iv)); running prefix sums
//     turn the quadratic pair sums into linear scans (lines 14-15, 19-20,
//     27-28), with the common factor 2*(1/q)*(1/q - 1) applied once per
//     edge (lines 29-30); pair sums are attributed only to the shared edge
//     and are therefore NOT divided by 3 (resp. 2) at aggregation
//     (lines 34-36).
//
// Beyond Algorithm 2, the triangle-wedge covariance (paper Eq. 12) needed
// for the clustering-coefficient interval is accumulated as well:
//   V̂(tri,wedge) = Σ_{τ,λ: τ∩λ≠∅} Ŝ_{τ∪λ} (Ŝ_{τ∩λ} - 1),
// split into two disjoint cases:
//   (a) |τ∩λ| = 1 with shared edge k: the pair sum factorizes per edge as
//       (Σ_{τ∋k} Ŝ_{τ∖k}) * (Σ_{λ∋k} Ŝ_{λ∖k}) minus the pairs with λ ⊂ τ,
//       scaled by (1/q)(1/q - 1);
//   (b) λ ⊂ τ (|τ∩λ| = 2): visiting τ at edge k pairs it with its
//       contained wedge {k1, k2} (the two non-k edges); over the three
//       visits of τ this covers each contained wedge exactly once.
EdgeTerms ComputeEdgeTerms(const GpsReservoir& reservoir,
                           const GpsReservoir::EdgeRecord& rec) {
  const SampledGraph& graph = reservoir.graph();
  NodeId v1 = rec.edge.u;
  NodeId v2 = rec.edge.v;
  if (graph.Degree(v1) > graph.Degree(v2)) std::swap(v1, v2);

  const double q = reservoir.ProbabilityForWeight(rec.weight);
  const double inv_q = 1.0 / q;

  double nk_tri = 0.0, vk_tri = 0.0;
  double nk_wed = 0.0, vk_wed = 0.0;
  double run_tri = 0.0;   // prefix sum of 1/(q1*q2) over triangles at k
  double ck_tri = 0.0;    // Σ_{ordered pairs} of triangle cross-products
  double run_wed = 0.0;   // prefix sum of 1/q_other over wedges at k
  double ck_wed = 0.0;    // Σ_{ordered pairs} of wedge cross-products
  double d_contained = 0.0;  // Σ_{τ∋k} (1/(q1q2)) (1/q1 + 1/q2)
  double covb = 0.0;         // case (b) contributions at this edge

  graph.ForEachNeighbor(v1, [&](NodeId v3, SlotId slot_k1) {
    if (v3 == v2) return;
    const double q1 =
        reservoir.ProbabilityForWeight(reservoir.Record(slot_k1).weight);
    const double inv_q1 = 1.0 / q1;

    const SlotId slot_k2 = graph.FindEdge(MakeEdge(v2, v3));
    if (slot_k2 != kNoSlot) {
      // Found triangle (k1, k2, k).
      const double q2 =
          reservoir.ProbabilityForWeight(reservoir.Record(slot_k2).weight);
      const double inv_q2 = 1.0 / q2;
      const double inv_q1q2 = inv_q1 * inv_q2;
      const double est = inv_q * inv_q1q2;
      nk_tri += est;
      vk_tri += est * (est - 1.0);
      ck_tri += run_tri * inv_q1q2;
      run_tri += inv_q1q2;
      d_contained += inv_q1q2 * (inv_q1 + inv_q2);
      covb += est * (inv_q1q2 - 1.0);
    }

    // Wedge (v3, v1, v2) = {k1, k}.
    const double west = inv_q * inv_q1;
    nk_wed += west;
    vk_wed += west * (west - 1.0);
    ck_wed += run_wed * inv_q1;
    run_wed += inv_q1;
  });

  graph.ForEachNeighbor(v2, [&](NodeId v3, SlotId slot_k2) {
    if (v3 == v1) return;
    const double q2 =
        reservoir.ProbabilityForWeight(reservoir.Record(slot_k2).weight);
    const double inv_q2 = 1.0 / q2;
    const double west = inv_q * inv_q2;
    nk_wed += west;
    vk_wed += west * (west - 1.0);
    ck_wed += run_wed * inv_q2;
    run_wed += inv_q2;
  });

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

}  // namespace

GraphEstimates EstimatePostStream(const GpsReservoir& reservoir) {
  return EstimatePostStreamParallel(reservoir, 1);
}

GraphEstimates EstimatePostStreamParallel(const GpsReservoir& reservoir,
                                          unsigned num_threads) {
  // Index the slots in ForEachEdge order; the ordered fold adds the
  // per-edge terms in that order at any thread count.
  std::vector<SlotId> slots;
  slots.reserve(reservoir.size());
  reservoir.ForEachEdge(
      [&](SlotId slot, const GpsReservoir::EdgeRecord&) {
        slots.push_back(slot);
      });
  return SumEdgeTerms(slots.size(), num_threads, [&](size_t i) {
    return ComputeEdgeTerms(reservoir, reservoir.Record(slots[i]));
  });
}

}  // namespace gps
