#include "core/in_stream.h"

#include <span>

namespace gps {

InStreamEstimator::InStreamEstimator(GpsSamplerOptions options)
    : weight_fn_(options.weight),
      reservoir_(GpsOptions{options.capacity, options.seed,
                            options.mem_bytes}) {}

void InStreamEstimator::Process(const Edge& raw) {
  const Edge e = raw.Canonical();
  if (e.IsSelfLoop() || reservoir_.graph().HasEdge(e)) {
    // Duplicates/loops carry no new subgraphs under the simple-graph model;
    // skip both estimation and sampling (defensive: well-formed streams do
    // not contain them).
    return;
  }

  const SampledGraph& graph = reservoir_.graph();

  // ---- GPSESTIMATE(k): snapshots taken before k's sampling step. ----

  // z* does not move until the sampling step, and the running sums are
  // copied into locals and written back once below: the record stores in
  // the loops cannot alias a local, so the sums stay in registers instead
  // of round-tripping through `this` on every neighbor. The operations
  // and their order are unchanged, so the results are bit-identical.
  const double z_star = reservoir_.threshold();
  auto probability = [z_star](const HotRecord& h) {
    return GpsReservoir::InclusionProbability(h.weight, z_star);
  };
  double n_tri = n_tri_;
  double v_tri = v_tri_;
  double n_wed = n_wed_;
  double v_wed = v_wed_;
  double cov_tw = cov_tw_;

  // Triangles completed by k = (u, v): one per sampled common neighbor
  // (Algorithm 3 lines 9-19). Updates are independent across triangles
  // because the non-k edges of distinct triangles at k are distinct.
  // The enumeration doubles as the |Γ̂(u) ∩ Γ̂(v)| count the weight
  // function needs below — no second intersection per arrival.
  size_t sampled_triangles = 0;
  graph.ForEachCommonNeighbor(
      e.u, e.v, [&](NodeId, SlotId slot_k1, SlotId slot_k2) {
        ++sampled_triangles;
        const HotRecord& k1 = reservoir_.hot(slot_k1);
        const HotRecord& k2 = reservoir_.hot(slot_k2);
        const double q1 = probability(k1);
        const double q2 = probability(k2);
        const double inv = 1.0 / (q1 * q2);

        n_tri += inv;                                         // line 14
        v_tri += (inv - 1.0) * inv;                           // line 15
        v_tri += 2.0 * (k1.cov_tri + k2.cov_tri) * inv;       // line 16
        cov_tw += (k1.cov_wedge + k2.cov_wedge) * inv;        // line 17
        reservoir_.AddCovTri(slot_k1, (1.0 / q1 - 1.0) / q2);  // line 18
        reservoir_.AddCovTri(slot_k2, (1.0 / q2 - 1.0) / q1);  // line 19
      });

  // Wedges formed by k with each sampled edge adjacent to it
  // (Algorithm 3 lines 20-27). Hub blocks run to thousands of entries
  // whose hot records are scattered over the store, so the loop
  // prefetches the record kPrefetchDistance entries ahead of the one it
  // updates.
  constexpr size_t kPrefetchDistance = 8;
  auto wedge_pass = [&](NodeId v, NodeId other) {
    const std::span<const AdjEntry> block = graph.Neighbors(v);
    for (size_t i = 0; i < block.size(); ++i) {
      if (i + kPrefetchDistance < block.size()) {
        __builtin_prefetch(&reservoir_.hot(block[i + kPrefetchDistance].slot),
                           /*rw=*/1);
      }
      // The other endpoint cannot occur (duplicate guarded above).
      if (block[i].nbr == other) continue;
      const SlotId slot = block[i].slot;
      const HotRecord& h = reservoir_.hot(slot);
      const double inv = 1.0 / probability(h);
      n_wed += inv;                             // line 23
      v_wed += inv * (inv - 1.0);               // line 24
      v_wed += 2.0 * h.cov_wedge * inv;         // line 25
      cov_tw += h.cov_tri * inv;                // line 26
      reservoir_.AddCovWedge(slot, inv - 1.0);  // line 27
    }
  };
  wedge_pass(e.u, e.v);
  wedge_pass(e.v, e.u);

  n_tri_ = n_tri;
  v_tri_ = v_tri;
  n_wed_ = n_wed;
  v_wed_ = v_wed;
  cov_tw_ = cov_tw;

  // ---- GPSUPDATE(k, m): weight, priority, provisional include, evict. ----
  // Eviction discards the evicted edge's covariance accumulators (lines
  // 39-40) automatically: they live in the freed slot and are zeroed when
  // the slot is reused.
  const double weight = weight_fn_.Compute(e, graph, sampled_triangles);
  reservoir_.Process(e, weight);
}

InStreamEstimator InStreamEstimator::FromParts(const WeightOptions& weight,
                                               GpsReservoir reservoir,
                                               const Accumulators& acc) {
  InStreamEstimator est(weight, std::move(reservoir));
  est.n_tri_ = acc.n_tri;
  est.v_tri_ = acc.v_tri;
  est.n_wed_ = acc.n_wed;
  est.v_wed_ = acc.v_wed;
  est.cov_tw_ = acc.cov_tw;
  return est;
}

GraphEstimates InStreamEstimator::Estimates() const {
  GraphEstimates out;
  out.triangles.value = n_tri_;
  out.triangles.variance = v_tri_;
  out.wedges.value = n_wed_;
  out.wedges.variance = v_wed_;
  out.tri_wedge_cov = cov_tw_;
  return out;
}

}  // namespace gps
