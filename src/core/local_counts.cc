#include "core/local_counts.h"

#include <span>
#include <utility>

#include "graph/intersect.h"

namespace gps {

FlatHashMap<NodeId, double> EstimateLocalTriangles(
    const GpsReservoir& reservoir) {
  FlatHashMap<NodeId, double> local(reservoir.graph().NumNodes() * 2 + 8);
  const SampledGraph& graph = reservoir.graph();

  reservoir.ForEachEdge([&](SlotId, const GpsReservoir::EdgeRecord& rec) {
    NodeId v1 = rec.edge.u;
    NodeId v2 = rec.edge.v;
    std::span<const AdjEntry> n1 = graph.Neighbors(v1);
    std::span<const AdjEntry> n2 = graph.Neighbors(v2);
    if (n1.size() > n2.size()) {
      std::swap(v1, v2);
      std::swap(n1, n2);
    }
    const double q = reservoir.ProbabilityForWeight(rec.weight);

    // The triangles at this edge are the common sampled neighbors v3,
    // emitted in ascending id order (graph/intersect.h).
    IntersectSorted(
        n1.data(), n1.size(), n2.data(), n2.size(), /*metrics=*/nullptr,
        [&](NodeId v3, SlotId slot_k1, SlotId slot_k2) {
          const double q1 = reservoir.Probability(slot_k1);
          const double q2 = reservoir.Probability(slot_k2);
          // Triangle visited once per constituent edge: contribute a
          // third of its HT estimator to each corner per visit.
          const double share = 1.0 / (q * q1 * q2) / 3.0;
          local[v1] += share;
          local[v2] += share;
          local[v3] += share;
        });
  });
  return local;
}

double EstimateEdgeCount(const GpsReservoir& reservoir) {
  double total = 0.0;
  reservoir.ForEachEdge([&](SlotId slot, const GpsReservoir::EdgeRecord&) {
    total += 1.0 / reservoir.Probability(slot);
  });
  return total;
}

double EstimateDegree(const GpsReservoir& reservoir, NodeId v) {
  double total = 0.0;
  reservoir.graph().ForEachNeighbor(v, [&](NodeId, SlotId slot) {
    total += 1.0 / reservoir.Probability(slot);
  });
  return total;
}

}  // namespace gps
