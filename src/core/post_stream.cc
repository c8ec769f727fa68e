#include "core/post_stream.h"

#include <vector>

#include "core/edge_terms.h"

namespace gps {
namespace {

// ComputeEdgeTerms' record accessor over one reservoir: 1/q per slot,
// computed once per pass rather than once per visit (two divisions and
// a 24-byte hot record each; core/packed_store.h).
struct ReservoirRecords {
  const double* inv_q_by_slot;

  double inv_q(SlotId slot) const { return inv_q_by_slot[slot]; }
};

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
  std::vector<double> inv_q(reservoir.store().num_slots());
  reservoir.ForEachEdge(
      [&](SlotId slot, const GpsReservoir::EdgeRecord&) {
        slots.push_back(slot);
        inv_q[slot] = 1.0 / reservoir.Probability(slot);
      });
  const ReservoirRecords records{inv_q.data()};
  return SumEdgeTerms(slots.size(), num_threads, [&](size_t i) {
    return ComputeEdgeTerms</*SpanOnly=*/false>(
        reservoir.graph(), records, reservoir.store().edge(slots[i]),
        slots[i]);
  });
}

}  // namespace gps
