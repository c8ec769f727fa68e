// Post-stream estimation (paper Algorithm 2, Section 4).
//
// Given the GPS sample at any point in the stream, computes unbiased
// Horvitz–Thompson estimates of triangle and wedge counts together with
// their unbiased variance estimates and the triangle–wedge covariance needed
// for the clustering-coefficient confidence interval.
//
// The computation is localized per sampled edge (Eqs. 13–14): for each edge
// k, estimators are accumulated over the triangles and wedges incident to k
// in the sampled graph; covariance cross-terms between subgraphs sharing k
// are folded in with running prefix sums, so the whole pass costs
// O(sum_k min{deg(v1), deg(v2)}) = O(m^{3/2}).

#ifndef GPS_CORE_POST_STREAM_H_
#define GPS_CORE_POST_STREAM_H_

#include "core/estimates.h"
#include "core/reservoir.h"
#include "core/sample_view.h"

namespace gps {

/// Computes post-stream triangle/wedge/clustering estimates from the current
/// reservoir state. Does not modify the reservoir; can be called at any time
/// during the stream (retrospective queries).
GraphEstimates EstimatePostStream(const GpsReservoir& reservoir);

/// Convenience overload on a view.
inline GraphEstimates EstimatePostStream(const SampleView& view) {
  return EstimatePostStream(view.reservoir());
}

/// Parallel variant: computes the per-edge terms (which the paper notes
/// are embarrassingly parallel, Section 4 "Efficiency") on up to
/// `num_threads` threads and adds them in the serial pass's edge order
/// (util/ordered_fold.h). Bit-identical to EstimatePostStream for every
/// thread count; reservoirs of one fold window or less run serially.
GraphEstimates EstimatePostStreamParallel(const GpsReservoir& reservoir,
                                          unsigned num_threads);

}  // namespace gps

#endif  // GPS_CORE_POST_STREAM_H_
