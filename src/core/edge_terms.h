// Per-edge terms of the localized post-stream estimators (paper
// Algorithm 2) and their ordered sum. Shared by the single-reservoir pass
// (core/post_stream.cc) and the cross-shard union passes
// (engine/merge.cc), which compute the terms differently but aggregate
// them identically.

#ifndef GPS_CORE_EDGE_TERMS_H_
#define GPS_CORE_EDGE_TERMS_H_

#include <cstddef>

#include "core/estimates.h"
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
