// Merging per-shard GPS samples into whole-graph estimates.
//
// Edge-hash sharding splits the stream into K disjoint substreams, so the
// triangle population decomposes exactly (shard assignment is a
// deterministic function of the edge, not a random event):
//
//   N(tri) = N(all three edges in one shard) + N(edges span >= 2 shards)
//
// and likewise for wedges (both edges same shard vs. spanning). The two
// strata are estimated by different machinery:
//
//   * within-shard: each shard's in-stream estimator (Algorithm 3) already
//     produces unbiased counts/variances of the subgraphs inside its
//     substream; shard RNGs are independent (core/seeding.h), so the sums
//     of values and variances over shards are themselves unbiased
//     (Theorems 5-7 applied per shard + independence);
//   * cross-shard: a post-stream Horvitz-Thompson pass (Algorithm 2 shape)
//     over the UNION of the shard reservoirs, restricted to subgraphs
//     whose edges span >= 2 shards. Each edge keeps the inclusion
//     probability q = min{1, w/z*_s} of its OWN shard's threshold;
//     cross-shard edge inclusions are genuinely independent, so product
//     estimators and their variance estimators keep the paper's form.
//
// Documented approximation (see src/engine/README.md): the merged variance
// omits the covariance between the in-stream stratum and the cross-shard
// correction stratum (they estimate disjoint subgraph populations but
// share sample-path randomness). K=1 has no cross-shard stratum, so the
// engine's estimates reduce exactly to the serial estimator's.

#ifndef GPS_ENGINE_MERGE_H_
#define GPS_ENGINE_MERGE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/estimates.h"
#include "core/motifs.h"
#include "core/reservoir.h"
#include "graph/types.h"

namespace gps {

/// How MergedEstimates() combines shard states.
enum class MergeMode {
  /// Sum of per-shard in-stream estimates plus the cross-shard
  /// post-stream correction. Default; lowest variance.
  kInStreamPlusCross,
  /// Pure post-stream estimation over the union sample (all subgraphs,
  /// spanning or not). Works with ShardEstimatorKind::kPostStream shards.
  kPostStreamMerged,
};

/// Sums independent per-shard estimates (values, variances, covariance
/// all add across independent strata).
GraphEstimates SumShardEstimates(std::span<const GraphEstimates> shards);

/// One shard's contribution to the union sample: its reservoir plus an
/// optional per-slot sub-stratum table (engine steal mode: the batch each
/// sampled edge was processed in, indexed by reservoir SlotId). The
/// spanning test of the cross pass compares full stratum ids
/// (shard, sub-stratum): with an empty table every edge of the shard
/// shares sub-stratum 0, reproducing the classic shard-granularity
/// decomposition bit for bit; with batch sub-strata, instances whose
/// edges span different batches of ONE shard also fall into the cross
/// stratum (their within-batch counterparts were counted by the batch
/// mini-estimators).
struct ShardSampleRef {
  const GpsReservoir* reservoir = nullptr;
  std::span<const uint32_t> slot_strata = {};
};

/// The union of the shard reservoirs, indexed for the cross-shard passes
/// (tri/wedge correction, per-motif correction, the merged post-stream
/// pass). Opaque; filled by RefreshUnionSample.
///
/// The index persists. Each union record is keyed by a global slot:
/// shard s's reservoir slot i lives at (sum of slot capacities of shards
/// 0..s-1) + i. Reservoir SlotIds are stable (core/packed_store.h
/// recycles slots and never moves a live record), so a refresh
/// re-indexes only the slots whose edge left or changed since the last
/// refresh, and merely re-reads every live slot's inclusion probability
/// (z* moves) and stratum. An engine's monitoring tick therefore costs
/// O(changed slots) index updates plus one O(sample) scan instead of an
/// O(sample) rebuild. BuildUnionSample is a refresh from empty: there is
/// one indexing code path.
///
/// Results never depend on the index's history. The passes fold per-edge
/// terms in union order — shard by shard, each shard in its reservoir's
/// ForEachEdge (heap) order — and sampled adjacency iterates in
/// neighbor-id order (graph/sampled_graph.h), so estimates over a
/// refreshed index are bit-identical to those over a fresh build of the
/// same shard states.
///
/// Not thread-safe: refresh and passes are called from one thread (the
/// engine's producer; a pass may fan out internally) while the shard
/// reservoirs are quiescent (after a drain). The engine keeps one index
/// from its first merge until Finish(), which releases it; merges after
/// Finish build and free their own.
class UnionSample {
 public:
  UnionSample();
  ~UnionSample();
  UnionSample(UnionSample&&) noexcept;
  UnionSample& operator=(UnionSample&&) noexcept;

  size_t num_shards() const { return num_shards_; }

  /// Number of sampled edges in the union (0 for < 2 shards, where no
  /// union index is built). Observability only.
  size_t num_edges() const;

  /// Slots the last refresh un-indexed plus slots it indexed: 0 when no
  /// shard sample changed, num_edges() for a build from empty.
  /// Observability only.
  size_t last_reindexed() const { return last_reindexed_; }

 private:
  friend void RefreshUnionSample(std::span<const ShardSampleRef> shards,
                                 UnionSample* sample);
  friend GraphEstimates EstimateCrossShard(const UnionSample& sample);
  friend GraphEstimates EstimateMergedPostStream(const UnionSample& sample);
  friend std::vector<MotifAccumulator> EstimateCrossShardMotifs(
      const UnionSample& sample, std::span<const std::string> motif_names);

  struct Impl;

  std::unique_ptr<Impl> impl_;
  size_t num_shards_ = 0;
  size_t last_reindexed_ = 0;
};

/// Brings `sample` up to date with the shard reservoirs (edge-hash
/// sharding keeps them edge-disjoint); each edge keeps min{1, w/z*} of its
/// OWN shard. Un-indexes every slot whose edge left its reservoir or was
/// replaced, indexes the new edges, and re-reads every live slot's
/// probability and stratum. Below two shards no pass reads the index, so
/// none is kept. The reservoirs must not change during the call.
void RefreshUnionSample(std::span<const ShardSampleRef> shards,
                        UnionSample* sample);

/// RefreshUnionSample into an empty index.
UnionSample BuildUnionSample(std::span<const GpsReservoir* const> shards);

/// As above with per-shard sub-stratum tables (see ShardSampleRef).
UnionSample BuildUnionSample(std::span<const ShardSampleRef> shards);

/// Horvitz-Thompson estimates of the subgraphs spanning >= 2 shards, from
/// the union of the shard reservoirs. Returns zeros for < 2 shards.
GraphEstimates EstimateCrossShard(
    std::span<const GpsReservoir* const> shards);

/// As above, over a prebuilt union sample.
GraphEstimates EstimateCrossShard(const UnionSample& sample);

/// Post-stream estimates of ALL subgraphs from the union of the shard
/// reservoirs. With a single shard this equals EstimatePostStream bit for
/// bit: same edge order, and both run core/edge_terms.h ComputeEdgeTerms
/// (tests/engine_merge_bits_test.cc).
GraphEstimates EstimateMergedPostStream(
    std::span<const GpsReservoir* const> shards);

/// As above, over a union sample of >= 2 shards (a smaller union holds no
/// index; use the reservoir overload).
GraphEstimates EstimateMergedPostStream(const UnionSample& sample);

/// Threads the union-sample passes above (EstimateCrossShard,
/// EstimateMergedPostStream) run on for a union of `num_edges` edges: the
/// process's available CPUs (util/affinity.h; hardware_concurrency() when
/// the mask is unreadable), capped at the number of fold windows
/// (util/ordered_fold.h), so a union of one window or less stays serial.
/// The passes fold per-edge terms in slot order, so their results are
/// bit-identical at every thread count.
size_t UnionPassThreads(size_t num_edges);

/// Element-wise sum of two estimate sets from independent strata.
GraphEstimates AddEstimates(const GraphEstimates& a, const GraphEstimates& b);

// ---- Generic motif statistics (core/motifs.h registry) -------------------
//
// The motif decomposition mirrors the triangle/wedge one: an instance is
// either entirely inside one shard's substream (estimated by that shard's
// in-stream MotifSuite — counts, conservative variances and snapshot
// counts all sum across independent shards) or its edges span >= 2 shards
// (estimated by a post-stream Horvitz-Thompson pass over the union of the
// shard reservoirs, reusing the registry's streaming enumerators). Both
// strata report the conservative Σ Ŝ(Ŝ-1) variance bound, so merged motif
// CIs are mildly anti-conservative-proof (never overstated downward by
// covariance omission alone — see core/snapshot.h).

/// Element-wise sum of per-shard motif accumulators (independent strata).
/// All shards must carry the same suite arity/order; the engine guarantees
/// this by configuring every shard from one ShardedEngineOptions::motifs.
std::vector<MotifAccumulator> SumShardMotifAccumulators(
    std::span<const std::vector<MotifAccumulator>> shards);

/// Post-stream HT estimates of the named motifs' instances spanning >= 2
/// shards, from the union of the shard reservoirs. Enumerates each
/// instance once per member edge via the registry enumerator and divides
/// by MotifEntry::num_edges. Returns zeros (one accumulator per name) for
/// < 2 shards. Names must be registered (callers validate).
std::vector<MotifAccumulator> EstimateCrossShardMotifs(
    std::span<const GpsReservoir* const> shards,
    std::span<const std::string> motif_names);

/// As above, over a prebuilt union sample.
std::vector<MotifAccumulator> EstimateCrossShardMotifs(
    const UnionSample& sample, std::span<const std::string> motif_names);

/// Combines the two strata into named estimates, in suite order.
std::vector<MotifEstimate> MakeMotifEstimates(
    std::span<const std::string> motif_names,
    std::span<const MotifAccumulator> within,
    std::span<const MotifAccumulator> cross);

// ---- Local-count statistics over the merged sample -----------------------

/// Unbiased estimate of the number of distinct edges that have arrived,
/// summed over the edge-disjoint shard substreams (the sharded analog of
/// core/local_counts.h EstimateEdgeCount).
double EstimateMergedEdgeCount(std::span<const GpsReservoir* const> shards);

/// Unbiased estimate of the degree of v in the arrived graph, summed over
/// shards (each shard holds a disjoint subset of v's edges).
double EstimateMergedDegree(std::span<const GpsReservoir* const> shards,
                            NodeId v);

}  // namespace gps

#endif  // GPS_ENGINE_MERGE_H_
