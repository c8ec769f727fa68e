#include "engine/merge.h"

#include <cassert>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/edge_terms.h"
#include "core/local_counts.h"
#include "graph/sampled_graph.h"
#include "graph/types.h"
#include "util/affinity.h"
#include "util/ordered_fold.h"

namespace gps {
namespace {

// The union of the shard reservoirs, indexed like a reservoir: a sampled
// adjacency whose slot payloads point into a flat record array. Edge-hash
// sharding guarantees shard samples are edge-disjoint, so AddEdge never
// collides.
//
// Records are keyed by global slot (shard base + reservoir SlotId, see
// UnionSample in merge.h); `order` lists the indexed slots in union order
// (shard by shard, each in ForEachEdge heap order), the order every pass
// folds its per-edge terms in.
//
// `stratum` packs (shard << 32 | sub-stratum): with empty sub-stratum
// tables every edge of shard s carries stratum s<<32, so all stratum
// comparisons below reduce to the classic shard comparisons bit for bit;
// steal-mode engines supply per-slot batch ids as sub-strata.
struct MergedRecord {
  Edge edge;            // the indexed edge; Edge{} (a self loop) if none
  double inv_q = 0.0;   // 1 / min{1, w / z*_shard}
  uint64_t stratum = 0;

  bool indexed() const { return !edge.IsSelfLoop(); }
};

struct MergedSample {
  SampledGraph graph;
  std::vector<MergedRecord> records;
  std::vector<SlotId> order;
  /// bases[s] is shard s's first global slot; bases.back() the total.
  std::vector<size_t> bases;
};

// The one indexing routine (see RefreshUnionSample); returns the number
// of slots un-indexed plus the number indexed.
size_t RefreshMergedSample(std::span<const ShardSampleRef> shards,
                           MergedSample* merged) {
  std::vector<size_t> bases(shards.size() + 1, 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    bases[s + 1] = bases[s] + shards[s].reservoir->store().slot_capacity();
  }
  assert(bases.back() < kNoSlot && "union slot space exceeds 32 bits");
  size_t reindexed = 0;
  if (bases != merged->bases) {
    // A different shard layout: no global slot keeps its meaning.
    reindexed = merged->order.size();
    *merged = MergedSample{};
    merged->bases = std::move(bases);
    merged->records.resize(merged->bases.back());
  }

  // Pass 1: un-index every slot whose edge left or was replaced.
  for (size_t s = 0; s < shards.size(); ++s) {
    const PackedSampleStore& store = shards[s].reservoir->store();
    MergedRecord* records = merged->records.data() + merged->bases[s];
    const size_t num_slots = merged->bases[s + 1] - merged->bases[s];
    for (SlotId slot = 0; slot < num_slots; ++slot) {
      MergedRecord& rec = records[slot];
      if (!rec.indexed()) continue;
      if (slot < store.num_slots() && store.live(slot) &&
          store.edge(slot) == rec.edge) {
        continue;
      }
      merged->graph.RemoveEdge(rec.edge);
      rec.edge = Edge{};
      ++reindexed;
    }
  }

  // Pass 2: index new edges, re-read every live slot's probability and
  // stratum, and rebuild the union order.
  merged->order.clear();
  for (size_t s = 0; s < shards.size(); ++s) {
    const GpsReservoir& reservoir = *shards[s].reservoir;
    const std::span<const uint32_t> strata = shards[s].slot_strata;
    const uint64_t shard_bits = static_cast<uint64_t>(s) << 32;
    const size_t base = merged->bases[s];
    reservoir.ForEachEdge(
        [&](SlotId shard_slot, const GpsReservoir::EdgeRecord& edge_rec) {
          const SlotId slot = static_cast<SlotId>(base + shard_slot);
          MergedRecord& rec = merged->records[slot];
          if (!rec.indexed()) {
            rec.edge = edge_rec.edge;
            [[maybe_unused]] const bool added =
                merged->graph.AddEdge(edge_rec.edge, slot);
            assert(added && "shard samples must be edge-disjoint");
            ++reindexed;
          }
          rec.inv_q = 1.0 / reservoir.ProbabilityForWeight(edge_rec.weight);
          rec.stratum =
              shard_bits |
              (shard_slot < strata.size() ? strata[shard_slot] : 0u);
          merged->order.push_back(slot);
        });
  }
  return reindexed;
}

std::vector<ShardSampleRef> PlainRefs(
    std::span<const GpsReservoir* const> shards) {
  std::vector<ShardSampleRef> refs;
  refs.reserve(shards.size());
  for (const GpsReservoir* r : shards) refs.push_back({r, {}});
  return refs;
}

// Mirrors ComputeEdgeTerms of core/post_stream.cc (Algorithm 2
// localized per edge, with the triangle-wedge covariance of Eq. 12), with
// two generalizations:
//   * per-edge inclusion probabilities come from each edge's own shard
//     threshold instead of one global z*;
//   * with SpanOnly, a subgraph contributes only when its edges span >= 2
//     shards; the pair-covariance prefix sums then run over counted
//     subgraphs only, so cross terms pair spanning subgraphs with
//     spanning subgraphs (within-shard subgraphs belong to the in-stream
//     stratum and are estimated there).
template <bool SpanOnly>
EdgeTerms MergedEdgeTerms(const MergedSample& sample, SlotId slot_k) {
  const MergedRecord& rec = sample.records[slot_k];
  const SampledGraph& graph = sample.graph;
  NodeId v1 = rec.edge.u;
  NodeId v2 = rec.edge.v;
  if (graph.Degree(v1) > graph.Degree(v2)) std::swap(v1, v2);

  const double inv_q = rec.inv_q;
  const uint64_t sh = rec.stratum;

  double nk_tri = 0.0, vk_tri = 0.0;
  double nk_wed = 0.0, vk_wed = 0.0;
  double run_tri = 0.0;      // prefix sum of 1/(q1*q2) over counted triangles
  double ck_tri = 0.0;       // ordered-pair triangle cross-products
  double run_wed = 0.0;      // prefix sum of 1/q_other over counted wedges
  double ck_wed = 0.0;       // ordered-pair wedge cross-products
  double d_contained = 0.0;  // counted (triangle, contained-wedge) pairs
  double covb = 0.0;         // |tri ∩ wedge| = 2 contributions

  graph.ForEachNeighbor(v1, [&](NodeId v3, SlotId slot_k1) {
    if (v3 == v2) return;
    const MergedRecord& r1 = sample.records[slot_k1];
    const double inv_q1 = r1.inv_q;

    const SlotId slot_k2 = graph.FindEdge(MakeEdge(v2, v3));
    if (slot_k2 != kNoSlot) {
      const MergedRecord& r2 = sample.records[slot_k2];
      const double inv_q2 = r2.inv_q;
      const bool tri_counted =
          !SpanOnly || !(r1.stratum == sh && r2.stratum == sh);
      if (tri_counted) {
        const double inv_q1q2 = inv_q1 * inv_q2;
        const double est = inv_q * inv_q1q2;
        nk_tri += est;
        vk_tri += est * (est - 1.0);
        ck_tri += run_tri * inv_q1q2;
        run_tri += inv_q1q2;
        // Pairs (triangle, wedge ⊂ triangle sharing only k) to subtract
        // from the run_tri * run_wed product: only wedges this pass
        // counted participate in run_wed.
        if (!SpanOnly || r1.stratum != sh) d_contained += inv_q1q2 * inv_q1;
        if (!SpanOnly || r2.stratum != sh) d_contained += inv_q1q2 * inv_q2;
        // Case |tri ∩ wedge| = 2: the wedge {k1, k2} inside the triangle.
        if (!SpanOnly || r1.stratum != r2.stratum) {
          covb += est * (inv_q1q2 - 1.0);
        }
      }
    }

    // Wedge {k1, k} at the shared endpoint v1.
    if (!SpanOnly || r1.stratum != sh) {
      const double west = inv_q * inv_q1;
      nk_wed += west;
      vk_wed += west * (west - 1.0);
      ck_wed += run_wed * inv_q1;
      run_wed += inv_q1;
    }
  });

  graph.ForEachNeighbor(v2, [&](NodeId v3, SlotId slot_k2) {
    if (v3 == v1) return;
    const MergedRecord& r2 = sample.records[slot_k2];
    if (SpanOnly && r2.stratum == sh) return;
    const double inv_q2 = r2.inv_q;
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

// The per-edge terms are independent (the paper's "abundant parallelism"),
// so they are computed on every available core and folded in slot order:
// bit-identical to the serial loop at any thread count.
template <bool SpanOnly>
GraphEstimates EstimateOverSample(const MergedSample& sample) {
  const size_t n = sample.order.size();
  return SumEdgeTerms(n, UnionPassThreads(n), [&](size_t i) {
    return MergedEdgeTerms<SpanOnly>(sample, sample.order[i]);
  });
}

/// The motif cross-shard pass over a union sample of >= 2 shards.
std::vector<MotifAccumulator> CrossShardMotifsOverSample(
    const MergedSample& sample, std::span<const std::string> motif_names) {
  std::vector<MotifAccumulator> out(motif_names.size());
  for (size_t m = 0; m < motif_names.size(); ++m) {
    const MotifEntry* entry = FindMotif(motif_names[m]);
    assert(entry != nullptr && "unvalidated motif name");
    const InStreamMotifCounter::EnumerateFn enumerate =
        entry->make_enumerator();
    MotifAccumulator raw;
    for (const SlotId slot : sample.order) {
      const MergedRecord& rec = sample.records[slot];
      // Treat each union-sampled edge as the enumerator's "arriving" edge:
      // the streaming enumerators report instances containing it without
      // ever listing it among the members, so each instance is enumerated
      // once per member edge — hence the num_edges division below.
      const InStreamMotifCounter::Emitter emit =
          [&](std::span<const Edge> members) {
            double product = rec.inv_q;
            bool spans = false;
            for (const Edge& member : members) {
              const SlotId member_slot =
                  sample.graph.FindEdge(member.Canonical());
              if (member_slot == kNoSlot) return;
              product *= sample.records[member_slot].inv_q;
              spans |= sample.records[member_slot].stratum != rec.stratum;
            }
            // Within-shard instances belong to the in-stream stratum.
            if (!spans) return;
            raw.count += product;
            raw.variance += product * (product - 1.0);
            ++raw.snapshots;
          };
      enumerate(rec.edge, sample.graph, emit);
    }
    out[m].count = raw.count / entry->num_edges;
    out[m].variance = raw.variance / entry->num_edges;
    out[m].snapshots = raw.snapshots / entry->num_edges;
  }
  return out;
}

}  // namespace

struct UnionSample::Impl {
  MergedSample sample;
};

UnionSample::UnionSample() = default;
UnionSample::~UnionSample() = default;
UnionSample::UnionSample(UnionSample&&) noexcept = default;
UnionSample& UnionSample::operator=(UnionSample&&) noexcept = default;

size_t UnionSample::num_edges() const {
  return impl_ ? impl_->sample.order.size() : 0;
}

void RefreshUnionSample(std::span<const ShardSampleRef> shards,
                        UnionSample* sample) {
  sample->num_shards_ = shards.size();
  // No pass ever reads the index below two shards (there is no spanning
  // stratum), so none is kept for K = 1.
  if (shards.size() < 2) {
    sample->last_reindexed_ = sample->num_edges();
    sample->impl_.reset();
    return;
  }
  if (!sample->impl_) sample->impl_ = std::make_unique<UnionSample::Impl>();
  sample->last_reindexed_ = RefreshMergedSample(shards, &sample->impl_->sample);
}

UnionSample BuildUnionSample(std::span<const ShardSampleRef> shards) {
  UnionSample sample;
  RefreshUnionSample(shards, &sample);
  return sample;
}

UnionSample BuildUnionSample(std::span<const GpsReservoir* const> shards) {
  return BuildUnionSample(std::span<const ShardSampleRef>(PlainRefs(shards)));
}

GraphEstimates EstimateCrossShard(const UnionSample& sample) {
  if (sample.num_shards() < 2) return {};
  return EstimateOverSample</*SpanOnly=*/true>(sample.impl_->sample);
}

GraphEstimates EstimateMergedPostStream(const UnionSample& sample) {
  assert(sample.num_shards() >= 2 && "no union index below two shards");
  if (sample.num_shards() < 2) return {};
  return EstimateOverSample</*SpanOnly=*/false>(sample.impl_->sample);
}

std::vector<MotifAccumulator> EstimateCrossShardMotifs(
    const UnionSample& sample, std::span<const std::string> motif_names) {
  if (sample.num_shards() < 2) {
    return std::vector<MotifAccumulator>(motif_names.size());
  }
  return CrossShardMotifsOverSample(sample.impl_->sample, motif_names);
}

size_t UnionPassThreads(size_t num_edges) {
  size_t cpus = AvailableCpus().size();
  if (cpus == 0) cpus = std::thread::hardware_concurrency();
  return OrderedFoldWorkers(num_edges, cpus);
}

GraphEstimates SumShardEstimates(std::span<const GraphEstimates> shards) {
  GraphEstimates total;
  for (const GraphEstimates& e : shards) total = AddEstimates(total, e);
  return total;
}

GraphEstimates EstimateCrossShard(
    std::span<const GpsReservoir* const> shards) {
  return EstimateCrossShard(BuildUnionSample(shards));
}

GraphEstimates EstimateMergedPostStream(
    std::span<const GpsReservoir* const> shards) {
  if (shards.empty()) return {};
  // Indexed directly: this pass also runs at K = 1, where a UnionSample
  // keeps no index.
  MergedSample merged;
  RefreshMergedSample(PlainRefs(shards), &merged);
  return EstimateOverSample</*SpanOnly=*/false>(merged);
}

GraphEstimates AddEstimates(const GraphEstimates& a,
                            const GraphEstimates& b) {
  GraphEstimates out;
  out.triangles.value = a.triangles.value + b.triangles.value;
  out.triangles.variance = a.triangles.variance + b.triangles.variance;
  out.wedges.value = a.wedges.value + b.wedges.value;
  out.wedges.variance = a.wedges.variance + b.wedges.variance;
  out.tri_wedge_cov = a.tri_wedge_cov + b.tri_wedge_cov;
  return out;
}

std::vector<MotifAccumulator> SumShardMotifAccumulators(
    std::span<const std::vector<MotifAccumulator>> shards) {
  std::vector<MotifAccumulator> total;
  for (const std::vector<MotifAccumulator>& shard : shards) {
    if (total.empty()) total.resize(shard.size());
    assert(shard.size() == total.size() &&
           "shards carry mismatched motif suites");
    for (size_t m = 0; m < shard.size(); ++m) {
      total[m].count += shard[m].count;
      total[m].variance += shard[m].variance;
      total[m].snapshots += shard[m].snapshots;
    }
  }
  return total;
}

std::vector<MotifAccumulator> EstimateCrossShardMotifs(
    std::span<const GpsReservoir* const> shards,
    std::span<const std::string> motif_names) {
  if (motif_names.empty()) return {};
  return EstimateCrossShardMotifs(BuildUnionSample(shards), motif_names);
}

std::vector<MotifEstimate> MakeMotifEstimates(
    std::span<const std::string> motif_names,
    std::span<const MotifAccumulator> within,
    std::span<const MotifAccumulator> cross) {
  assert(within.size() == motif_names.size());
  assert(cross.size() == motif_names.size());
  std::vector<MotifEstimate> out;
  out.reserve(motif_names.size());
  for (size_t m = 0; m < motif_names.size(); ++m) {
    MotifEstimate est;
    est.name = motif_names[m];
    est.estimate.value = within[m].count + cross[m].count;
    est.estimate.variance = within[m].variance + cross[m].variance;
    if (est.estimate.variance < 0.0) est.estimate.variance = 0.0;
    est.snapshots = within[m].snapshots + cross[m].snapshots;
    out.push_back(std::move(est));
  }
  return out;
}

double EstimateMergedEdgeCount(
    std::span<const GpsReservoir* const> shards) {
  double total = 0.0;
  for (const GpsReservoir* reservoir : shards) {
    total += EstimateEdgeCount(*reservoir);
  }
  return total;
}

double EstimateMergedDegree(std::span<const GpsReservoir* const> shards,
                            NodeId v) {
  double total = 0.0;
  for (const GpsReservoir* reservoir : shards) {
    total += EstimateDegree(*reservoir, v);
  }
  return total;
}

}  // namespace gps
