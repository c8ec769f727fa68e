// Adaptive set-intersection kernels over sorted AdjEntry blocks.
//
// Every arriving edge pays for |Γ̂(v1) ∩ Γ̂(v2)| — the paper's sampled
// common-neighborhood query that drives both the GPS weight W(k, K̂) and the
// Algorithm-3 snapshot updates — so this is the per-arrival hot path on
// hub-heavy graphs. The post-stream passes ask the same query once per
// sampled edge (Algorithm 2 lines 5-9; core/edge_terms.h, and the local
// triangle counts of core/local_counts.cc): the single-reservoir pass, the
// cross-shard correction, the merged union pass and so every monitor tick
// and checkpoint merge. They pass no metrics, so the counters below count
// per-arrival work only and the pass threads share no counter. The
// adjacency blocks (graph/sampled_graph.h) are
// contiguous, neighbor-sorted, 8-byte-entry arrays: exactly the layout
// set-intersection kernels want. Three kernels, picked per call:
//
//   merge    two-pointer linear scan — O(na + nb), best when the blocks are
//            comparable in size and SIMD is unavailable (or the blocks are
//            too small to amortize a vector loop).
//   gallop   scan the smaller block, exponential-probe the larger from a
//            monotonically advancing base — O(ns · log(nl/ns)). Replaces
//            the previous per-element full binary search: successive probe
//            keys are ascending, so each search starts where the last one
//            ended instead of at the block's origin.
//   simd     block-wise all-pairs compare (SSE2 4x4 / AVX2 8x8) with the
//            classic shuffle-rotate scheme, scalar tail. Compiled on
//            x86-64 unless -DGPS_SIMD=OFF; the AVX2 variant is selected by
//            runtime CPUID dispatch, SSE2 is the x86-64 baseline. Other
//            architectures fall back to merge/gallop.
//
// Selection: gallop when max/min >= kGallopRatio (crossover tuned by
// bench/bench_intersect.cc — see src/engine/README.md "Intersection
// kernels"), else simd when available and the smaller block has at least
// kSimdMinSize entries, else merge.
//
// Determinism contract: every kernel emits exactly the same match sequence
// — common neighbors in ascending neighbor-id order, slots in the caller's
// (a, b) argument order. Callers accumulate floating-point sums in emission
// order, so kernel choice (and therefore CPU generation, -DGPS_SIMD
// setting, or a forced kernel) can never change estimate bytes. Forced
// mode — SetIntersectKernel() or the GPS_INTERSECT_KERNEL environment
// variable (auto|merge|gallop|simd) — exists so tests can assert exactly
// that (tests/graph_intersect_test.cc, the cli_test golden-stream matrix).
//
// Metrics: per-call kernel counters (intersect.merge/gallop/simd) and a
// comparisons-saved tally (scalar-merge cost na+nb minus the comparisons
// the chosen kernel actually performed) live in an IntersectMetrics owned
// by each SampledGraph, registered with the engine's MetricsRegistry and
// surfaced as the intersect.comparisons_saved gauge. Only the per-arrival
// path (SampledGraph::ForEachCommonNeighbor / CountCommonNeighbors)
// records into them. Observation-only; no-ops under -DGPS_METRICS=0.

#ifndef GPS_GRAPH_INTERSECT_H_
#define GPS_GRAPH_INTERSECT_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "graph/types.h"
#include "util/metrics.h"

// -DGPS_SIMD=OFF (CMake) defines GPS_SIMD=0: the simd kernel is not
// compiled and auto-dispatch never selects it (forced 'simd' degrades to
// merge — byte-identical by the emission contract above).
#ifndef GPS_SIMD
#define GPS_SIMD 1
#endif
#if GPS_SIMD && defined(__x86_64__)
#define GPS_INTERSECT_X86 1
#else
#define GPS_INTERSECT_X86 0
#endif

namespace gps {

/// Opaque per-edge payload stored with each adjacency entry (the
/// reservoir slot carrying the edge's record; see core/packed_store.h).
using SlotId = uint32_t;
constexpr SlotId kNoSlot = ~SlotId{0};

/// One directed adjacency entry: neighbor id + the edge's reservoir slot.
/// 8 bytes, and kept that way — the simd kernels deinterleave the nbr
/// lanes with fixed shuffles that assume this exact layout.
struct AdjEntry {
  NodeId nbr;
  SlotId slot;
};
static_assert(sizeof(AdjEntry) == 8, "simd kernels assume 8-byte entries");

/// Kernel identifiers. kAuto = size-ratio dispatch (the production mode).
enum class IntersectKernel : uint8_t { kAuto = 0, kMerge, kGallop, kSimd };

/// Observation-only kernel-selection counters (no-ops under
/// GPS_METRICS=0). Owned per SampledGraph so shard-local updates never
/// contend; the engine registers them under shared names and aggregates
/// at snapshot time.
struct IntersectMetrics {
  Counter merge_calls;        // intersect.merge
  Counter gallop_calls;       // intersect.gallop
  Counter simd_calls;         // intersect.simd
  /// Scalar-merge comparisons (na + nb) minus the comparisons the chosen
  /// kernel performed, accumulated over calls where the kernel won.
  Counter comparisons_saved;  // feeds the intersect.comparisons_saved gauge

  /// Folds another graph's counts into this one (steal mode: a detached
  /// mini-reservoir's intersections are attributed to its owner shard at
  /// re-bind time, mirroring ReservoirMetrics::Absorb).
  void Absorb(const IntersectMetrics& other) {
    merge_calls.Add(other.merge_calls.Value());
    gallop_calls.Add(other.gallop_calls.Value());
    simd_calls.Add(other.simd_calls.Value());
    comparisons_saved.Add(other.comparisons_saved.Value());
  }
};

namespace intersect_detail {

/// Per-match callback shape the out-of-line simd kernels emit through.
using EmitFn = void (*)(void* ctx, NodeId nbr, SlotId slot_a, SlotId slot_b);

/// Resolved-at-startup simd entry points (nullptr when the build or the
/// CPU lacks them). `steps` is incremented by the number of vector
/// compare instructions plus scalar-tail comparisons.
struct SimdOps {
  size_t (*emit)(const AdjEntry* a, size_t na, const AdjEntry* b, size_t nb,
                 EmitFn fn, void* ctx, uint64_t* steps);
  size_t (*count)(const AdjEntry* a, size_t na, const AdjEntry* b, size_t nb,
                  uint64_t* steps);
  const char* level;  // "avx2" or "sse2"
};

/// CPUID-resolved ops table; nullptr when simd is compiled out or the
/// architecture is not x86-64. Set once at static init (intersect.cc).
extern const SimdOps* const g_simd_ops;

/// Forced kernel as a raw IntersectKernel value; initialized from the
/// GPS_INTERSECT_KERNEL environment variable, overridable via
/// SetIntersectKernel. kAuto = no forcing.
extern std::atomic<uint8_t> g_forced_kernel;

/// Gallop-vs-merge size-ratio crossover. Tuned with bench_intersect on the
/// block shapes the sampled graph actually produces: gallop starts winning
/// between 4:1 and 16:1 and is >= 2x past 64:1; 16 keeps the comparable
/// regime on the branch-predictable merge/simd path (see the "Intersection
/// kernels" table in src/engine/README.md).
constexpr size_t kGallopRatio = 16;
/// Smallest "smaller block" worth a vector loop: below this the 4-wide
/// (SSE2) block pass plus scalar tail costs more than it saves.
constexpr size_t kSimdMinSize = 16;

template <typename Fn>
void EmitTrampoline(void* ctx, NodeId nbr, SlotId slot_a, SlotId slot_b) {
  (*static_cast<Fn*>(ctx))(nbr, slot_a, slot_b);
}

}  // namespace intersect_detail

/// True when a simd kernel is compiled in and the CPU supports it.
inline bool IntersectSimdAvailable() {
  return intersect_detail::g_simd_ops != nullptr;
}

/// Dispatch level for diagnostics: "avx2", "sse2", or "off" (compiled out
/// or non-x86-64).
const char* IntersectSimdLevel();

/// Stable name for a kernel ("auto", "merge", "gallop", "simd").
const char* IntersectKernelName(IntersectKernel kernel);

/// Forces every subsequent intersection through one kernel (kAuto
/// restores adaptive dispatch). Process-global; intended for tests, the
/// kernel-identity gates, and bench forcing. Byte-identity across kernels
/// is a contract, so forcing can never change results — only speed.
void SetIntersectKernel(IntersectKernel kernel);

/// Currently forced kernel (kAuto when dispatch is adaptive).
inline IntersectKernel ForcedIntersectKernel() {
  return static_cast<IntersectKernel>(
      intersect_detail::g_forced_kernel.load(std::memory_order_relaxed));
}

/// The kernel adaptive dispatch selects for block sizes (na, nb).
inline IntersectKernel ChooseIntersectKernel(size_t na, size_t nb) {
  const size_t small = na < nb ? na : nb;
  const size_t large = na < nb ? nb : na;
  if (small == 0) return IntersectKernel::kMerge;
  if (large / small >= intersect_detail::kGallopRatio) {
    return IntersectKernel::kGallop;
  }
  if (IntersectSimdAvailable() && small >= intersect_detail::kSimdMinSize) {
    return IntersectKernel::kSimd;
  }
  return IntersectKernel::kMerge;
}

namespace intersect_detail {

/// Forced kernel resolved against availability: forcing simd without a
/// simd build degrades to merge (same emission sequence by contract).
inline IntersectKernel EffectiveKernel(size_t na, size_t nb) {
  IntersectKernel kernel = ForcedIntersectKernel();
  if (kernel == IntersectKernel::kAuto) {
    kernel = ChooseIntersectKernel(na, nb);
  }
  if (kernel == IntersectKernel::kSimd && !IntersectSimdAvailable()) {
    kernel = IntersectKernel::kMerge;
  }
  return kernel;
}

/// Two-pointer linear merge. Emission: ascending nbr, slots in (a, b)
/// argument order. `steps` counts loop iterations (one three-way compare
/// each) — the scalar cost the other kernels are measured against.
template <typename Fn>
size_t MergeEmit(const AdjEntry* a, size_t na, const AdjEntry* b, size_t nb,
                 uint64_t* steps, Fn&& fn) {
  size_t i = 0, j = 0, matches = 0;
  uint64_t local = 0;
  while (i < na && j < nb) {
    ++local;
    const NodeId x = a[i].nbr;
    const NodeId y = b[j].nbr;
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      fn(x, a[i].slot, b[j].slot);
      ++matches;
      ++i;
      ++j;
    }
  }
  *steps += local;
  return matches;
}

/// Galloping core: scans `small`, probes `large` with exponential search
/// from a base that only moves forward (successive keys are ascending, so
/// sortedness of the probe sequence is exploited across iterations —
/// unlike the old per-element binary search from offset 0). Emits
/// fn(nbr, slot_small, slot_large) in ascending nbr order.
template <typename Fn>
size_t GallopImpl(const AdjEntry* small, size_t ns, const AdjEntry* large,
                  size_t nl, uint64_t* steps, Fn&& fn) {
  size_t base = 0, matches = 0;
  uint64_t local = 0;
  for (size_t i = 0; i < ns && base < nl; ++i) {
    const NodeId key = small[i].nbr;
    // Exponential probe: bracket the first entry >= key in a window that
    // starts where the previous key's search ended.
    size_t bound = 1;
    while (base + bound < nl && large[base + bound].nbr < key) {
      bound <<= 1;
      ++local;
    }
    const size_t lo = base + (bound >> 1);
    const size_t hi = std::min(base + bound + 1, nl);
    const AdjEntry* it = std::lower_bound(
        large + lo, large + hi, key,
        [](const AdjEntry& entry, NodeId k) { return entry.nbr < k; });
    // Account the binary-search comparisons (log2 of the window).
    for (size_t span = hi - lo; span > 0; span >>= 1) ++local;
    size_t pos = static_cast<size_t>(it - large);
    if (pos < nl && large[pos].nbr == key) {
      fn(key, small[i].slot, large[pos].slot);
      ++matches;
      ++pos;
    }
    base = pos;
  }
  *steps += local;
  return matches;
}

/// Gallop with role normalization: always scans the smaller block but
/// emits slots in the caller's (a, b) order.
template <typename Fn>
size_t GallopEmit(const AdjEntry* a, size_t na, const AdjEntry* b, size_t nb,
                  uint64_t* steps, Fn&& fn) {
  if (na <= nb) {
    return GallopImpl(a, na, b, nb, steps,
                      [&fn](NodeId nbr, SlotId sa, SlotId sb) {
                        fn(nbr, sa, sb);
                      });
  }
  return GallopImpl(b, nb, a, na, steps,
                    [&fn](NodeId nbr, SlotId sb, SlotId sa) {
                      fn(nbr, sa, sb);
                    });
}

/// Attributes one finished call to the metrics (shared by the emit and
/// count entry points).
inline void RecordCall(IntersectMetrics* metrics, IntersectKernel kernel,
                       size_t na, size_t nb, uint64_t steps) {
  if (metrics == nullptr) return;
  switch (kernel) {
    case IntersectKernel::kGallop:
      metrics->gallop_calls.Increment();
      break;
    case IntersectKernel::kSimd:
      metrics->simd_calls.Increment();
      break;
    default:
      metrics->merge_calls.Increment();
      break;
  }
  const uint64_t scalar_cost = static_cast<uint64_t>(na) + nb;
  if (steps < scalar_cost) {
    metrics->comparisons_saved.Add(scalar_cost - steps);
  }
}

}  // namespace intersect_detail

/// Intersects two neighbor-sorted adjacency blocks, calling
/// fn(nbr, slot_a, slot_b) for every common neighbor id — ascending nbr
/// order, slots in (a, b) argument order, identical emission sequence for
/// every kernel. Returns the match count. `metrics` may be nullptr.
template <typename Fn>
size_t IntersectSorted(const AdjEntry* a, size_t na, const AdjEntry* b,
                       size_t nb, IntersectMetrics* metrics, Fn&& fn) {
  namespace d = intersect_detail;
  if (na == 0 || nb == 0) return 0;
  const IntersectKernel kernel = d::EffectiveKernel(na, nb);
  uint64_t steps = 0;
  size_t matches = 0;
  switch (kernel) {
    case IntersectKernel::kGallop:
      matches = d::GallopEmit(a, na, b, nb, &steps, fn);
      break;
    case IntersectKernel::kSimd: {
      using FnT = std::remove_reference_t<Fn>;
      matches = d::g_simd_ops->emit(a, na, b, nb, &d::EmitTrampoline<FnT>,
                                    std::addressof(fn), &steps);
      break;
    }
    default:
      matches = d::MergeEmit(a, na, b, nb, &steps, fn);
      break;
  }
  d::RecordCall(metrics, kernel, na, nb, steps);
  return matches;
}

/// Count-only intersection (no slot emission): same dispatch, cheaper
/// kernels (the simd path popcounts match masks instead of resolving slot
/// pairs). Exact integer, identical across kernels.
size_t IntersectCountSorted(const AdjEntry* a, size_t na, const AdjEntry* b,
                            size_t nb, IntersectMetrics* metrics);

}  // namespace gps

#endif  // GPS_GRAPH_INTERSECT_H_
