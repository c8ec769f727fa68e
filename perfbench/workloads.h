// Workload table shared by the seeded input step (gen.cc) and the
// measured process (driver.cc). BENCHMARK.json names the same workloads;
// README.md says why each was chosen.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace perfbench {

enum class GraphModel { kChungLu, kHolmeKim };

struct Workload {
  const char* name;
  GraphModel model;
  uint32_t nodes;
  /// Chung-Lu: distinct edges sampled. Holme-Kim: links per new node.
  uint64_t edges_param;
  /// Chung-Lu: power-law exponent gamma. Holme-Kim: triad probability.
  double shape;
  /// Total reservoir capacity (split across shards).
  uint64_t capacity;
  uint32_t shards;
  /// EstimateMergedPostStream, MergedEdgeCountEstimate and degree queries
  /// after the in-stream merge (the `gps_cli estimate` outputs).
  bool post_stream;
  uint32_t degree_queries;
  /// Monitor tick cadence in edges; 0 = only the end-of-stream tick.
  uint64_t tick_every;
  /// Checkpoint cadence in edges; 0 = only the end-of-stream checkpoint.
  uint64_t ckpt_every;
};

inline constexpr Workload kWorkloads[] = {
    {"social-serial", GraphModel::kChungLu, 100000, 800000, 2.25, 200000, 1,
     false, 0, 0, 0},
    {"social-sharded", GraphModel::kChungLu, 100000, 800000, 2.25, 200000,
     3, true, 1000, 0, 0},
    {"monitor-web", GraphModel::kHolmeKim, 150000, 5, 0.55, 50000, 3, false,
     0, 5000, 50000},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The workload at `scale` (1 = full size; the smoke mode uses ~0.02).
/// Sizes and cadences shrink together, so a scaled run keeps the tick and
/// checkpoint counts of the full one. Capacity keeps a floor of 4000
/// sampled edges: the 4-sigma check on the final estimates rests on a
/// normal approximation, which a few hundred sampled edges per shard do
/// not support (their triangle CIs ranged from 0.1x to 1.6x the count).
inline Workload Scaled(const Workload& w, double scale) {
  auto shrink = [scale](uint64_t v, uint64_t floor) -> uint64_t {
    if (v == 0) return 0;
    return std::max<uint64_t>(floor, static_cast<uint64_t>(
                                         std::llround(v * scale)));
  };
  Workload s = w;
  s.nodes = static_cast<uint32_t>(shrink(w.nodes, 200));
  if (w.model == GraphModel::kChungLu) {
    s.edges_param = shrink(w.edges_param, 800);
  }
  s.capacity = shrink(w.capacity, 4000);
  s.degree_queries = static_cast<uint32_t>(shrink(w.degree_queries, 10));
  s.tick_every = shrink(w.tick_every, 10);
  s.ckpt_every = shrink(w.ckpt_every, 100);
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
