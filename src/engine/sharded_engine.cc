#include "engine/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/in_stream.h"
#include "core/motifs.h"
#include "core/seeding.h"
#include "core/serialize.h"
#include "util/affinity.h"

namespace gps {
namespace {

/// Per-shard reservoir capacity implied by a manifest's layout; mirrors
/// the split the engine constructor performs.
size_t PerShardCapacity(size_t total, uint32_t k, bool split) {
  return split ? (total + k - 1) / k : total;
}

bool SameWeightConfig(const WeightOptions& a, const WeightOptions& b) {
  return a.kind == b.kind && a.coefficient == b.coefficient &&
         a.adjacency_coefficient == b.adjacency_coefficient &&
         a.default_weight == b.default_weight;
}

/// Derives shard s's worker configuration from the engine options — the
/// ONE place the per-shard capacity split and seed derivation live, so
/// fresh construction and checkpoint resume cannot drift apart (drift
/// would silently break the resume byte-identity contract).
ShardOptions MakeShardOptions(const ShardedEngineOptions& options,
                              uint32_t s, ShardEstimatorKind kind,
                              StealMode steal, int cpu_affinity = -1) {
  ShardOptions shard_options;
  shard_options.sampler = options.sampler;
  shard_options.sampler.capacity = PerShardCapacity(
      options.sampler.capacity, options.num_shards, options.split_capacity);
  shard_options.sampler.seed =
      DeriveShardSeed(options.sampler.seed, s, options.num_shards);
  shard_options.estimator = kind;
  shard_options.ring_capacity = options.ring_capacity;
  shard_options.motifs = options.motifs;
  shard_options.steal = steal;
  shard_options.cpu_affinity = cpu_affinity;
  return shard_options;
}

/// Layout compatibility between manifests that should describe shards of
/// one logical run. Field-by-field so errors name what disagrees.
Status CheckManifestsCompatible(const ShardManifest& base,
                                const ShardManifest& other,
                                const std::string& path) {
  if (other.num_shards != base.num_shards) {
    return Status::FailedPrecondition(
        "manifest " + path + ": shard count " +
        std::to_string(other.num_shards) + " does not match " +
        std::to_string(base.num_shards));
  }
  if (other.base_seed != base.base_seed) {
    return Status::FailedPrecondition(
        "manifest " + path + ": base seed " +
        std::to_string(other.base_seed) + " does not match " +
        std::to_string(base.base_seed));
  }
  if (other.total_capacity != base.total_capacity ||
      other.split_capacity != base.split_capacity ||
      other.mem_budget_bytes != base.mem_budget_bytes) {
    return Status::FailedPrecondition(
        "manifest " + path + ": capacity layout does not match");
  }
  if (!SameWeightConfig(other.weight, base.weight)) {
    return Status::FailedPrecondition(
        "manifest " + path + ": weight configuration does not match");
  }
  if (other.motif_names != base.motif_names) {
    return Status::FailedPrecondition(
        "manifest " + path +
        ": motif set does not match (shards of one run share one ordered "
        "motif suite)");
  }
  return Status::Ok();
}

Result<std::string> ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failure on " + path.string());
  return buffer.str();
}

/// A fully validated checkpoint set: the shared layout, the restored
/// per-shard estimators in shard order, and the stream position the run
/// was interrupted at. Shared by MergeFromCheckpoints (estimate without
/// re-streaming) and ResumeFromCheckpoints (continue streaming).
struct LoadedCheckpoints {
  ShardManifest layout;  // entries cleared; motif_names retained
  std::vector<std::unique_ptr<InStreamEstimator>> estimators;
  /// Restored motif accumulators, one vector per shard in shard order;
  /// every inner vector matches layout.motif_names (possibly empty).
  std::vector<std::vector<MotifAccumulator>> motif_accumulators;
  uint64_t stream_offset = 0;
};

Result<LoadedCheckpoints> LoadCheckpoints(
    std::span<const std::string> manifest_paths) {
  if (manifest_paths.empty()) {
    return Status::InvalidArgument("no manifests to merge");
  }

  struct LocatedEntry {
    ShardManifestEntry entry;
    std::filesystem::path dir;
  };
  ShardManifest base;
  std::vector<LocatedEntry> located;
  // The recorded stream offset must be validated across ALL manifests,
  // not just whichever happens to be listed first: version-1 manifests
  // report 0 ("unknown"), so the consensus is the unique nonzero offset
  // — order-independent by construction.
  uint64_t recorded_offset = 0;
  bool first = true;
  for (const std::string& path : manifest_paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open manifest " + path);
    Result<ShardManifest> manifest = DeserializeManifest(in);
    if (!manifest.ok()) {
      return manifest.status().WithContext("manifest " + path);
    }
    if (first) {
      base = *manifest;
      first = false;
    } else if (Status st = CheckManifestsCompatible(base, *manifest, path);
               !st.ok()) {
      return st;
    }
    if (manifest->stream_offset > 0) {
      if (recorded_offset == 0) {
        recorded_offset = manifest->stream_offset;
      } else if (recorded_offset != manifest->stream_offset) {
        return Status::FailedPrecondition(
            "manifest " + path + ": stream offset " +
            std::to_string(manifest->stream_offset) +
            " does not match the " + std::to_string(recorded_offset) +
            " recorded by another manifest (checkpoints taken at "
            "different stream positions cannot be combined)");
      }
    }
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    for (ShardManifestEntry& entry : manifest->entries) {
      located.push_back({std::move(entry), dir});
    }
  }

  const uint32_t k = base.num_shards;
  std::vector<const LocatedEntry*> by_index(k, nullptr);
  for (const LocatedEntry& le : located) {
    if (by_index[le.entry.shard_index] != nullptr) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(le.entry.shard_index) +
          " appears in multiple manifests");
    }
    by_index[le.entry.shard_index] = &le;
  }
  for (uint32_t s = 0; s < k; ++s) {
    if (by_index[s] == nullptr) {
      return Status::FailedPrecondition(
          "manifests cover " + std::to_string(located.size()) + " of " +
          std::to_string(k) + " shards (shard " + std::to_string(s) +
          " missing)");
    }
  }

  const size_t per_shard_capacity =
      PerShardCapacity(base.total_capacity, k, base.split_capacity);
  LoadedCheckpoints loaded;
  loaded.estimators.reserve(k);
  uint64_t arrival_sum = 0;
  // Shard order matters: summation in the merge must match the live
  // engine's 0..K-1 iteration for bit-identical merged estimates.
  for (uint32_t s = 0; s < k; ++s) {
    const LocatedEntry& le = *by_index[s];
    const uint64_t want_seed = DeriveShardSeed(base.base_seed, s, k);
    if (le.entry.shard_seed != want_seed) {
      return Status::FailedPrecondition(
          "manifest seed for shard " + std::to_string(s) +
          " does not match the layout derivation from base seed " +
          std::to_string(base.base_seed));
    }
    const std::filesystem::path file = le.dir / le.entry.filename;
    Result<std::string> bytes = ReadFileBytes(file);
    if (!bytes.ok()) return bytes.status();
    if (ChecksumBytes(*bytes) != le.entry.digest) {
      return Status::InvalidArgument(
          "digest mismatch for shard file " + file.string() +
          " (corrupt or mismatched checkpoint)");
    }
    std::istringstream in(*bytes);
    Result<InStreamEstimator> est = DeserializeInStreamEstimator(in);
    if (!est.ok()) {
      return est.status().WithContext("shard file " + file.string());
    }
    if (est->reservoir().options().seed != want_seed) {
      return Status::InvalidArgument(
          "shard file " + file.string() +
          " seed disagrees with its manifest entry");
    }
    if (est->reservoir().options().capacity != per_shard_capacity) {
      return Status::InvalidArgument(
          "shard file " + file.string() +
          " capacity disagrees with the manifest layout");
    }
    if (!SameWeightConfig(est->weight_function().options(), base.weight)) {
      return Status::InvalidArgument(
          "shard file " + file.string() +
          " weight configuration disagrees with the manifest");
    }
    // Shard files are untrusted: a wrapped sum must not masquerade as a
    // consistent stream offset.
    if (arrival_sum + est->edges_processed() < arrival_sum) {
      return Status::InvalidArgument(
          "shard arrival counts overflow across the checkpoint set");
    }
    arrival_sum += est->edges_processed();
    loaded.estimators.push_back(
        std::make_unique<InStreamEstimator>(std::move(*est)));
    loaded.motif_accumulators.push_back(le.entry.motif_accumulators);
  }

  // Version-2 manifests record the offset explicitly; a fully covered
  // layout must agree with the per-shard arrival counts (every routed
  // edge is consumed by exactly one shard). Version-1 manifests fall back
  // to the derived sum.
  if (recorded_offset > 0 && recorded_offset != arrival_sum) {
    return Status::FailedPrecondition(
        "manifest stream offset " + std::to_string(recorded_offset) +
        " disagrees with the shards' arrival counts (" +
        std::to_string(arrival_sum) + ")");
  }
  loaded.stream_offset = arrival_sum;
  loaded.layout = std::move(base);
  loaded.layout.entries.clear();  // superseded by the restored estimators
  return loaded;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)) {
  assert(options_.num_shards >= 1);
  assert(options_.batch_size >= 1);
  assert((options_.motifs.empty() ||
          options_.merge_mode == MergeMode::kInStreamPlusCross) &&
         "motif suites need in-stream shard estimators");
  assert((options_.steal == StealMode::kDisabled ||
          options_.merge_mode == MergeMode::kInStreamPlusCross) &&
         "the steal scheduler needs in-stream shard estimators");
  assert(ValidateMotifNames(options_.motifs).ok() &&
         "unvalidated motif names");
  const uint32_t k = options_.num_shards;
  const ShardEstimatorKind kind =
      options_.merge_mode == MergeMode::kPostStreamMerged
          ? ShardEstimatorKind::kPostStream
          : ShardEstimatorKind::kInStream;
  // A single-shard layout has no peers to steal from or to: bypass the
  // scheduler so K=1 keeps replaying the serial sample path byte for
  // byte even with stealing enabled (the engine's K=1 contract).
  effective_steal_ = (k >= 2 && kind == ShardEstimatorKind::kInStream)
                         ? options_.steal
                         : StealMode::kDisabled;

  // Core-pinning plan: workers 0..K-1 take the first K schedulable cpus,
  // router threads the next R. Planned BEFORE worker construction so
  // ShardOptions carries each worker's affinity and the steal scan can
  // order victims by socket.
  if (options_.pin_threads) {
    const uint32_t routers =
        options_.router_threads >= 2 ? options_.router_threads : 0;
    const std::vector<int> cpus = AvailableCpus();
    const size_t needed = static_cast<size_t>(k) + routers;
    if (cpus.size() < needed) {
      DisablePinning("core pinning disabled: " +
                     std::to_string(cpus.size()) +
                     " schedulable cpus for " + std::to_string(needed) +
                     " engine threads");
    } else {
      cpu_plan_.assign(cpus.begin(),
                       cpus.begin() + static_cast<ptrdiff_t>(needed));
    }
  }

  shards_.reserve(k);
  pending_.resize(k);
  for (uint32_t s = 0; s < k; ++s) {
    shards_.push_back(std::make_unique<ShardWorker>(
        s, MakeShardOptions(options_, s, kind, effective_steal_,
                            s < cpu_plan_.size() ? cpu_plan_[s] : -1)));
    pending_[s].reserve(options_.batch_size);
  }
  if (effective_steal_ == StealMode::kActive) {
    std::vector<ShardWorker*> peers;
    peers.reserve(k);
    for (auto& shard : shards_) peers.push_back(shard.get());
    if (cpu_plan_.empty()) {
      for (auto& shard : shards_) shard->SetStealPeers(peers);
    } else {
      // Pinned layout: same-socket victims first, so a stolen batch's
      // payload moves within the socket-local cache hierarchy. Stable
      // sort keeps shard order within each group; by the determinism
      // contract victim order never changes results.
      std::vector<int> socket(k);
      for (uint32_t s = 0; s < k; ++s) {
        socket[s] = SocketOfCpu(cpu_plan_[s]);
      }
      for (uint32_t s = 0; s < k; ++s) {
        std::vector<ShardWorker*> ordered = peers;
        std::stable_sort(ordered.begin(), ordered.end(),
                         [&](const ShardWorker* a, const ShardWorker* b) {
                           return (socket[a->index()] == socket[s]) >
                                  (socket[b->index()] == socket[s]);
                         });
        shards_[s]->SetStealPeers(std::move(ordered));
      }
    }
  }
  SetupRouters();
  RegisterObservability();
  for (auto& shard : shards_) shard->Start();
  ApplyPinning();
}

void ShardedEngine::SetupRouters() {
  if (options_.router_threads < 2) return;
  RouterPool::Options pool;
  pool.routers = options_.router_threads;
  pool.num_shards = num_shards();
  pool.route = EdgeRouter{num_shards(), options_.shard_skew};
  pool.trace = options_.trace;
  if (options_.trace != nullptr) {
    // Trace tids: shards take 0..K-1 and the producer K
    // (RegisterObservability), routers K+1..K+R.
    pool.trace_buffers.reserve(pool.routers);
    for (uint32_t r = 0; r < pool.routers; ++r) {
      pool.trace_buffers.push_back(options_.trace->MakeBuffer(
          static_cast<int>(num_shards() + 1 + r),
          "router-" + std::to_string(r)));
    }
  }
  router_ = std::make_unique<RouterPool>(pool);
}

void ShardedEngine::ApplyPinning() {
  if (cpu_plan_.empty()) return;
  for (const auto& shard : shards_) {
    if (!shard->pin_status().ok()) {
      DisablePinning(shard->pin_status().ToString());
      return;
    }
  }
  if (router_ != nullptr) {
    for (uint32_t r = 0; r < router_->num_routers(); ++r) {
      const int cpu = cpu_plan_[num_shards() + r];
      if (Status st = router_->PinRouterTo(r, cpu); !st.ok()) {
        DisablePinning(st.ToString());
        return;
      }
    }
  }
}

void ShardedEngine::DisablePinning(const std::string& why) {
  cpu_plan_.clear();
  if (!pin_warning_.empty()) return;  // warn once
  pin_warning_ = why;
  std::fprintf(stderr, "warning: %s (running unpinned)\n", why.c_str());
}

ShardedEngine::~ShardedEngine() { Finish(); }

uint32_t ShardedEngine::ShardOfEdge(const Edge& e, uint32_t num_shards) {
  // The route lives in EdgeRouter (engine/router.h) so the router threads
  // and the serial producer share one definition and cannot drift.
  return EdgeRouter{num_shards}.Route(e);
}

uint32_t ShardedEngine::RouteShard(const Edge& e) const {
  return EdgeRouter{num_shards(), options_.shard_skew}.Route(e);
}

void ShardedEngine::RefillPending(uint32_t s) {
  // Reuse a buffer the worker handed back instead of allocating per
  // batch; recycled buffers keep their capacity.
  if (shards_[s]->TryRecycle(&pending_[s])) {
    pending_[s].clear();
  } else {
    pending_[s] = EdgeBatch();
  }
  pending_[s].reserve(options_.batch_size);
}

void ShardedEngine::RouteOne(const Edge& e) {
  const uint32_t s = RouteShard(e);
  EdgeBatch& batch = pending_[s];
  batch.push_back(e);
  if (batch.size() >= options_.batch_size) SubmitPending(s);
}

void ShardedEngine::SubmitPending(uint32_t s) {
  const uint64_t t0 = ThreadCpuNowNs();
  shards_[s]->Submit(std::move(pending_[s]));
  RefillPending(s);
  producer_submit_ns_ += ThreadCpuNowNs() - t0;
}

void ShardedEngine::Process(const Edge& e) {
  assert(!finished_);
  // Per-edge arrivals interleaved with outstanding router blocks must see
  // those blocks' edges first (stream order). The check is one relaxed
  // atomic load; pure per-edge feeds never pay more than that.
  if (router_ != nullptr && router_->blocks_outstanding() != 0) {
    FenceRouters();
  }
  ++edges_processed_;
  RouteOne(e);
  if (monitor_every_ != 0 || checkpoint_every_ != 0) FirePeriodicHooks();
}

uint64_t ShardedEngine::DistanceToNextHook() const {
  uint64_t distance = UINT64_MAX;
  if (monitor_every_ != 0) {
    distance = std::min(distance,
                        monitor_every_ - edges_processed_ % monitor_every_);
  }
  if (checkpoint_every_ != 0) {
    distance = std::min(
        distance, checkpoint_every_ - edges_processed_ % checkpoint_every_);
  }
  return distance;
}

void ShardedEngine::ProcessBlock(std::span<const Edge> block) {
  assert(!finished_);
  const bool hooks = monitor_every_ != 0 || checkpoint_every_ != 0;

  if (router_ == nullptr) {
    if (hooks) {
      // Hooks fire at exact stream positions; per-edge Process keeps the
      // cadence (and therefore checkpoints/monitor records) identical to
      // a non-blocked feed of the same stream.
      for (const Edge& e : block) Process(e);
      return;
    }
    // Serial block path: the same RouteOne step as Process, minus the
    // per-edge hook check. Clocked for the routing-stage critical path
    // (ring-full submit waits excluded via the submit clock).
    const uint64_t t0 = ThreadCpuNowNs();
    const uint64_t submit0 = producer_submit_ns_;
    for (const Edge& e : block) {
      ++edges_processed_;
      RouteOne(e);
    }
    producer_route_ns_ +=
        (ThreadCpuNowNs() - t0) - (producer_submit_ns_ - submit0);
    return;
  }

  // Router path: hand the block (split at hook positions, so the cadence
  // stays exact) to the pool; sequence whatever has completed. The
  // producer only BLOCKS on the pool when its in-flight cap pushes back.
  size_t offset = 0;
  RoutedBlock routed;
  while (offset < block.size()) {
    size_t take = block.size() - offset;
    if (hooks) {
      take = static_cast<size_t>(std::min<uint64_t>(take,
                                                    DistanceToNextHook()));
    }
    const std::span<const Edge> slice = block.subspan(offset, take);
    while (!router_->TrySubmitBlock(slice)) {
      router_->PopSequenced(&routed);
      SequenceRoutedBlock(routed);
    }
    edges_processed_ += take;
    offset += take;
    while (router_->TryPopSequenced(&routed)) SequenceRoutedBlock(routed);
    // The hook position was ingested in full just now; the hook's own
    // Drain (via Flush) fences the remaining in-flight blocks, so the
    // estimates/checkpoint see exactly the edges up to this position.
    if (hooks) FirePeriodicHooks();
  }
}

void ShardedEngine::ProcessEdges(std::span<const Edge> edges) {
  if (router_ == nullptr) {
    ProcessBlock(edges);
    return;
  }
  // Slice a flat (text-parsed) edge vector into router-block-sized spans
  // so it scatters across the pool exactly like a GPS-STREAM file.
  for (size_t offset = 0; offset < edges.size();
       offset += kRouterSliceEdges) {
    ProcessBlock(edges.subspan(
        offset, std::min(kRouterSliceEdges, edges.size() - offset)));
  }
}

void ShardedEngine::SequenceRoutedBlock(RoutedBlock& routed) {
  const uint64_t t0 = ThreadCpuNowNs();
  const uint64_t submit0 = producer_submit_ns_;
  TraceSpan span(options_.trace, producer_trace_buf_, "sequence");
  span.SetArg("block", static_cast<int64_t>(routed.index));
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const EdgeBatch& sub = routed.per_shard[s];
    size_t offset = 0;
    while (offset < sub.size()) {
      EdgeBatch& batch = pending_[s];
      // Split at exactly batch_size — the serial loop's batch boundaries,
      // which in steal mode define the RNG substreams. Bulk appends on
      // the SoA columns: cheaper per edge than the serial hash+push, so
      // sequencing is NOT just the routing work moved back to one thread.
      const size_t take = std::min(options_.batch_size - batch.size(),
                                   sub.size() - offset);
      const auto from = static_cast<ptrdiff_t>(offset);
      const auto to = static_cast<ptrdiff_t>(offset + take);
      batch.u.insert(batch.u.end(), sub.u.begin() + from, sub.u.begin() + to);
      batch.v.insert(batch.v.end(), sub.v.begin() + from, sub.v.begin() + to);
      offset += take;
      if (batch.size() >= options_.batch_size) SubmitPending(s);
    }
  }
  producer_route_ns_ +=
      (ThreadCpuNowNs() - t0) - (producer_submit_ns_ - submit0);
  router_->RecycleShell(std::move(routed));
}

void ShardedEngine::FenceRouters() {
  if (router_ == nullptr) return;
  RoutedBlock routed;
  while (router_->blocks_outstanding() != 0) {
    router_->PopSequenced(&routed);
    SequenceRoutedBlock(routed);
  }
}

void ShardedEngine::Flush() {
  FenceRouters();
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (pending_[s].empty()) continue;
    shards_[s]->Submit(std::move(pending_[s]));
    RefillPending(s);
  }
}

void ShardedEngine::Drain() {
  Flush();
  for (auto& shard : shards_) shard->WaitDrained();
}

void ShardedEngine::Finish() {
  if (finished_) return;
  Flush();
  if (router_ != nullptr) router_->Close();
  for (auto& shard : shards_) shard->Join();
  finished_ = true;
  union_.reset();
}

std::vector<const GpsReservoir*> ShardedEngine::CollectReservoirs() const {
  std::vector<const GpsReservoir*> reservoirs;
  reservoirs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    reservoirs.push_back(&shard->reservoir());
  }
  return reservoirs;
}

std::vector<ShardSampleRef> ShardedEngine::CollectSampleRefs() const {
  std::vector<ShardSampleRef> refs;
  refs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    refs.push_back({&shard->reservoir(), shard->slot_strata()});
  }
  return refs;
}

uint64_t ShardedEngine::StealsPerformed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->steals_performed();
  return total;
}

double ShardedEngine::MaxWorkerBusySeconds() const {
  double max_busy = 0.0;
  for (const auto& shard : shards_) {
    max_busy = std::max(max_busy, shard->busy_seconds());
  }
  return max_busy;
}

double ShardedEngine::MaxRouterBusySeconds() const {
  if (router_ == nullptr) return 0.0;
  double max_busy = 0.0;
  for (uint32_t r = 0; r < router_->num_routers(); ++r) {
    max_busy = std::max(max_busy, router_->router_busy_seconds(r));
  }
  return max_busy;
}

void ShardedEngine::RegisterObservability() {
  const uint32_t k = num_shards();
  shard_sample_size_.resize(k);
  for (uint32_t s = 0; s < k; ++s) {
    // Per-shard instances share one registry name; Snapshot() sums
    // counters/histograms and maxes gauges across shards.
    const ShardWorker& shard = *shards_[s];
    const RingMetrics& ring = shard.ring_metrics();
    metrics_.AddCounter("ring.push_fail", &ring.push_fail);
    metrics_.AddCounter("ring.pop_empty", &ring.pop_empty);
    metrics_.AddGauge("ring.occupancy_hwm", &ring.occupancy_hwm);
    const WorkerMetrics& worker = shard.worker_metrics();
    metrics_.AddCounter("worker.batches_processed",
                        &worker.batches_processed);
    metrics_.AddCounter("worker.batches_stolen", &worker.batches_stolen);
    metrics_.AddCounter("worker.batches_rebound", &worker.batches_rebound);
    metrics_.AddHistogram("worker.batch_latency", &worker.batch_latency);
    const ReservoirMetrics& res = shard.reservoir().metrics();
    metrics_.AddCounter("reservoir.precheck_rejects", &res.precheck_rejects);
    metrics_.AddCounter("reservoir.admissions", &res.admissions);
    metrics_.AddCounter("reservoir.evictions", &res.evictions);
    const IntersectMetrics* im = shard.reservoir().graph().intersect_metrics();
    metrics_.AddCounter("intersect.merge", &im->merge_calls);
    metrics_.AddCounter("intersect.gallop", &im->gallop_calls);
    metrics_.AddCounter("intersect.simd", &im->simd_calls);
    metrics_.AddGauge("merge.sample_size.shard" + std::to_string(s),
                      &shard_sample_size_[s]);
  }
  metrics_.AddGauge("engine.edges_ingested", &derived_.edges_ingested);
  metrics_.AddGauge("reservoir.zstar", &derived_.zstar_max);
  metrics_.AddGauge("reservoir.sample_size", &derived_.sample_size_total);
  metrics_.AddGauge("merge.union_sample_size", &derived_.union_sample_size);
  metrics_.AddGauge("merge.union_reindexed", &derived_.union_reindexed);
  metrics_.AddGauge("merge.threads", &merge_threads_);
  metrics_.AddHistogram("merge.cross_latency", &merge_cross_latency_);
  metrics_.AddGauge("worker.busy_seconds", &derived_.busy_seconds_max);
  metrics_.AddGauge("worker.idle_seconds", &derived_.idle_seconds_max);
  metrics_.AddGauge("store.arena_bytes", &derived_.arena_bytes_total);
  metrics_.AddGauge("store.load_factor", &derived_.load_factor_max);
  metrics_.AddGauge("store.probe_len_p99", &derived_.probe_len_p99);
  metrics_.AddGauge("intersect.comparisons_saved",
                    &derived_.intersect_comparisons_saved);

  if (router_ != nullptr) {
    for (uint32_t r = 0; r < router_->num_routers(); ++r) {
      const RouterMetrics& rm = router_->router_metrics(r);
      metrics_.AddCounter("router.blocks_routed", &rm.blocks_routed);
      metrics_.AddHistogram("router.block_latency", &rm.block_latency);
    }
    metrics_.AddCounter("router.sequencer_stalls",
                        &router_->sequencer_stalls());
    metrics_.AddGauge("router.busy_seconds",
                      &derived_.router_busy_seconds_max);
    metrics_.AddGauge("engine.producer_route_seconds",
                      &derived_.producer_route_seconds);
  }

  if (options_.trace != nullptr) {
    for (uint32_t s = 0; s < k; ++s) {
      shards_[s]->SetTrace(
          options_.trace,
          options_.trace->MakeBuffer(static_cast<int>(s),
                                     "shard-" + std::to_string(s)));
    }
    producer_trace_buf_ = options_.trace->MakeBuffer(static_cast<int>(k),
                                                     "producer");
  }
}

void ShardedEngine::RefreshDerivedGauges() {
  if (!MetricsEnabled()) return;
  derived_.edges_ingested.Set(static_cast<double>(edges_processed_));
  double zstar_max = 0.0, busy_max = 0.0, idle_max = 0.0;
  double sample_total = 0.0;
  double arena_total = 0.0, load_factor_max = 0.0, probe_p99_max = 0.0;
  double comparisons_saved = 0.0;
  std::vector<size_t> probes;  // reused across shards
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const GpsReservoir& res = shards_[s]->reservoir();
    zstar_max = std::max(zstar_max, res.threshold());
    sample_total += static_cast<double>(res.size());
    shard_sample_size_[s].Set(static_cast<double>(res.size()));
    busy_max = std::max(busy_max, shards_[s]->busy_seconds());
    idle_max = std::max(idle_max, shards_[s]->idle_seconds());
    // Packed-store memory introspection: snapshot-time only (drained
    // state required), never a hot-path instrument.
    const SampledGraph& graph = res.graph();
    arena_total += static_cast<double>(graph.arena_bytes());
    load_factor_max = std::max(load_factor_max, graph.node_load_factor());
    comparisons_saved +=
        static_cast<double>(graph.intersect_metrics()->comparisons_saved.Value());
    probes.clear();
    graph.ForEachNodeProbeLength([&](size_t len) { probes.push_back(len); });
    if (!probes.empty()) {
      const size_t rank = (probes.size() * 99) / 100;
      std::nth_element(probes.begin(), probes.begin() + rank, probes.end());
      probe_p99_max =
          std::max(probe_p99_max, static_cast<double>(probes[rank]));
    }
  }
  derived_.zstar_max.Set(zstar_max);
  derived_.sample_size_total.Set(sample_total);
  derived_.busy_seconds_max.Set(busy_max);
  derived_.idle_seconds_max.Set(idle_max);
  derived_.arena_bytes_total.Set(arena_total);
  derived_.load_factor_max.Set(load_factor_max);
  derived_.probe_len_p99.Set(probe_p99_max);
  derived_.intersect_comparisons_saved.Set(comparisons_saved);
  if (router_ != nullptr) {
    derived_.router_busy_seconds_max.Set(MaxRouterBusySeconds());
    derived_.producer_route_seconds.Set(ProducerRouteSeconds());
  }
}

MetricsSnapshot ShardedEngine::SnapshotMetrics() {
  if (!finished_) Drain();
  RefreshDerivedGauges();
  return metrics_.Snapshot();
}

GraphEstimates ShardedEngine::MergedGraphEstimatesOver(
    const UnionSample& sample) {
  derived_.union_sample_size.Set(static_cast<double>(sample.num_edges()));
  std::vector<GraphEstimates> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->InStreamEstimates());
  }
  GraphEstimates cross;
  {
    TraceSpan span(options_.trace, producer_trace_buf_, "merge.cross");
    span.SetArg("edges", static_cast<int64_t>(sample.num_edges()));
    ScopedLatencyTimer timer(&merge_cross_latency_);
    merge_threads_.Set(
        static_cast<double>(UnionPassThreads(sample.num_edges())));
    cross = EstimateCrossShard(sample);
  }
  return AddEstimates(SumShardEstimates(per_shard), cross);
}

const UnionSample& ShardedEngine::BuildUnion() {
  TraceSpan span(options_.trace, producer_trace_buf_, "merge.union_build");
  if (union_ == nullptr) union_ = std::make_unique<UnionSample>();
  RefreshUnionSample(std::span<const ShardSampleRef>(CollectSampleRefs()),
                     union_.get());
  const size_t reindexed = union_->last_reindexed();
  span.SetArg("reindexed", static_cast<int64_t>(reindexed));
  derived_.union_reindexed.Set(static_cast<double>(reindexed));
  return *union_;
}

void ShardedEngine::ReleaseUnionIfFinished() {
  if (finished_) union_.reset();
}

std::vector<MotifEstimate> ShardedEngine::MergedMotifEstimatesOver(
    const UnionSample& sample) {
  if (options_.motifs.empty()) return {};
  std::vector<std::vector<MotifAccumulator>> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const MotifSuite& suite = shard->motif_suite();
    std::vector<MotifAccumulator> accs;
    accs.reserve(suite.size());
    for (size_t m = 0; m < suite.size(); ++m) {
      accs.push_back(suite.accumulator(m));
    }
    per_shard.push_back(std::move(accs));
  }
  return MakeMotifEstimates(
      options_.motifs, SumShardMotifAccumulators(per_shard),
      EstimateCrossShardMotifs(sample, options_.motifs));
}

GraphEstimates ShardedEngine::MergedEstimates() {
  if (!finished_) Drain();
  GraphEstimates merged;
  if (options_.merge_mode == MergeMode::kInStreamPlusCross) {
    merged = MergedGraphEstimatesOver(BuildUnion());
  } else if (num_shards() >= 2) {
    merged = EstimateMergedPostStream(BuildUnion());
  } else {
    // One shard keeps no union index; its post-stream pass runs over the
    // reservoir itself.
    merged = EstimateMergedPostStream(CollectReservoirs());
  }
  ReleaseUnionIfFinished();
  return merged;
}

std::vector<MotifEstimate> ShardedEngine::MergedMotifEstimates() {
  // Post-stream shards run no suites (guarded by the constructor assert;
  // double-checked here so a release build degrades to "no motifs"
  // instead of indexing mismatched suite vectors).
  if (options_.motifs.empty() ||
      options_.merge_mode != MergeMode::kInStreamPlusCross) {
    return {};
  }
  if (!finished_) Drain();
  std::vector<MotifEstimate> merged = MergedMotifEstimatesOver(BuildUnion());
  ReleaseUnionIfFinished();
  return merged;
}

double ShardedEngine::MergedEdgeCountEstimate() {
  if (!finished_) Drain();
  return EstimateMergedEdgeCount(CollectReservoirs());
}

double ShardedEngine::MergedDegreeEstimate(NodeId v) {
  if (!finished_) Drain();
  return EstimateMergedDegree(CollectReservoirs(), v);
}

Status ShardedEngine::SerializeShards(const std::string& dir) {
  if (options_.merge_mode != MergeMode::kInStreamPlusCross) {
    return Status::FailedPrecondition(
        "sharded checkpoints require in-stream shard estimators");
  }
  // Skewed routing is a bench/stress knob, and the manifest does not
  // carry it: a resumed engine would silently fall back to the uniform
  // hash and route the continued stream to DIFFERENT shards, breaking
  // the resume byte-identity contract. Refuse rather than corrupt.
  if (options_.shard_skew > 0.0) {
    return Status::FailedPrecondition(
        "sharded checkpoints require the uniform edge-hash partition "
        "(shard_skew is a benchmark knob and is not recorded in "
        "manifests)");
  }
  ShardManifest manifest;
  manifest.num_shards = num_shards();
  manifest.base_seed = options_.sampler.seed;
  manifest.total_capacity = options_.sampler.capacity;
  manifest.split_capacity = options_.split_capacity;
  manifest.stream_offset = edges_processed_;
  manifest.mem_budget_bytes = options_.sampler.mem_bytes;
  manifest.weight = options_.sampler.weight;
  manifest.motif_names = options_.motifs;
  // Reject un-serializable layouts (capacity out of range, custom weight)
  // BEFORE overwriting anything: a failed re-checkpoint must not destroy
  // a previous valid checkpoint in the same directory.
  if (Status st = ValidateManifest(manifest); !st.ok()) return st;

  TraceSpan span(options_.trace, producer_trace_buf_, "checkpoint");
  span.SetArg("edges", static_cast<int64_t>(edges_processed_));

  if (!finished_) Drain();

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " + dir +
                           ": " + ec.message());
  }

  // Stage every file under a temporary name and rename only once every
  // payload has been written and closed without a stream error: a write
  // failure the stream reports (disk full, I/O error) mid-checkpoint must
  // leave the previous checkpoint in `dir` intact — the periodic
  // auto-checkpoint path rewrites the same directory, so a destroyed
  // checkpoint means a destroyed resume point. Nothing is fsynced (files
  // or directory): the staged bytes may still be only in the page cache
  // when the renames publish them, so a power loss can leave published
  // files short or missing. (A crash inside the final rename sequence can
  // also mix generations; the per-file digests make both cases
  // detectable — resume refuses — rather than silent.)
  struct StagedFile {
    std::filesystem::path tmp;
    std::filesystem::path final;
  };
  std::vector<StagedFile> staged;
  auto discard_staged = [&staged] {
    for (const StagedFile& f : staged) {
      std::error_code ignored;
      std::filesystem::remove(f.tmp, ignored);
    }
  };
  auto stage = [&](const std::string& name,
                   const std::string& bytes) -> Status {
    const std::filesystem::path final_path =
        std::filesystem::path(dir) / name;
    const std::filesystem::path tmp_path =
        std::filesystem::path(dir) / (name + ".tmp");
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp_path, ignored);
      return Status::IoError("cannot write checkpoint file " +
                             tmp_path.string());
    }
    staged.push_back({tmp_path, final_path});
    return Status::Ok();
  };

  for (uint32_t s = 0; s < num_shards(); ++s) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%04u.gps", s);
    // Serialize into memory first so the digest covers the exact bytes
    // that land on disk.
    std::ostringstream payload;
    if (Status st = SerializeInStreamEstimator(
            shards_[s]->in_stream_estimator(), payload);
        !st.ok()) {
      discard_staged();
      return st;
    }
    const std::string bytes = std::move(payload).str();
    if (Status st = stage(name, bytes); !st.ok()) {
      discard_staged();
      return st;
    }
    ShardManifestEntry entry;
    entry.shard_index = s;
    entry.shard_seed = shards_[s]->reservoir().options().seed;
    entry.edges_processed = shards_[s]->reservoir().edges_processed();
    entry.digest = ChecksumBytes(bytes);
    entry.filename = name;
    const MotifSuite& suite = shards_[s]->motif_suite();
    entry.motif_accumulators.reserve(suite.size());
    for (size_t m = 0; m < suite.size(); ++m) {
      entry.motif_accumulators.push_back(suite.accumulator(m));
    }
    manifest.entries.push_back(std::move(entry));
  }

  std::ostringstream manifest_payload;
  if (Status st = SerializeManifest(manifest, manifest_payload); !st.ok()) {
    discard_staged();
    return st;
  }
  if (Status st = stage(kShardManifestFilename, manifest_payload.str());
      !st.ok()) {
    discard_staged();
    return st;
  }

  // Everything is staged; publish. Shard files first, manifest last, so
  // an interrupted publish leaves at worst a digest-detectable mix.
  for (const StagedFile& f : staged) {
    std::error_code ec;
    std::filesystem::rename(f.tmp, f.final, ec);
    if (ec) {
      discard_staged();
      return Status::IoError("cannot publish checkpoint file " +
                             f.final.string() + ": " + ec.message());
    }
  }
  return Status::Ok();
}

Result<GraphEstimates> ShardedEngine::MergeFromCheckpoints(
    std::span<const std::string> manifest_paths) {
  Result<CheckpointMergeResult> merged =
      MergeFromCheckpointsDetailed(manifest_paths);
  if (!merged.ok()) return merged.status();
  return merged->graph;
}

Result<CheckpointMergeResult> ShardedEngine::MergeFromCheckpointsDetailed(
    std::span<const std::string> manifest_paths) {
  Result<LoadedCheckpoints> loaded = LoadCheckpoints(manifest_paths);
  if (!loaded.ok()) return loaded.status();

  std::vector<GraphEstimates> per_shard;
  std::vector<const GpsReservoir*> reservoirs;
  per_shard.reserve(loaded->estimators.size());
  reservoirs.reserve(loaded->estimators.size());
  for (const auto& est : loaded->estimators) {
    per_shard.push_back(est->Estimates());
    reservoirs.push_back(&est->reservoir());
  }
  const UnionSample sample = BuildUnionSample(reservoirs);
  CheckpointMergeResult result;
  result.graph = AddEstimates(SumShardEstimates(per_shard),
                              EstimateCrossShard(sample));
  result.motifs = MakeMotifEstimates(
      loaded->layout.motif_names,
      SumShardMotifAccumulators(loaded->motif_accumulators),
      EstimateCrossShardMotifs(sample, loaded->layout.motif_names));
  result.edge_count = EstimateMergedEdgeCount(reservoirs);
  return result;
}

ShardedEngine::ShardedEngine(
    ShardedEngineOptions options,
    std::vector<std::unique_ptr<InStreamEstimator>> restored,
    std::vector<std::vector<MotifAccumulator>> restored_motifs,
    uint64_t stream_offset)
    : options_(std::move(options)), edges_processed_(stream_offset) {
  assert(options_.num_shards == restored.size());
  assert(options_.num_shards == restored_motifs.size());
  assert(options_.batch_size >= 1);
  const uint32_t k = options_.num_shards;

  shards_.reserve(k);
  pending_.resize(k);
  for (uint32_t s = 0; s < k; ++s) {
    // Checkpoints restore sequential shard processing (a manifest does
    // not carry batch-substream state), so the resumed engine runs with
    // the scheduler disabled.
    shards_.push_back(std::make_unique<ShardWorker>(
        s,
        MakeShardOptions(options_, s, ShardEstimatorKind::kInStream,
                         StealMode::kDisabled),
        std::move(restored[s]), restored_motifs[s]));
    pending_[s].reserve(options_.batch_size);
  }
  RegisterObservability();
  for (auto& shard : shards_) shard->Start();
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::ResumeFromCheckpoints(
    std::span<const std::string> manifest_paths,
    const ShardedResumeOptions& resume_options) {
  if (resume_options.batch_size < 1) {
    return Status::InvalidArgument("resume batch size must be >= 1");
  }
  if (resume_options.ring_capacity < 1) {
    return Status::InvalidArgument("resume ring capacity must be >= 1");
  }
  Result<LoadedCheckpoints> loaded = LoadCheckpoints(manifest_paths);
  if (!loaded.ok()) return loaded.status();

  ShardedEngineOptions options;
  options.sampler.capacity = loaded->layout.total_capacity;
  options.sampler.seed = loaded->layout.base_seed;
  options.sampler.weight = loaded->layout.weight;
  options.sampler.mem_bytes = loaded->layout.mem_budget_bytes;
  options.num_shards = loaded->layout.num_shards;
  options.split_capacity = loaded->layout.split_capacity;
  options.batch_size = resume_options.batch_size;
  options.ring_capacity = resume_options.ring_capacity;
  options.merge_mode = MergeMode::kInStreamPlusCross;
  options.motifs = loaded->layout.motif_names;
  options.trace = resume_options.trace;
  return std::unique_ptr<ShardedEngine>(
      new ShardedEngine(std::move(options), std::move(loaded->estimators),
                        std::move(loaded->motif_accumulators),
                        loaded->stream_offset));
}

void ShardedEngine::EstimateEvery(
    uint64_t n_edges, std::function<void(const MonitorRecord&)> callback) {
  monitor_every_ = callback ? n_edges : 0;
  monitor_callback_ = monitor_every_ != 0 ? std::move(callback) : nullptr;
}

Status ShardedEngine::CheckpointEvery(uint64_t n_edges,
                                      const std::string& dir) {
  if (n_edges != 0 && dir.empty()) {
    return Status::InvalidArgument(
        "auto-checkpointing needs a destination directory");
  }
  if (n_edges != 0 &&
      options_.merge_mode != MergeMode::kInStreamPlusCross) {
    return Status::FailedPrecondition(
        "sharded checkpoints require in-stream shard estimators");
  }
  if (n_edges != 0 && options_.shard_skew > 0.0) {
    return Status::FailedPrecondition(
        "sharded checkpoints require the uniform edge-hash partition "
        "(shard_skew is a benchmark knob and is not recorded in "
        "manifests)");
  }
  checkpoint_every_ = n_edges;
  checkpoint_dir_ = dir;
  return Status::Ok();
}

void ShardedEngine::FirePeriodicHooks() {
  if (monitor_every_ != 0 && edges_processed_ % monitor_every_ == 0) {
    TraceSpan span(options_.trace, producer_trace_buf_, "estimate");
    span.SetArg("edges", static_cast<int64_t>(edges_processed_));
    MonitorRecord record;
    record.edges_processed = edges_processed_;
    if (options_.merge_mode == MergeMode::kPostStreamMerged) {
      record.estimates = MergedEstimates();  // drains
    } else {
      // One drain, one refresh of the engine's union index for both
      // passes: it re-indexes only the slots changed since the last tick.
      if (!finished_) Drain();
      const UnionSample& sample = BuildUnion();
      record.estimates = MergedGraphEstimatesOver(sample);
      record.motifs = MergedMotifEstimatesOver(sample);
    }
    // Drained above, so the snapshot is consistent with the estimates.
    RefreshDerivedGauges();
    record.metrics = metrics_.Snapshot();
    monitor_callback_(record);
  }
  if (checkpoint_every_ != 0 && auto_checkpoint_status_.ok() &&
      edges_processed_ % checkpoint_every_ == 0) {
    auto_checkpoint_status_ = SerializeShards(checkpoint_dir_);
  }
}

}  // namespace gps
