// ShardedEngine: parallel GPS ingestion over K hash-partitioned shards
// with merged stratified estimates.
//
// Architecture (core -> engine -> tools layering):
//
//   Process(e)  --hash(EdgeKey)-->  pending batch per shard
//        |                                |  (batch_size edges)
//        |                                v
//        |                     SPSC ring (engine/ring_buffer.h)
//        |                                |
//        v                                v
//   producer thread            K worker threads, one InStreamEstimator
//                              (or GpsSampler) per shard — engine/shard.h
//
//   MergedEstimates() = sum of per-shard in-stream estimates (within-shard
//   stratum) + cross-shard Horvitz-Thompson correction over the union
//   sample (engine/merge.h).
//
// Partitioning is by canonical-edge hash: shard(e) is a deterministic
// function of {u, v}, so re-arrivals of an edge and both "sides" of any
// adjacency land in one shard's substream, and the partition is stable
// across runs and thread schedules.
//
// Determinism contract:
//   * fixed (stream, options) => byte-identical per-shard reservoirs
//     regardless of thread scheduling, batch size, or ring capacity;
//   * num_shards == 1 (split_capacity default) reproduces the serial
//     InStreamEstimator / GpsSampler sample path exactly, byte for byte.
//
// Threading contract: Process/Flush/Drain/Finish/MergedEstimates must all
// be called from one thread (the producer). Estimator state is readable
// only between Drain() (or Finish()) and the next Process().

#ifndef GPS_ENGINE_SHARDED_ENGINE_H_
#define GPS_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/estimates.h"
#include "core/gps.h"
#include "engine/merge.h"
#include "engine/router.h"
#include "engine/shard.h"
#include "graph/types.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace gps {

/// File name SerializeShards gives the manifest inside a checkpoint
/// directory.
inline constexpr const char* kShardManifestFilename = "manifest.gpsm";

/// Block size ProcessEdges slices a flat edge span into for the router
/// pool — matches the GPS-STREAM default block size
/// (kBinaryStreamDefaultBlockEdges), so text and binary ingest exercise
/// the same routing granularity. Traversal only, never sample path.
inline constexpr size_t kRouterSliceEdges = size_t{1} << 16;

struct ShardedEngineOptions {
  /// Base sampler configuration. `capacity` is the TOTAL memory budget
  /// (split across shards unless split_capacity is false); `seed` is the
  /// base seed each shard's seed is derived from (core/seeding.h);
  /// `mem_bytes` is the --mem byte budget the capacity was derived from
  /// (0 for an explicit capacity) — recorded in checkpoint manifests as
  /// capacity provenance, never consulted by the sample path.
  GpsSamplerOptions sampler;
  /// Number of shards K (>= 1).
  uint32_t num_shards = 1;
  /// Edges per hand-off batch; larger batches amortize ring traffic,
  /// smaller ones reduce ingestion-to-sample latency.
  size_t batch_size = 1024;
  /// Per-shard ring capacity in batches.
  size_t ring_capacity = 64;
  /// If true (default), each shard's reservoir gets ceil(capacity / K)
  /// slots so the engine's total memory matches the serial sampler's; if
  /// false every shard gets the full `capacity`.
  bool split_capacity = true;
  /// Estimation strategy; see engine/merge.h.
  MergeMode merge_mode = MergeMode::kInStreamPlusCross;
  /// Motif statistics (core/motifs.h registry names, validated by the
  /// caller) each shard estimates alongside tri/wedge on the same
  /// reservoir sample path; merged via per-motif shard sums plus the
  /// cross-shard union correction (MergedMotifEstimates). Requires
  /// MergeMode::kInStreamPlusCross when non-empty. Estimation consumes no
  /// randomness, so enabling motifs never changes reservoirs or tri/wedge
  /// estimates.
  std::vector<std::string> motifs;
  /// Work-stealing scheduler mode (engine/shard.h). kArmed and kActive
  /// switch shard processing to deterministic batch substreams: every
  /// batch is bound to a counter-based RNG substream derived from (owner
  /// shard, batch index) and processed as an independent mini-estimator,
  /// re-bound to its owner at merge time — so kActive (idle workers steal
  /// pending batches from overloaded peers) produces merged estimates,
  /// motif statistics, and checkpoint manifests BYTE-IDENTICAL to kArmed
  /// (no thief ever fires) on the same substream assignment, regardless
  /// of thread scheduling. Requires MergeMode::kInStreamPlusCross. In
  /// steal mode the batch size is part of the sample path (it defines the
  /// substream boundaries); with num_shards == 1 the scheduler is
  /// bypassed (there are no peers), preserving the serial byte-identity
  /// contract with stealing enabled.
  StealMode steal = StealMode::kDisabled;
  /// Deliberate routing skew for scheduler benchmarks and steal stress
  /// tests: 0 (default) is the production uniform edge-hash partition;
  /// s > 0 biases the hash toward low shard indices (the hash unit
  /// variate is raised to 1+s before the range reduction), overloading
  /// shard 0 so stealing provably has work to move. Still a pure,
  /// deterministic function of the edge. Because manifests do not record
  /// the knob (a resumed run would silently reroute uniformly),
  /// SerializeShards/CheckpointEvery refuse when it is nonzero.
  double shard_skew = 0.0;
  /// Parallel router threads (engine/router.h). 1 (the default) routes
  /// inline on the producer — the classic single-producer path, byte for
  /// byte. R >= 2 builds a RouterPool: ProcessBlock/ProcessEdges hand
  /// whole blocks to R scatter threads and the producer becomes the
  /// deterministic sequencer, reproducing the serial per-shard edge order
  /// AND batch boundaries exactly — so any R is byte-identical to any
  /// other (and composes with the K=1 and steal on==off contracts). Only
  /// the block paths parallelize; per-edge Process stays inline.
  uint32_t router_threads = 1;
  /// Pin shard workers (then router threads) to distinct cores from the
  /// process affinity mask, and prefer same-socket victims in the steal
  /// scan. Graceful no-op with one named stderr warning (pin_warning())
  /// when the affinity syscall is denied — containers routinely do — or
  /// the mask has fewer cores than threads. Placement only: results are
  /// byte-identical pinned or not.
  bool pin_threads = false;
  /// Optional Chrome-trace recorder (util/trace.h). When set, every worker
  /// gets a per-thread span buffer ("batch"/"steal"/"rebind" spans) and
  /// the producer thread records "estimate", "checkpoint",
  /// "merge.union_build" and "merge.cross" spans; the sink must outlive
  /// the engine, and the caller writes the JSON after Finish(). Null
  /// (default) disables tracing entirely. Observation-only: tracing never
  /// changes the sample path.
  TraceEventSink* trace = nullptr;
};

/// Transport knobs a resumed engine cannot recover from a manifest (they
/// do not affect the sample path, only hand-off granularity and ring
/// sizing — see the determinism contract above).
struct ShardedResumeOptions {
  size_t batch_size = 1024;
  size_t ring_capacity = 64;
  /// Optional trace recorder, as ShardedEngineOptions::trace.
  TraceEventSink* trace = nullptr;
};

/// One merged-estimate sample of the continuous-monitoring mode.
struct MonitorRecord {
  /// Stream position the sample was taken at (total edges ingested,
  /// including any checkpointed prefix a resumed engine started from).
  uint64_t edges_processed = 0;
  GraphEstimates estimates;
  /// Merged motif estimates in suite order; empty when the engine runs
  /// without a motif suite.
  std::vector<MotifEstimate> motifs;
  /// Point-in-time engine metrics (ring backpressure, scheduler activity,
  /// sampling internals — util/metrics.h). Empty under GPS_METRICS=0.
  MetricsSnapshot metrics;
};

/// Everything a checkpoint set merges to: the tri/wedge estimates, the
/// configured motif statistics, and the merged edge-count estimate.
struct CheckpointMergeResult {
  GraphEstimates graph;
  std::vector<MotifEstimate> motifs;
  double edge_count = 0.0;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options);
  ~ShardedEngine();  // implies Finish()

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Routes one arriving edge to its shard (batched; the edge is handed
  /// off once the shard's pending batch fills).
  void Process(const Edge& e);

  /// Process() over a whole block of edges — the zero-copy ingest path:
  /// a GPS-STREAM reader's Block() span aliases the file mapping, so the
  /// edges go mapping -> pending batch with no intermediate EdgeList.
  /// Byte-identical to calling Process(e) for each edge in order (same
  /// routing, same batch boundaries, same hook cadence); the block is
  /// only a traversal unit, never part of the sample path. With
  /// router_threads >= 2 the block is scattered by the router pool (split
  /// at hook positions first, so monitor/checkpoint cadence stays exact)
  /// and the span is aliased until the next FenceRouters/Flush/Drain —
  /// callers whose backing storage is going away (an mmap) must fence
  /// first.
  void ProcessBlock(std::span<const Edge> block);

  /// ProcessBlock over an arbitrarily large span, sliced into
  /// router-sized blocks (kRouterSliceEdges) so a text-parsed edge vector
  /// feeds the router pool exactly like a GPS-STREAM file's blocks.
  /// Byte-identical to the per-edge loop, like ProcessBlock.
  void ProcessEdges(std::span<const Edge> edges);

  /// Waits until every block handed to the router pool is scattered and
  /// sequenced into pending batches (no-op without a pool). Afterwards no
  /// submitted span is aliased. Never submits partial batches, so fencing
  /// is invisible to the sample path even in steal mode.
  void FenceRouters();

  /// Pushes all partially filled batches to their shards (fencing the
  /// router pool first).
  void Flush();

  /// Flush + wait until every submitted edge is consumed. Afterwards (and
  /// until the next Process) shard state is safely readable, so streaming
  /// applications can take mid-stream estimates.
  void Drain();

  /// Drain + stop and join all workers. Idempotent; further Process calls
  /// are invalid.
  void Finish();

  /// Merged whole-graph estimates per the configured MergeMode. Drains
  /// first if needed.
  GraphEstimates MergedEstimates();

  /// Merged motif estimates in suite order (empty without a motif suite):
  /// per-motif sums of the shard suites' in-stream accumulators plus the
  /// cross-shard post-stream correction over the union sample
  /// (engine/merge.h). Drains first if needed.
  std::vector<MotifEstimate> MergedMotifEstimates();

  /// Merged unbiased estimate of the number of distinct edges that have
  /// arrived (engine/merge.h EstimateMergedEdgeCount). Drains first if
  /// needed.
  double MergedEdgeCountEstimate();

  /// Merged unbiased estimate of v's degree in the arrived graph. Drains
  /// first if needed.
  double MergedDegreeEstimate(NodeId v);

  /// Drains and serializes every shard's in-stream estimator into `dir`
  /// (created if missing): one GPS-INSTREAM file per shard plus a
  /// GPS-MANIFEST file (kShardManifestFilename) recording the layout,
  /// per-shard seeds, weight configuration, and per-file digests. The
  /// engine stays usable afterwards, so checkpoints can be taken
  /// mid-stream. Requires in-stream shard estimators
  /// (MergeMode::kInStreamPlusCross).
  Status SerializeShards(const std::string& dir);

  /// Reconstructs per-shard estimator state from one or more manifests
  /// written by SerializeShards — possibly on different machines, each
  /// covering a subset of the K shards — and returns the merged estimates
  /// the live engine would produce (SumShardEstimates +
  /// EstimateCrossShard), without re-streaming. All manifests must agree
  /// on K, base seed, capacity, and weight configuration
  /// (FailedPrecondition otherwise); their entries must cover every shard
  /// exactly once, match the core/seeding.h derivation, and every shard
  /// file must match its recorded digest.
  static Result<GraphEstimates> MergeFromCheckpoints(
      std::span<const std::string> manifest_paths);

  /// MergeFromCheckpoints plus the motif statistics and merged edge-count
  /// estimate the manifests carry (GPS-MANIFEST v3; v1/v2 merge to an
  /// empty motif set). The tri/wedge estimates are bit-identical to
  /// MergeFromCheckpoints'.
  static Result<CheckpointMergeResult> MergeFromCheckpointsDetailed(
      std::span<const std::string> manifest_paths);

  /// Rebuilds a RUNNING engine from checkpoint manifests so the stream
  /// can continue where the interrupted run left off: per-shard
  /// reservoirs, snapshot accumulators, and RNG states are restored from
  /// the shard files (exact round trip), workers are started, and
  /// edges_processed() resumes at the manifest's stream offset (version-1
  /// manifests: the sum of per-shard arrival counts). Feeding the suffix
  /// of the original stream yields per-shard reservoirs and merged
  /// estimates byte-identical to an uninterrupted run — the sharded
  /// analog of `gps_cli resume`. Validation rules are those of
  /// MergeFromCheckpoints (layout agreement, exact coverage, digests).
  static Result<std::unique_ptr<ShardedEngine>> ResumeFromCheckpoints(
      std::span<const std::string> manifest_paths,
      const ShardedResumeOptions& resume_options = {});

  /// Continuous-monitoring mode, layered on Drain(): after every
  /// `n_edges` ingested edges (measured at absolute stream positions, so
  /// a resumed engine keeps the cadence of the uninterrupted run),
  /// Process() drains, computes MergedEstimates(), and invokes `callback`
  /// on the producer thread. Monitoring never touches estimator state —
  /// sampling randomness and final results are identical with or without
  /// it; each sample costs one pipeline drain. n_edges == 0 disables.
  void EstimateEvery(uint64_t n_edges,
                     std::function<void(const MonitorRecord&)> callback);

  /// Periodic auto-checkpointing: after every `n_edges` ingested edges
  /// (absolute positions, like EstimateEvery), SerializeShards(dir) —
  /// each checkpoint overwrites the previous one, so `dir` always holds
  /// the latest consistent resume point. Requires in-stream shard
  /// estimators. A checkpoint failure mid-stream is sticky: it disables
  /// further attempts and is reported by auto_checkpoint_status().
  /// n_edges == 0 disables.
  Status CheckpointEvery(uint64_t n_edges, const std::string& dir);

  /// First error an auto-checkpoint hit, or OK.
  const Status& auto_checkpoint_status() const {
    return auto_checkpoint_status_;
  }

  /// Deterministic shard assignment: avalanche hash of the canonical edge
  /// key, reduced to [0, num_shards).
  static uint32_t ShardOfEdge(const Edge& e, uint32_t num_shards);

  /// ShardOfEdge with the engine's configured shard_skew applied (equal to
  /// ShardOfEdge for the default skew 0).
  uint32_t RouteShard(const Edge& e) const;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Total edges routed (submitted + still pending in batches).
  uint64_t edges_processed() const { return edges_processed_; }

  /// The scheduler mode actually in effect (options().steal downgraded to
  /// kDisabled for single-shard or post-stream-merged layouts).
  StealMode effective_steal() const { return effective_steal_; }

  /// Total batches stolen across all workers so far (kActive only;
  /// diagnostics — by the determinism contract the count never affects
  /// results). Caller must hold the Drain()/Finish() guarantee.
  uint64_t StealsPerformed() const;

  /// The scheduler's critical path: the busiest worker's executed-work
  /// seconds (ShardWorker::busy_seconds). On a host with >= K+1 cores
  /// this bounds ingestion wall-clock; stealing shrinks it on any host.
  double MaxWorkerBusySeconds() const;

  /// The busiest router thread's scatter seconds (per-thread CPU time); 0
  /// without a pool. max(this, ProducerRouteSeconds()) is the routing
  /// stage's critical path — the metric the bench's router-scaling gate
  /// falls back to on hosts too small to show the wall-clock win.
  double MaxRouterBusySeconds() const;

  /// Producer CPU seconds spent routing on the BLOCK paths
  /// (ProcessBlock/ProcessEdges): the inline route-and-batch loop with
  /// R=1, the sequencer's in-order sub-batch appends with R>=2. Ring-full
  /// submit waits are excluded (downstream backpressure, not routing
  /// work); the per-edge Process path is not clocked.
  double ProducerRouteSeconds() const {
    return static_cast<double>(producer_route_ns_) * 1e-9;
  }

  /// Router threads actually running (0 when routing is inline).
  uint32_t active_routers() const {
    return router_ ? router_->num_routers() : 0;
  }

  /// Why core pinning was disabled (named reason), or empty when pinning
  /// is off or fully applied. Mirrors the one-shot stderr warning.
  const std::string& pin_warning() const { return pin_warning_; }

  /// Aggregated engine metrics: per-shard ring/worker/reservoir counters
  /// plus derived gauges (z* max, sample sizes, busy/idle seconds).
  /// Drains first if needed, so the snapshot is consistent with every
  /// edge ingested so far. Empty under GPS_METRICS=0.
  ///
  /// A mid-stream call therefore flushes the pending partial batches,
  /// exactly like the monitor/checkpoint hooks: invisible in sequential
  /// mode (batch boundaries don't enter the sample path), and in steal
  /// modes part of the run's batch partition — kArmed and kActive remain
  /// byte-identical under the same snapshot points.
  MetricsSnapshot SnapshotMetrics();

  /// Per-shard worker access (reservoirs, in-stream estimates). Caller
  /// must hold the Drain()/Finish() guarantee.
  const ShardWorker& shard(uint32_t i) const { return *shards_[i]; }

  const ShardedEngineOptions& options() const { return options_; }

 private:
  /// Resume construction: wraps checkpoint-restored estimators (one per
  /// shard, indexed 0..K-1) with their motif accumulators (one vector per
  /// shard, matching options.motifs) and starts the workers.
  ShardedEngine(ShardedEngineOptions options,
                std::vector<std::unique_ptr<InStreamEstimator>> restored,
                std::vector<std::vector<MotifAccumulator>> restored_motifs,
                uint64_t stream_offset);

  /// Fires monitoring / auto-checkpoint hooks due at the current stream
  /// position (called from Process after the edge is routed).
  void FirePeriodicHooks();

  /// Registers every shard's metric instances with the registry and
  /// attaches trace buffers (both ctors call it once shards_ is built).
  void RegisterObservability();

  /// Refreshes the engine-owned derived gauges from drained shard state
  /// (called under the drained guarantee, before metrics_.Snapshot()).
  void RefreshDerivedGauges();

  /// Per-shard reservoir pointers; caller must hold the drained/finished
  /// guarantee.
  std::vector<const GpsReservoir*> CollectReservoirs() const;

  /// Per-shard union-sample inputs (reservoir + batch sub-strata in steal
  /// mode); caller must hold the drained/finished guarantee.
  std::vector<ShardSampleRef> CollectSampleRefs() const;

  /// Hands the shard a fresh (recycled when possible) pending buffer.
  void RefillPending(uint32_t s);

  /// The ONE route-and-batch step shared by Process and the serial
  /// ProcessBlock loop: route the edge, append to its shard's pending
  /// batch, hand off at batch_size. Inlined; any drift between the two
  /// callers would break the block-path byte-identity contract.
  void RouteOne(const Edge& e);

  /// Submits shard s's full pending batch and refills it, charging the
  /// (possibly ring-full-blocked) hand-off to the submit clock so
  /// producer_route_ns_ measures routing, not worker backpressure.
  void SubmitPending(uint32_t s);

  /// Builds the router pool (and its trace buffers) when router_threads
  /// >= 2. Fresh constructor only; resumed engines run the serial
  /// producer.
  void SetupRouters();

  /// Checks the worker pins and pins the router threads per cpu_plan_;
  /// the first failure disables pinning with its named reason.
  void ApplyPinning();

  /// Sequences one routed block: appends each shard's sub-batch to its
  /// pending batch in block order, splitting at exactly batch_size — the
  /// serial loop's boundaries, bit for bit.
  void SequenceRoutedBlock(RoutedBlock& block);

  /// Edges until the next armed monitor/checkpoint position fires
  /// (>= 1); unbounded when no hook is armed.
  uint64_t DistanceToNextHook() const;

  /// Records the named reason pinning was disabled and warns once on
  /// stderr.
  void DisablePinning(const std::string& why);

  /// In-stream-mode merged estimates over a prebuilt union sample, so a
  /// monitoring tick builds the O(sample) union index once for the
  /// tri/wedge AND motif passes. Drained state required.
  GraphEstimates MergedGraphEstimatesOver(const UnionSample& sample);
  std::vector<MotifEstimate> MergedMotifEstimatesOver(
      const UnionSample& sample);
  /// BuildUnionSample over the drained shards, in a "merge.union_build"
  /// producer trace span.
  UnionSample BuildUnion();

  ShardedEngineOptions options_;
  StealMode effective_steal_ = StealMode::kDisabled;
  std::vector<std::unique_ptr<ShardWorker>> shards_;
  std::vector<EdgeBatch> pending_;
  /// Null when router_threads <= 1 (inline routing).
  std::unique_ptr<RouterPool> router_;
  /// CPU assignment when pinning is active: workers 0..K-1, then routers
  /// (util/affinity.h AvailableCpus order). Empty when pinning is off or
  /// was disabled.
  std::vector<int> cpu_plan_;
  std::string pin_warning_;
  uint64_t producer_route_ns_ = 0;   // block-path routing CPU time
  uint64_t producer_submit_ns_ = 0;  // hand-off (incl. ring-full waits)
  uint64_t edges_processed_ = 0;
  bool finished_ = false;

  uint64_t monitor_every_ = 0;
  std::function<void(const MonitorRecord&)> monitor_callback_;
  uint64_t checkpoint_every_ = 0;
  std::string checkpoint_dir_;
  Status auto_checkpoint_status_;

  // ---- Observability (observation-only; see util/metrics.h) ----------
  MetricsRegistry metrics_;
  /// Engine-owned gauges derived from drained shard state at snapshot
  /// time (not hot-path instruments).
  struct DerivedGauges {
    Gauge edges_ingested;      // engine.edges_ingested
    Gauge zstar_max;           // reservoir.zstar (max across shards)
    Gauge sample_size_total;   // reservoir.sample_size (sum across shards)
    Gauge union_sample_size;   // merge.union_sample_size (last merge pass)
    Gauge busy_seconds_max;    // worker.busy_seconds (max across workers)
    Gauge idle_seconds_max;    // worker.idle_seconds (max across workers)
    Gauge arena_bytes_total;   // store.arena_bytes (sum across shards)
    Gauge load_factor_max;     // store.load_factor (max across shards)
    Gauge probe_len_p99;       // store.probe_len_p99 (max across shards)
    Gauge router_busy_seconds_max;  // router.busy_seconds (max, pool only)
    Gauge producer_route_seconds;   // engine.producer_route_seconds
    /// intersect.comparisons_saved: scalar-merge comparisons avoided by
    /// adaptive kernel selection, summed across shards.
    Gauge intersect_comparisons_saved;
  };
  DerivedGauges derived_;
  /// merge.cross_latency: wall time of each cross-shard pass.
  LatencyHistogram merge_cross_latency_;
  /// merge.threads: threads the last cross-shard pass ran on.
  Gauge merge_threads_;
  /// Per-stratum (per-shard) sample sizes: merge.sample_size.shard<k>.
  std::vector<Gauge> shard_sample_size_;
  TraceBuffer* producer_trace_buf_ = nullptr;  // producer-thread spans
};

}  // namespace gps

#endif  // GPS_ENGINE_SHARDED_ENGINE_H_
