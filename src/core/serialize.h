// Checkpoint serialization for samplers and estimators.
//
// Stream processors run for days; operators need to stop, upgrade, and
// resume without discarding the accumulated sample. These routines persist
// the complete sampler state — reservoir contents (edges, weights,
// priorities, in-stream covariance accumulators), threshold z*, arrival
// count, RNG state, weight-function configuration and (for in-stream
// estimation) the snapshot accumulators — such that a resumed run is
// bit-identical to an uninterrupted one.
//
// Format: versioned line-oriented text with round-trip-exact doubles
// (the characters of printf "%.17g", produced by std::to_chars). Custom weight callables cannot be serialized; samplers
// configured with WeightKind::kCustom return FailedPrecondition.
//
// Checkpoints are untrusted input (they cross machines in the distributed
// merge pipeline): every deserializer validates structural invariants —
// finite, correctly signed numeric fields, priority/threshold consistency,
// canonical edges, and a capacity ceiling — before allocating or
// reconstructing state.
//
// Multi-shard runs are described by a GPS-MANIFEST file (ShardManifest):
// the shard layout (K, base seed, capacity split, weight configuration)
// plus one entry per shard file with its derived seed and content digest.
// A manifest may cover a subset of the K shards; a coordinator merges a
// set of manifests whose layouts agree and whose entries cover every
// shard exactly once (src/engine/sharded_engine.h).
//
// Manifest versioning: version 2 added `stream_offset` (the number of
// stream edges the writing engine had ingested) so an interrupted sharded
// run can be RESUMED, not just merged. Version 3 added the motif-statistic
// set: a line naming the run's configured motifs (core/motifs.h registry
// keys) and, per shard entry, one serialized MotifAccumulator per motif,
// so multi-motif runs checkpoint/merge/resume like the tri/wedge set.
// Version 4 added capacity provenance: the --mem byte budget the run's
// total capacity was derived from (0 for an explicit --capacity), cross-
// checked against the recorded capacity at read so a corrupt or
// hand-edited manifest cannot silently resume with a different memory
// envelope than the one the operator budgeted. Writers emit version 4;
// readers accept versions 1-3 (empty motif set before v3; stream_offset
// reported as 0 for v1 — resume then derives the offset from the
// per-entry arrival counts; budget provenance 0 before v4). Unknown
// motif names are refused BY NAME at read. The per-shard RNG state
// itself lives in the GPS-INSTREAM shard files, which already
// round-trip it exactly.

#ifndef GPS_CORE_SERIALIZE_H_
#define GPS_CORE_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/gps.h"
#include "core/in_stream.h"
#include "core/reservoir.h"
#include "core/snapshot.h"
#include "util/status.h"

namespace gps {

/// Ceiling on the reservoir capacity a checkpoint may declare; bounds the
/// deserializer's record allocation against corrupt headers (2^28 records
/// ≈ 10 GiB). Raise deliberately if a deployment legitimately needs more.
inline constexpr size_t kMaxCheckpointCapacity = size_t{1} << 28;

/// Ceiling on a manifest's shard count K (matches gps_cli --shards).
inline constexpr uint32_t kMaxManifestShards = 4096;

/// The GPS-MANIFEST version this build writes (see the versioning note
/// above). Exposed for compat triage (`gps_cli version`).
int ManifestFormatVersion();
/// The oldest GPS-MANIFEST version this build still reads.
int ManifestMinReadVersion();
/// The single-estimator (GPS-RESERVOIR/-SAMPLER/-INSTREAM) format version.
int EstimatorFormatVersion();

/// FNV-1a 64-bit digest of a byte string; binds manifest entries to the
/// exact shard-file bytes they were written with.
uint64_t ChecksumBytes(std::string_view bytes);

/// One shard file referenced by a multi-shard manifest.
struct ShardManifestEntry {
  uint32_t shard_index = 0;
  /// The shard's derived RNG seed (core/seeding.h), recorded so merges can
  /// cross-check layout compatibility.
  uint64_t shard_seed = 0;
  /// Arrivals the shard had processed when checkpointed (diagnostic).
  uint64_t edges_processed = 0;
  /// ChecksumBytes of the shard file's contents.
  uint64_t digest = 0;
  /// Bare file name (no directory separators or whitespace), resolved
  /// relative to the directory holding the manifest.
  std::string filename;
  /// Motif-statistic accumulators at checkpoint time, one per entry of
  /// the manifest's `motif_names` (same order). Empty for version <= 2
  /// manifests and runs without a motif suite.
  std::vector<MotifAccumulator> motif_accumulators;
};

/// Versioned multi-shard checkpoint manifest (GPS-MANIFEST header).
struct ShardManifest {
  /// Shard count K of the run's layout.
  uint32_t num_shards = 1;
  /// Base seed the per-shard seeds were derived from.
  uint64_t base_seed = 1;
  /// TOTAL reservoir capacity across shards (pre-split).
  size_t total_capacity = 0;
  /// True if per-shard capacity is ceil(total / K) (the engine default);
  /// false if every shard received the full total.
  bool split_capacity = true;
  /// Stream edges the writing engine had ingested when the checkpoint was
  /// taken (version >= 2). 0 for version-1 manifests, where resume falls
  /// back to the sum of the entries' arrival counts (equal for a fully
  /// covered layout: every routed edge is consumed by exactly one shard).
  uint64_t stream_offset = 0;
  /// Capacity provenance (version >= 4): the --mem byte budget
  /// total_capacity was derived from, or 0 when the operator passed an
  /// explicit --capacity. When non-zero, validation cross-checks that
  /// DeriveStoreLayout(mem_budget_bytes).capacity == total_capacity.
  uint64_t mem_budget_bytes = 0;
  /// Weight configuration shared by all shards; kind != kCustom.
  WeightOptions weight;
  /// Motif-statistic set the run was configured with (core/motifs.h
  /// registry names, suite order). Version >= 3; empty before that and
  /// for runs without a motif suite. Unknown names are refused by name.
  std::vector<std::string> motif_names;
  /// Shard files this manifest covers — possibly a subset of the K shards
  /// when a host ran only part of the layout.
  std::vector<ShardManifestEntry> entries;
};

/// Validates manifest invariants: shard count and capacity within their
/// ceilings, finite serializable weight configuration, entry indices
/// unique and in range, bare filenames. Enforced on both write and read.
Status ValidateManifest(const ShardManifest& manifest);

/// Writes a manifest (validating it first).
Status SerializeManifest(const ShardManifest& manifest, std::ostream& out);

/// Reads and validates a manifest written by SerializeManifest.
Result<ShardManifest> DeserializeManifest(std::istream& in);

/// Writes the reservoir state. Estimation-agnostic: covariance accumulators
/// are included so in-stream estimation can resume on top.
Status SerializeReservoir(const GpsReservoir& reservoir, std::ostream& out);

/// Reads a reservoir previously written by SerializeReservoir.
Result<GpsReservoir> DeserializeReservoir(std::istream& in);

/// Writes a full GPS sampler (weight configuration + reservoir).
Status SerializeSampler(const GpsSampler& sampler, std::ostream& out);
Result<GpsSampler> DeserializeSampler(std::istream& in);

/// Writes a full in-stream estimator (weight configuration + reservoir +
/// snapshot accumulators).
Status SerializeInStreamEstimator(const InStreamEstimator& estimator,
                                  std::ostream& out);
Result<InStreamEstimator> DeserializeInStreamEstimator(std::istream& in);

}  // namespace gps

#endif  // GPS_CORE_SERIALIZE_H_
