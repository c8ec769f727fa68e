#include "core/serialize.h"

#include <array>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <system_error>
#include <vector>

#include "core/motifs.h"
#include "core/packed_store.h"
#include "util/digest.h"

namespace gps {
namespace {

constexpr const char* kReservoirHeader = "GPS-RESERVOIR";
constexpr const char* kSamplerHeader = "GPS-SAMPLER";
constexpr const char* kInStreamHeader = "GPS-INSTREAM";
constexpr const char* kManifestHeader = "GPS-MANIFEST";
constexpr int kFormatVersion = 1;
// Manifests are versioned independently of the single-estimator formats:
// v2 added the engine-level stream offset (resume support), v3 the
// motif-statistic set (names + per-shard accumulators), v4 the capacity
// provenance (--mem byte budget; 0 = explicit capacity). Readers stay
// compatible with v1 through v3.
constexpr int kManifestVersion = 4;
constexpr int kManifestMinReadVersion = 1;

// The same characters as printf("%.17g") (the standard defines
// to_chars' general format with a precision as printf's), without the
// format-string parsing and locale lookups of the printf family.
void WriteDouble(std::ostream& out, double v) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  assert(r.ec == std::errc());
  out.write(buf, r.ptr - buf);
}

/// Reads and checks "<HEADER> <version>", accepting any version in
/// [min_version, max_version]; returns the version actually found so
/// multi-version readers (the manifest) can branch on it.
Result<int> ExpectHeaderVersioned(std::istream& in, const std::string& want,
                                  int min_version, int max_version) {
  std::string header;
  int version = 0;
  if (!(in >> header >> version)) {
    return Status::IoError("truncated checkpoint: missing header");
  }
  if (header != want) {
    return Status::InvalidArgument("checkpoint header mismatch: expected " +
                                   want + ", found " + header);
  }
  if (version < min_version || version > max_version) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) +
        " for " + want + " (supported: " + std::to_string(min_version) +
        ".." + std::to_string(max_version) + ")");
  }
  return version;
}

Status ExpectHeader(std::istream& in, const std::string& want) {
  return ExpectHeaderVersioned(in, want, kFormatVersion, kFormatVersion)
      .status();
}

Status ValidateWeightOptions(const WeightOptions& weight) {
  if (!std::isfinite(weight.coefficient) ||
      !std::isfinite(weight.adjacency_coefficient) ||
      !std::isfinite(weight.default_weight)) {
    return Status::InvalidArgument(
        "non-finite weight configuration in checkpoint");
  }
  return Status::Ok();
}

Status WriteWeightOptions(const WeightOptions& weight, std::ostream& out) {
  if (weight.kind == WeightKind::kCustom) {
    return Status::FailedPrecondition(
        "custom weight callables cannot be serialized");
  }
  if (Status s = ValidateWeightOptions(weight); !s.ok()) return s;
  out << static_cast<int>(weight.kind) << ' ';
  WriteDouble(out, weight.coefficient);
  out << ' ';
  WriteDouble(out, weight.adjacency_coefficient);
  out << ' ';
  WriteDouble(out, weight.default_weight);
  out << '\n';
  return Status::Ok();
}

Result<WeightOptions> ReadWeightOptions(std::istream& in) {
  int kind = -1;
  WeightOptions weight;
  if (!(in >> kind >> weight.coefficient >> weight.adjacency_coefficient >>
        weight.default_weight)) {
    return Status::IoError("truncated checkpoint: weight options");
  }
  if (kind < 0 || kind >= static_cast<int>(WeightKind::kCustom)) {
    return Status::InvalidArgument("invalid weight kind in checkpoint");
  }
  if (Status s = ValidateWeightOptions(weight); !s.ok()) return s;
  weight.kind = static_cast<WeightKind>(kind);
  return weight;
}

}  // namespace

int ManifestFormatVersion() { return kManifestVersion; }
int ManifestMinReadVersion() { return kManifestMinReadVersion; }
int EstimatorFormatVersion() { return kFormatVersion; }

Status SerializeReservoir(const GpsReservoir& reservoir, std::ostream& out) {
  // Mirror the read-side ceiling: a checkpoint the deserializer would
  // reject must fail loudly at WRITE time, not when the operator tries
  // to resume from it.
  if (reservoir.options().capacity == 0 ||
      reservoir.options().capacity > kMaxCheckpointCapacity) {
    return Status::FailedPrecondition(
        "reservoir capacity " +
        std::to_string(reservoir.options().capacity) + " outside (0, " +
        std::to_string(kMaxCheckpointCapacity) +
        "] cannot be checkpointed (raise kMaxCheckpointCapacity "
        "deliberately if needed)");
  }
  out << kReservoirHeader << ' ' << kFormatVersion << '\n';
  out << reservoir.options().capacity << ' ' << reservoir.options().seed
      << '\n';
  WriteDouble(out, reservoir.threshold());
  out << ' ' << reservoir.edges_processed() << '\n';
  const std::array<uint64_t, 4> rng = reservoir.RngState();
  out << rng[0] << ' ' << rng[1] << ' ' << rng[2] << ' ' << rng[3] << '\n';
  out << reservoir.size() << '\n';
  Status status = Status::Ok();
  reservoir.ForEachEdge(
      [&](SlotId, const GpsReservoir::EdgeRecord& rec) {
        out << rec.edge.u << ' ' << rec.edge.v << ' ';
        WriteDouble(out, rec.weight);
        out << ' ';
        WriteDouble(out, rec.priority);
        out << ' ';
        WriteDouble(out, rec.cov_tri);
        out << ' ';
        WriteDouble(out, rec.cov_wedge);
        out << '\n';
      });
  if (!out) return Status::IoError("write failure while serializing");
  return status;
}

Result<GpsReservoir> DeserializeReservoir(std::istream& in) {
  if (Status s = ExpectHeader(in, kReservoirHeader); !s.ok()) return s;
  GpsOptions options;
  double z_star = 0.0;
  uint64_t processed = 0;
  std::array<uint64_t, 4> rng{};
  size_t num_edges = 0;
  if (!(in >> options.capacity >> options.seed >> z_star >> processed >>
        rng[0] >> rng[1] >> rng[2] >> rng[3] >> num_edges)) {
    return Status::IoError("truncated checkpoint: reservoir metadata");
  }
  // A corrupt header must not drive the record allocation below: reject
  // capacities beyond the ceiling before touching num_edges.
  if (options.capacity == 0 ||
      options.capacity > kMaxCheckpointCapacity) {
    return Status::InvalidArgument(
        "reservoir capacity " + std::to_string(options.capacity) +
        " outside (0, " + std::to_string(kMaxCheckpointCapacity) +
        "] in checkpoint");
  }
  if (num_edges > options.capacity) {
    return Status::InvalidArgument("inconsistent reservoir checkpoint");
  }
  if (num_edges > processed) {
    return Status::InvalidArgument(
        "reservoir checkpoint holds more edges than arrivals processed");
  }
  if (!std::isfinite(z_star) || z_star < 0.0) {
    return Status::InvalidArgument(
        "invalid threshold z* in reservoir checkpoint");
  }
  // z* > 0 means an eviction happened, which is only possible once the
  // reservoir filled — and it never shrinks afterwards.
  if (z_star > 0.0 && num_edges < options.capacity) {
    return Status::InvalidArgument(
        "thresholded reservoir checkpoint is not full");
  }
  std::vector<GpsReservoir::EdgeRecord> records(num_edges);
  for (GpsReservoir::EdgeRecord& rec : records) {
    if (!(in >> rec.edge.u >> rec.edge.v >> rec.weight >> rec.priority >>
          rec.cov_tri >> rec.cov_wedge)) {
      return Status::IoError("truncated checkpoint: edge records");
    }
    if (rec.edge.IsSelfLoop()) {
      return Status::InvalidArgument("self loop in reservoir checkpoint");
    }
    if (rec.edge.u > rec.edge.v) {
      return Status::InvalidArgument(
          "non-canonical edge in reservoir checkpoint");
    }
    if (!std::isfinite(rec.weight) || rec.weight <= 0.0) {
      return Status::InvalidArgument(
          "invalid edge weight in reservoir checkpoint");
    }
    // Priority r = w/u with u ~ Uni(0,1], so r >= w always; survivors
    // additionally beat the threshold (selection event B_i).
    if (!std::isfinite(rec.priority) || rec.priority < rec.weight) {
      return Status::InvalidArgument(
          "invalid edge priority in reservoir checkpoint");
    }
    if (rec.priority < z_star) {
      return Status::InvalidArgument(
          "edge priority below threshold z* in reservoir checkpoint");
    }
    if (!std::isfinite(rec.cov_tri) || !std::isfinite(rec.cov_wedge)) {
      return Status::InvalidArgument(
          "non-finite covariance accumulator in reservoir checkpoint");
    }
  }
  GpsReservoir res =
      GpsReservoir::FromParts(options, z_star, processed, rng, records);
  if (res.size() != num_edges) {
    return Status::InvalidArgument(
        "duplicate edges in reservoir checkpoint");
  }
  return res;
}

Status SerializeSampler(const GpsSampler& sampler, std::ostream& out) {
  out << kSamplerHeader << ' ' << kFormatVersion << '\n';
  if (Status s = WriteWeightOptions(sampler.weight_function().options(), out);
      !s.ok()) {
    return s;
  }
  return SerializeReservoir(sampler.reservoir(), out);
}

Result<GpsSampler> DeserializeSampler(std::istream& in) {
  if (Status s = ExpectHeader(in, kSamplerHeader); !s.ok()) return s;
  Result<WeightOptions> weight = ReadWeightOptions(in);
  if (!weight.ok()) return weight.status();
  Result<GpsReservoir> reservoir = DeserializeReservoir(in);
  if (!reservoir.ok()) return reservoir.status();
  return GpsSampler::FromParts(*weight, std::move(*reservoir));
}

Status SerializeInStreamEstimator(const InStreamEstimator& estimator,
                                  std::ostream& out) {
  out << kInStreamHeader << ' ' << kFormatVersion << '\n';
  if (Status s =
          WriteWeightOptions(estimator.weight_function().options(), out);
      !s.ok()) {
    return s;
  }
  const InStreamEstimator::Accumulators acc = estimator.SaveAccumulators();
  for (double v : {acc.n_tri, acc.v_tri, acc.n_wed, acc.v_wed, acc.cov_tw}) {
    WriteDouble(out, v);
    out << ' ';
  }
  out << '\n';
  return SerializeReservoir(estimator.reservoir(), out);
}

Result<InStreamEstimator> DeserializeInStreamEstimator(std::istream& in) {
  if (Status s = ExpectHeader(in, kInStreamHeader); !s.ok()) return s;
  Result<WeightOptions> weight = ReadWeightOptions(in);
  if (!weight.ok()) return weight.status();
  InStreamEstimator::Accumulators acc;
  if (!(in >> acc.n_tri >> acc.v_tri >> acc.n_wed >> acc.v_wed >>
        acc.cov_tw)) {
    return Status::IoError("truncated checkpoint: accumulators");
  }
  // Count and variance accumulators are sums of non-negative snapshot
  // terms; only the triangle-wedge covariance may be negative.
  for (double v : {acc.n_tri, acc.v_tri, acc.n_wed, acc.v_wed}) {
    if (!std::isfinite(v) || v < 0.0) {
      return Status::InvalidArgument(
          "invalid snapshot accumulator in checkpoint");
    }
  }
  if (!std::isfinite(acc.cov_tw)) {
    return Status::InvalidArgument(
        "non-finite covariance accumulator in checkpoint");
  }
  Result<GpsReservoir> reservoir = DeserializeReservoir(in);
  if (!reservoir.ok()) return reservoir.status();
  return InStreamEstimator::FromParts(*weight, std::move(*reservoir), acc);
}

uint64_t ChecksumBytes(std::string_view bytes) {
  // FNV-1a 64-bit: deterministic across platforms, cheap, and good enough
  // to detect accidental corruption (not adversarial tampering). The same
  // digest guards GPS-STREAM headers and blocks (graph/binary_stream.h),
  // so the implementation lives in util/digest.h.
  return Fnv1a64(bytes);
}

Status ValidateManifest(const ShardManifest& manifest) {
  if (manifest.num_shards < 1 ||
      manifest.num_shards > kMaxManifestShards) {
    return Status::InvalidArgument(
        "manifest shard count " + std::to_string(manifest.num_shards) +
        " outside [1, " + std::to_string(kMaxManifestShards) + "]");
  }
  if (manifest.total_capacity == 0 ||
      manifest.total_capacity > kMaxCheckpointCapacity) {
    return Status::InvalidArgument(
        "manifest capacity " + std::to_string(manifest.total_capacity) +
        " outside (0, " + std::to_string(kMaxCheckpointCapacity) + "]");
  }
  if (manifest.mem_budget_bytes > 0) {
    // Capacity provenance: when the run derived its capacity from a byte
    // budget, the recorded capacity must still be the one that budget
    // derives to. A mismatch means the manifest was corrupted or
    // hand-edited, and resuming would silently change the memory
    // envelope the operator asked for.
    Result<StoreLayout> layout =
        DeriveStoreLayout(manifest.mem_budget_bytes);
    if (!layout.ok()) {
      return layout.status().WithContext("manifest memory budget");
    }
    if (layout->capacity != manifest.total_capacity) {
      return Status::InvalidArgument(
          "manifest capacity provenance mismatch: budget " +
          std::to_string(manifest.mem_budget_bytes) + " bytes derives " +
          std::to_string(layout->capacity) + " slots, but the manifest "
          "records total capacity " +
          std::to_string(manifest.total_capacity));
    }
  }
  if (manifest.weight.kind == WeightKind::kCustom) {
    return Status::FailedPrecondition(
        "custom weight callables cannot be serialized");
  }
  if (Status s = ValidateWeightOptions(manifest.weight); !s.ok()) return s;
  // Motif names resolve against the registry: a manifest naming a motif
  // this build does not know must be refused BY NAME, not silently
  // dropped (the accumulators would be meaningless to carry forward).
  if (Status s = ValidateMotifNames(manifest.motif_names); !s.ok()) {
    return s.WithContext("manifest motif set");
  }
  if (manifest.entries.size() > manifest.num_shards) {
    return Status::InvalidArgument(
        "manifest lists more shard files than shards");
  }
  for (const ShardManifestEntry& entry : manifest.entries) {
    if (entry.motif_accumulators.size() != manifest.motif_names.size()) {
      return Status::InvalidArgument(
          "manifest shard " + std::to_string(entry.shard_index) +
          " carries " + std::to_string(entry.motif_accumulators.size()) +
          " motif accumulators for " +
          std::to_string(manifest.motif_names.size()) + " named motifs");
    }
    for (size_t m = 0; m < entry.motif_accumulators.size(); ++m) {
      const MotifAccumulator& acc = entry.motif_accumulators[m];
      // Count and variance accumulators are sums of nonnegative snapshot
      // terms (core/snapshot.h).
      if (!std::isfinite(acc.count) || acc.count < 0.0 ||
          !std::isfinite(acc.variance) || acc.variance < 0.0) {
        return Status::InvalidArgument(
            "invalid '" + manifest.motif_names[m] +
            "' accumulator for manifest shard " +
            std::to_string(entry.shard_index));
      }
    }
  }
  if (manifest.stream_offset > 0) {
    // The entries describe shards of the recorded run prefix, so no shard
    // can have consumed more arrivals than the engine ever routed — and
    // the covered shards together cannot exceed the routed total either.
    // The counts are untrusted: detect wrap-around so crafted huge values
    // cannot fold back under the offset.
    uint64_t entry_sum = 0;
    for (const ShardManifestEntry& entry : manifest.entries) {
      if (entry_sum + entry.edges_processed < entry_sum ||
          entry_sum + entry.edges_processed > manifest.stream_offset) {
        return Status::InvalidArgument(
            "manifest shard arrival counts exceed the recorded stream "
            "offset " +
            std::to_string(manifest.stream_offset));
      }
      entry_sum += entry.edges_processed;
    }
  }
  std::vector<bool> seen(manifest.num_shards, false);
  for (const ShardManifestEntry& entry : manifest.entries) {
    if (entry.shard_index >= manifest.num_shards) {
      return Status::InvalidArgument(
          "manifest shard index " + std::to_string(entry.shard_index) +
          " out of range for K=" + std::to_string(manifest.num_shards));
    }
    if (seen[entry.shard_index]) {
      return Status::InvalidArgument(
          "manifest lists shard " + std::to_string(entry.shard_index) +
          " twice");
    }
    seen[entry.shard_index] = true;
    // Bare file names only: shard files live next to their manifest, and
    // rejecting separators closes path traversal from untrusted input.
    // Whitespace would break the whitespace-delimited manifest format
    // itself, so a validated manifest is guaranteed to round-trip.
    bool has_space = false;
    for (const char c : entry.filename) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        has_space = true;
        break;
      }
    }
    if (entry.filename.empty() || has_space ||
        entry.filename.find('/') != std::string::npos ||
        entry.filename.find('\\') != std::string::npos ||
        entry.filename == "." || entry.filename == "..") {
      return Status::InvalidArgument(
          "manifest shard filename '" + entry.filename +
          "' must be a bare file name without whitespace");
    }
  }
  return Status::Ok();
}

Status SerializeManifest(const ShardManifest& manifest, std::ostream& out) {
  if (Status s = ValidateManifest(manifest); !s.ok()) return s;
  out << kManifestHeader << ' ' << kManifestVersion << '\n';
  out << manifest.num_shards << ' ' << manifest.base_seed << ' '
      << manifest.total_capacity << ' ' << (manifest.split_capacity ? 1 : 0)
      << ' ' << manifest.stream_offset << ' ' << manifest.mem_budget_bytes
      << '\n';
  if (Status s = WriteWeightOptions(manifest.weight, out); !s.ok()) return s;
  out << manifest.motif_names.size();
  for (const std::string& name : manifest.motif_names) out << ' ' << name;
  out << '\n';
  out << manifest.entries.size() << '\n';
  for (const ShardManifestEntry& entry : manifest.entries) {
    out << entry.shard_index << ' ' << entry.shard_seed << ' '
        << entry.edges_processed << ' ' << entry.digest << ' '
        << entry.filename;
    for (const MotifAccumulator& acc : entry.motif_accumulators) {
      out << ' ';
      WriteDouble(out, acc.count);
      out << ' ';
      WriteDouble(out, acc.variance);
      out << ' ' << acc.snapshots;
    }
    out << '\n';
  }
  if (!out) return Status::IoError("write failure while serializing");
  return Status::Ok();
}

Result<ShardManifest> DeserializeManifest(std::istream& in) {
  Result<int> version = ExpectHeaderVersioned(
      in, kManifestHeader, kManifestMinReadVersion, kManifestVersion);
  if (!version.ok()) return version.status();
  ShardManifest manifest;
  int split = -1;
  if (!(in >> manifest.num_shards >> manifest.base_seed >>
        manifest.total_capacity >> split)) {
    return Status::IoError("truncated manifest: layout");
  }
  if (split != 0 && split != 1) {
    return Status::InvalidArgument(
        "manifest split-capacity flag must be 0 or 1");
  }
  manifest.split_capacity = split == 1;
  // Version 1 predates the stream offset; leave it 0 (resume derives the
  // offset from the entries' arrival counts instead).
  if (*version >= 2 && !(in >> manifest.stream_offset)) {
    return Status::IoError("truncated manifest: stream offset");
  }
  // Version 4 added capacity provenance; earlier manifests came from
  // explicit-capacity runs (budget 0 = "not budget derived").
  if (*version >= 4 && !(in >> manifest.mem_budget_bytes)) {
    return Status::IoError("truncated manifest: memory budget");
  }
  Result<WeightOptions> weight = ReadWeightOptions(in);
  if (!weight.ok()) return weight.status();
  manifest.weight = *weight;
  // Version 3 added the motif set; earlier manifests describe the bare
  // tri/wedge estimator stack (empty motif list).
  if (*version >= 3) {
    size_t num_motifs = 0;
    if (!(in >> num_motifs)) {
      return Status::IoError("truncated manifest: motif count");
    }
    if (num_motifs > MotifEntries().size()) {
      return Status::InvalidArgument(
          "manifest motif count " + std::to_string(num_motifs) +
          " exceeds the registry size " +
          std::to_string(MotifEntries().size()));
    }
    manifest.motif_names.reserve(num_motifs);
    for (size_t m = 0; m < num_motifs; ++m) {
      std::string name;
      if (!(in >> name)) {
        return Status::IoError("truncated manifest: motif names");
      }
      manifest.motif_names.push_back(std::move(name));
    }
  }
  size_t num_entries = 0;
  if (!(in >> num_entries)) {
    return Status::IoError("truncated manifest: entry count");
  }
  if (num_entries > kMaxManifestShards) {
    return Status::InvalidArgument(
        "manifest entry count " + std::to_string(num_entries) +
        " exceeds " + std::to_string(kMaxManifestShards));
  }
  manifest.entries.reserve(num_entries);
  for (size_t i = 0; i < num_entries; ++i) {
    ShardManifestEntry entry;
    if (!(in >> entry.shard_index >> entry.shard_seed >>
          entry.edges_processed >> entry.digest >> entry.filename)) {
      return Status::IoError("truncated manifest: shard entries");
    }
    entry.motif_accumulators.resize(manifest.motif_names.size());
    for (MotifAccumulator& acc : entry.motif_accumulators) {
      if (!(in >> acc.count >> acc.variance >> acc.snapshots)) {
        return Status::IoError("truncated manifest: motif accumulators");
      }
    }
    manifest.entries.push_back(std::move(entry));
  }
  if (Status s = ValidateManifest(manifest); !s.ok()) return s;
  return manifest;
}

}  // namespace gps
