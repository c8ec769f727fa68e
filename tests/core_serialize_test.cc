// Tests for checkpoint serialization: resumed runs must be bit-identical
// to uninterrupted runs; corrupted/invalid checkpoints must fail cleanly.

#include "core/serialize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/post_stream.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/random.h"

namespace gps {
namespace {

std::vector<Edge> TestStream(uint64_t seed) {
  EdgeList graph = GenerateBarabasiAlbert(200, 5, 0.4, seed).value();
  return MakePermutedStream(graph, seed + 1);
}

TEST(SerializeTest, ReservoirRoundTripPreservesEverything) {
  const std::vector<Edge> stream = TestStream(601);
  GpsSamplerOptions options;
  options.capacity = 100;
  options.seed = 602;
  GpsSampler sampler(options);
  for (const Edge& e : stream) sampler.Process(e);

  std::stringstream buffer;
  ASSERT_TRUE(SerializeReservoir(sampler.reservoir(), buffer).ok());
  auto restored = DeserializeReservoir(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->size(), sampler.reservoir().size());
  EXPECT_DOUBLE_EQ(restored->threshold(), sampler.reservoir().threshold());
  EXPECT_EQ(restored->edges_processed(),
            sampler.reservoir().edges_processed());
  EXPECT_EQ(restored->options().capacity, 100u);
  EXPECT_TRUE(restored->CheckInvariants());

  // Every edge present with identical weight/priority.
  sampler.reservoir().ForEachEdge(
      [&](SlotId, const GpsReservoir::EdgeRecord& rec) {
        const SlotId slot = restored->graph().FindEdge(rec.edge);
        ASSERT_NE(slot, kNoSlot) << EdgeToString(rec.edge);
        EXPECT_DOUBLE_EQ(restored->Record(slot).weight, rec.weight);
        EXPECT_DOUBLE_EQ(restored->Record(slot).priority, rec.priority);
      });

  // Post-stream estimates agree exactly.
  const GraphEstimates a = EstimatePostStream(sampler.reservoir());
  const GraphEstimates b = EstimatePostStream(*restored);
  EXPECT_DOUBLE_EQ(a.triangles.value, b.triangles.value);
  EXPECT_DOUBLE_EQ(a.wedges.variance, b.wedges.variance);
}

TEST(SerializeTest, ResumedSamplerBitIdenticalToUninterrupted) {
  // Run A: process the whole stream. Run B: process half, checkpoint,
  // restore, process the rest. Final states must match exactly (the RNG
  // state is part of the checkpoint).
  const std::vector<Edge> stream = TestStream(611);
  GpsSamplerOptions options;
  options.capacity = 120;
  options.seed = 612;

  GpsSampler uninterrupted(options);
  for (const Edge& e : stream) uninterrupted.Process(e);

  GpsSampler first_half(options);
  for (size_t i = 0; i < stream.size() / 2; ++i) {
    first_half.Process(stream[i]);
  }
  std::stringstream buffer;
  ASSERT_TRUE(SerializeSampler(first_half, buffer).ok());
  auto resumed = DeserializeSampler(buffer);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (size_t i = stream.size() / 2; i < stream.size(); ++i) {
    resumed->Process(stream[i]);
  }

  EXPECT_EQ(resumed->reservoir().size(), uninterrupted.reservoir().size());
  EXPECT_DOUBLE_EQ(resumed->reservoir().threshold(),
                   uninterrupted.reservoir().threshold());
  uninterrupted.reservoir().ForEachEdge(
      [&](SlotId, const GpsReservoir::EdgeRecord& rec) {
        const SlotId slot = resumed->reservoir().graph().FindEdge(rec.edge);
        ASSERT_NE(slot, kNoSlot);
        EXPECT_DOUBLE_EQ(resumed->reservoir().Record(slot).priority,
                         rec.priority);
      });
}

TEST(SerializeTest, ResumedInStreamEstimatorMatchesUninterrupted) {
  const std::vector<Edge> stream = TestStream(621);
  GpsSamplerOptions options;
  options.capacity = 150;
  options.seed = 622;

  InStreamEstimator uninterrupted(options);
  for (const Edge& e : stream) uninterrupted.Process(e);

  InStreamEstimator first_half(options);
  for (size_t i = 0; i < stream.size() / 3; ++i) {
    first_half.Process(stream[i]);
  }
  std::stringstream buffer;
  ASSERT_TRUE(SerializeInStreamEstimator(first_half, buffer).ok());
  auto resumed = DeserializeInStreamEstimator(buffer);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (size_t i = stream.size() / 3; i < stream.size(); ++i) {
    resumed->Process(stream[i]);
  }

  const GraphEstimates a = uninterrupted.Estimates();
  const GraphEstimates b = resumed->Estimates();
  EXPECT_DOUBLE_EQ(a.triangles.value, b.triangles.value);
  EXPECT_DOUBLE_EQ(a.triangles.variance, b.triangles.variance);
  EXPECT_DOUBLE_EQ(a.wedges.value, b.wedges.value);
  EXPECT_DOUBLE_EQ(a.wedges.variance, b.wedges.variance);
  EXPECT_DOUBLE_EQ(a.tri_wedge_cov, b.tri_wedge_cov);
}

TEST(SerializeTest, CustomWeightRefused) {
  GpsSamplerOptions options;
  options.capacity = 10;
  options.weight.kind = WeightKind::kCustom;
  options.weight.custom = [](const Edge&, const SampledGraph&) {
    return 1.0;
  };
  GpsSampler sampler(options);
  std::stringstream buffer;
  const Status s = SerializeSampler(sampler, buffer);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(SerializeTest, RejectsWrongHeader) {
  std::stringstream buffer("GPS-SOMETHING 1\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsWrongVersion) {
  std::stringstream buffer("GPS-RESERVOIR 99\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
}

TEST(SerializeTest, RejectsTruncatedPayload) {
  const std::vector<Edge> stream = TestStream(631);
  GpsSamplerOptions options;
  options.capacity = 50;
  options.seed = 632;
  GpsSampler sampler(options);
  for (const Edge& e : stream) sampler.Process(e);
  std::stringstream buffer;
  ASSERT_TRUE(SerializeReservoir(sampler.reservoir(), buffer).ok());
  const std::string full = buffer.str();
  // Cut the payload in half.
  std::stringstream truncated(full.substr(0, full.size() / 2));
  auto r = DeserializeReservoir(truncated);
  ASSERT_FALSE(r.ok());
}

TEST(SerializeTest, RejectsSelfLoopRecord) {
  std::stringstream buffer(
      "GPS-RESERVOIR 1\n"
      "10 1\n"
      "0 1\n"
      "1 2 3 4\n"
      "1\n"
      "5 5 1 2 0 0\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsOvercapacityCheckpoint) {
  std::stringstream buffer(
      "GPS-RESERVOIR 1\n"
      "1 1\n"
      "0 5\n"
      "1 2 3 4\n"
      "2\n"
      "0 1 1 2 0 0\n"
      "1 2 1 2 0 0\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
}

TEST(SerializeTest, EmptyReservoirRoundTrip) {
  GpsReservoir empty(GpsOptions{32, 7});
  std::stringstream buffer;
  ASSERT_TRUE(SerializeReservoir(empty, buffer).ok());
  auto r = DeserializeReservoir(buffer);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 0u);
  EXPECT_EQ(r->options().capacity, 32u);
}

// The checkpoint's double formatter must emit exactly the characters of
// printf("%.17g") — the format every existing checkpoint and digest was
// written in. The reservoir carries edge-case values (signed zeros,
// subnormals, DBL_MAX, the 1e16/1e17 boundaries where %g switches to
// exponent form) plus random finite bit patterns in every double field
// the writer emits: threshold, weight, priority and both covariance
// accumulators.
TEST(SerializeTest, DoubleFormatterMatchesPrintfExactly) {
  const double kMinSub = std::numeric_limits<double>::denorm_min();
  const double kMax = std::numeric_limits<double>::max();
  const double kMin = std::numeric_limits<double>::min();
  const std::vector<double> edge_values = {
      0.0,  -0.0,   kMinSub, -kMinSub, kMin,    -kMin,  kMax,
      -kMax, 1e16,  1e17,    -1e16,    -1e17,   1e-5,   1e-4,
      0.1,  1.0 / 3, 9007199254740993.0, 123456789012345678.0,
      0.30000000000000004, 1e300,  -2.5e-310, 99999999999999999.0};
  const std::vector<double> positive_values = {
      kMinSub, 2.5e-310, kMin, 1e-5, 1e-4, 0.1, 1.0,
      1e16,    1e17,     1e300, kMax};

  std::vector<GpsReservoir::EdgeRecord> records;
  uint32_t next_node = 0;
  auto add = [&](double weight, double priority, double cov_tri,
                 double cov_wedge) {
    records.push_back({MakeEdge(next_node, next_node + 1), weight, priority,
                       cov_tri, cov_wedge});
    next_node += 2;
  };
  for (double cov : edge_values) {
    for (double w : positive_values) add(w, w, cov, -cov);
  }
  for (double w : positive_values) add(w, kMax, 0.0, -0.0);
  Rng rng(701);
  auto random_finite = [&rng] {
    for (;;) {
      const double v = std::bit_cast<double>(rng.NextU64());
      if (std::isfinite(v)) return v;
    }
  };
  for (int i = 0; i < 2000; ++i) {
    const double w = std::fabs(random_finite());
    if (w == 0.0) continue;
    add(w, std::max(w, std::fabs(random_finite())), random_finite(),
        random_finite());
  }

  GpsOptions options;
  options.capacity = records.size();
  options.seed = 702;
  const GpsReservoir reservoir = GpsReservoir::FromParts(
      options, kMinSub, 12345, {1, 2, 3, 4}, records);
  std::stringstream buffer;
  ASSERT_TRUE(SerializeReservoir(reservoir, buffer).ok());

  auto printf_g17 = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::string line;
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(std::getline(buffer, line));
  std::string token;
  buffer >> token;
  EXPECT_EQ(token, printf_g17(reservoir.threshold()));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(std::getline(buffer, line));
  size_t checked = 0;
  reservoir.ForEachEdge(
      [&](SlotId, const GpsReservoir::EdgeRecord& rec) {
        uint64_t u = 0;
        uint64_t v = 0;
        std::string fields[4];
        ASSERT_TRUE(buffer >> u >> v >> fields[0] >> fields[1] >> fields[2] >>
                    fields[3]);
        EXPECT_EQ(u, rec.edge.u);
        EXPECT_EQ(v, rec.edge.v);
        EXPECT_EQ(fields[0], printf_g17(rec.weight));
        EXPECT_EQ(fields[1], printf_g17(rec.priority));
        EXPECT_EQ(fields[2], printf_g17(rec.cov_tri));
        EXPECT_EQ(fields[3], printf_g17(rec.cov_wedge));
        ++checked;
      });
  EXPECT_EQ(checked, records.size());
  EXPECT_FALSE(buffer >> token) << "trailing token " << token;
}

// Checkpoints are untrusted cross-machine input: corrupt numeric fields
// must be rejected with typed errors, never silently reconstructed.
// Layout reminder: "GPS-RESERVOIR 1\n capacity seed\n z* processed\n
// rng0..rng3\n num_edges\n u v weight priority cov_tri cov_wedge\n".
TEST(SerializeTest, RejectsCorruptReservoirFields) {
  const struct {
    const char* name;
    const char* text;
  } kCases[] = {
      {"negative weight",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n1\n3 5 -1 2 0 0\n"},
      {"zero weight",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n1\n3 5 0 2 0 0\n"},
      {"priority below weight (u > 1 impossible)",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n1\n3 5 2 1.5 0 0\n"},
      {"priority below threshold",
       "GPS-RESERVOIR 1\n1 1\n2 5\n1 2 3 4\n1\n3 5 1 1.5 0 0\n"},
      {"negative threshold",
       "GPS-RESERVOIR 1\n10 1\n-1 1\n1 2 3 4\n1\n3 5 1 2 0 0\n"},
      {"non-canonical edge",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n1\n5 3 1 2 0 0\n"},
      {"more edges than arrivals",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n2\n"
       "1 2 1 2 0 0\n3 4 1 2 0 0\n"},
      {"thresholded but not full",
       "GPS-RESERVOIR 1\n10 1\n1 5\n1 2 3 4\n1\n3 5 1 2 0 0\n"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    std::stringstream buffer(c.text);
    auto r = DeserializeReservoir(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
}

TEST(SerializeTest, RejectsOversizedCapacityBeforeAllocating) {
  // A corrupt header must not drive the record allocation: this declares
  // an absurd capacity AND matching edge count; the deserializer has to
  // fail on the capacity ceiling before sizing the record vector (if it
  // allocated first, this test would OOM rather than return quickly).
  std::stringstream buffer(
      "GPS-RESERVOIR 1\n"
      "999999999999 1\n"
      "0 999999999999\n"
      "1 2 3 4\n"
      "999999999999\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("capacity"), std::string::npos);
}

TEST(SerializeTest, RejectsInvalidInStreamAccumulators) {
  // "GPS-INSTREAM 1\n <weight kind coeff adj default>\n <5 accumulators>\n"
  // followed by a reservoir block (never reached here).
  std::stringstream buffer(
      "GPS-INSTREAM 1\n"
      "2 9 1 1\n"
      "-1 0 0 0 0\n"
      "GPS-RESERVOIR 1\n10 1\n0 0\n1 2 3 4\n0\n");
  auto r = DeserializeInStreamEstimator(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

ShardManifest TestManifest() {
  ShardManifest manifest;
  manifest.num_shards = 4;
  manifest.base_seed = 42;
  manifest.total_capacity = 1000;
  manifest.split_capacity = true;
  manifest.stream_offset = 600;
  manifest.weight.kind = WeightKind::kTriangleWedge;
  manifest.weight.coefficient = 9.0;
  manifest.weight.adjacency_coefficient = 2.5;
  manifest.weight.default_weight = 0.5;
  manifest.entries.push_back({0, 111, 250, 0x1234abcdu, "shard-0000.gps", {}});
  manifest.entries.push_back({2, 333, 260, 0x9876fedcu, "shard-0002.gps", {}});
  return manifest;
}

TEST(SerializeTest, ManifestRoundTripPreservesEverything) {
  const ShardManifest manifest = TestManifest();
  std::stringstream buffer;
  ASSERT_TRUE(SerializeManifest(manifest, buffer).ok());
  auto r = DeserializeManifest(buffer);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_shards, manifest.num_shards);
  EXPECT_EQ(r->base_seed, manifest.base_seed);
  EXPECT_EQ(r->total_capacity, manifest.total_capacity);
  EXPECT_EQ(r->split_capacity, manifest.split_capacity);
  EXPECT_EQ(r->stream_offset, manifest.stream_offset);
  EXPECT_EQ(r->weight.kind, manifest.weight.kind);
  EXPECT_DOUBLE_EQ(r->weight.coefficient, manifest.weight.coefficient);
  EXPECT_DOUBLE_EQ(r->weight.adjacency_coefficient,
                   manifest.weight.adjacency_coefficient);
  EXPECT_DOUBLE_EQ(r->weight.default_weight,
                   manifest.weight.default_weight);
  ASSERT_EQ(r->entries.size(), manifest.entries.size());
  for (size_t i = 0; i < manifest.entries.size(); ++i) {
    EXPECT_EQ(r->entries[i].shard_index, manifest.entries[i].shard_index);
    EXPECT_EQ(r->entries[i].shard_seed, manifest.entries[i].shard_seed);
    EXPECT_EQ(r->entries[i].edges_processed,
              manifest.entries[i].edges_processed);
    EXPECT_EQ(r->entries[i].digest, manifest.entries[i].digest);
    EXPECT_EQ(r->entries[i].filename, manifest.entries[i].filename);
  }
}

TEST(SerializeTest, ManifestMotifSetRoundTrip) {
  ShardManifest manifest = TestManifest();
  manifest.motif_names = {"tri", "4clique"};
  manifest.entries[0].motif_accumulators = {{12.5, 3.0, 9}, {0.0, 0.0, 0}};
  manifest.entries[1].motif_accumulators = {{7.0, 1.0, 4},
                                            {100.25, 55.5, 17}};
  std::stringstream buffer;
  ASSERT_TRUE(SerializeManifest(manifest, buffer).ok());
  auto r = DeserializeManifest(buffer);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->motif_names, manifest.motif_names);
  ASSERT_EQ(r->entries.size(), 2u);
  for (size_t i = 0; i < r->entries.size(); ++i) {
    ASSERT_EQ(r->entries[i].motif_accumulators.size(), 2u) << i;
    for (size_t m = 0; m < 2; ++m) {
      EXPECT_DOUBLE_EQ(r->entries[i].motif_accumulators[m].count,
                       manifest.entries[i].motif_accumulators[m].count);
      EXPECT_DOUBLE_EQ(r->entries[i].motif_accumulators[m].variance,
                       manifest.entries[i].motif_accumulators[m].variance);
      EXPECT_EQ(r->entries[i].motif_accumulators[m].snapshots,
                manifest.entries[i].motif_accumulators[m].snapshots);
    }
  }
}

TEST(SerializeTest, ManifestMotifValidation) {
  // Unknown motif names are refused BY NAME on write and read.
  ShardManifest unknown = TestManifest();
  unknown.motif_names = {"tri", "pentagon"};
  for (ShardManifestEntry& entry : unknown.entries) {
    entry.motif_accumulators.resize(2);
  }
  std::stringstream buffer;
  const Status write = SerializeManifest(unknown, buffer);
  ASSERT_FALSE(write.ok());
  EXPECT_NE(write.message().find("pentagon"), std::string::npos)
      << write.ToString();
  {
    std::stringstream crafted(
        "GPS-MANIFEST 3\n1 42 1000 1 0\n2 9 1 1\n1 pentagon\n0\n");
    auto r = DeserializeManifest(crafted);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("pentagon"), std::string::npos);
  }

  // A duplicated motif name is refused.
  {
    std::stringstream crafted(
        "GPS-MANIFEST 3\n1 42 1000 1 0\n2 9 1 1\n2 tri tri\n0\n");
    EXPECT_FALSE(DeserializeManifest(crafted).ok());
  }

  // Entry accumulator arity must match the motif set.
  ShardManifest arity = TestManifest();
  arity.motif_names = {"tri"};
  arity.entries[0].motif_accumulators = {{1.0, 0.0, 1}};
  // entries[1] left without accumulators
  std::stringstream arity_buffer;
  EXPECT_FALSE(SerializeManifest(arity, arity_buffer).ok());

  // Negative / non-finite accumulators are refused.
  ShardManifest negative = TestManifest();
  negative.motif_names = {"tri"};
  negative.entries[0].motif_accumulators = {{-1.0, 0.0, 0}};
  negative.entries[1].motif_accumulators = {{1.0, 0.0, 1}};
  std::stringstream negative_buffer;
  const Status neg = SerializeManifest(negative, negative_buffer);
  ASSERT_FALSE(neg.ok());
  EXPECT_NE(neg.message().find("tri"), std::string::npos);
  {
    std::stringstream crafted(
        "GPS-MANIFEST 3\n1 42 1000 1 0\n2 9 1 1\n1 tri\n1\n"
        "0 42 10 123 shard.gps 5 nan 2\n");
    EXPECT_FALSE(DeserializeManifest(crafted).ok());
  }
}

TEST(SerializeTest, ManifestSerializationValidates) {
  // Duplicate shard index.
  ShardManifest dup = TestManifest();
  dup.entries.push_back(dup.entries[0]);
  // Entry index out of range.
  ShardManifest range = TestManifest();
  range.entries[0].shard_index = 9;
  // Path traversal in a shard filename.
  ShardManifest traversal = TestManifest();
  traversal.entries[0].filename = "../evil.gps";
  // Whitespace would break the whitespace-delimited format on re-read.
  ShardManifest spacey = TestManifest();
  spacey.entries[0].filename = "my shard.gps";
  // Non-finite weight configuration.
  ShardManifest nan_weight = TestManifest();
  nan_weight.weight.coefficient = std::nan("");
  // Zero capacity.
  ShardManifest zero_cap = TestManifest();
  zero_cap.total_capacity = 0;
  // Stream offset smaller than the shards' recorded arrival counts.
  ShardManifest small_offset = TestManifest();
  small_offset.stream_offset = 100;

  for (const ShardManifest* m : {&dup, &range, &traversal, &spacey,
                                 &nan_weight, &zero_cap, &small_offset}) {
    std::stringstream buffer;
    const Status s = SerializeManifest(*m, buffer);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

TEST(SerializeTest, ManifestRejectsCorruptText) {
  // Layout reminder: "GPS-MANIFEST 1\n K base_seed capacity split\n
  // kind coeff adj default\n num_entries\n idx seed edges digest file\n".
  const struct {
    const char* name;
    const char* text;
    StatusCode want;
  } kCases[] = {
      {"wrong header", "GPS-NOPE 1\n", StatusCode::kInvalidArgument},
      {"truncated", "GPS-MANIFEST 1\n4 42\n", StatusCode::kIoError},
      {"zero shards",
       "GPS-MANIFEST 1\n0 42 1000 1\n2 9 1 1\n0\n",
       StatusCode::kInvalidArgument},
      {"shard count over ceiling",
       "GPS-MANIFEST 1\n5000 42 1000 1\n2 9 1 1\n0\n",
       StatusCode::kInvalidArgument},
      {"capacity over ceiling",
       "GPS-MANIFEST 1\n4 42 999999999999 1\n2 9 1 1\n0\n",
       StatusCode::kInvalidArgument},
      {"bad split flag",
       "GPS-MANIFEST 1\n4 42 1000 7\n2 9 1 1\n0\n",
       StatusCode::kInvalidArgument},
      {"entry index out of range",
       "GPS-MANIFEST 1\n4 42 1000 1\n2 9 1 1\n1\n"
       "9 111 250 777 shard.gps\n",
       StatusCode::kInvalidArgument},
      {"duplicate entry",
       "GPS-MANIFEST 1\n4 42 1000 1\n2 9 1 1\n2\n"
       "0 111 250 777 a.gps\n0 111 250 777 b.gps\n",
       StatusCode::kInvalidArgument},
      {"more entries than shards",
       "GPS-MANIFEST 1\n2 42 1000 1\n2 9 1 1\n3\n"
       "0 1 2 3 a.gps\n1 1 2 3 b.gps\n1 1 2 3 c.gps\n",
       StatusCode::kInvalidArgument},
      {"path traversal filename",
       "GPS-MANIFEST 1\n4 42 1000 1\n2 9 1 1\n1\n"
       "0 111 250 777 ../evil.gps\n",
       StatusCode::kInvalidArgument},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    std::stringstream buffer(c.text);
    auto r = DeserializeManifest(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), c.want) << r.status().ToString();
  }
}

TEST(SerializeTest, ManifestVersionCompatibility) {
  // Version 1 (pre stream-offset) still reads, reporting offset 0.
  {
    std::stringstream v1(
        "GPS-MANIFEST 1\n4 42 1000 1\n2 9 1 1\n1\n"
        "0 111 250 777 shard.gps\n");
    auto r = DeserializeManifest(v1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stream_offset, 0u);
    EXPECT_EQ(r->num_shards, 4u);
  }
  // Version 2 reads the offset from the layout line.
  {
    std::stringstream v2(
        "GPS-MANIFEST 2\n4 42 1000 1 900\n2 9 1 1\n1\n"
        "0 111 250 777 shard.gps\n");
    auto r = DeserializeManifest(v2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stream_offset, 900u);
  }
  // A truncated version-2 layout line is an IO error, not a misparse.
  {
    std::stringstream truncated("GPS-MANIFEST 2\n4 42 1000 1\n");
    auto r = DeserializeManifest(truncated);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  // Version 3 adds the motif-set line; an empty set reads like v2.
  // Pre-v4 manifests report no budget provenance.
  {
    std::stringstream v3(
        "GPS-MANIFEST 3\n4 42 1000 1 900\n2 9 1 1\n0\n1\n"
        "0 111 250 777 shard.gps\n");
    auto r = DeserializeManifest(v3);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stream_offset, 900u);
    EXPECT_TRUE(r->motif_names.empty());
    EXPECT_EQ(r->mem_budget_bytes, 0u);
  }
  // Version 4 appends the --mem budget the capacity was derived from to
  // the layout line; 0 marks an explicit --capacity run.
  {
    std::stringstream v4(
        "GPS-MANIFEST 4\n4 42 1000 1 900 141096\n2 9 1 1\n0\n1\n"
        "0 111 250 777 shard.gps\n");
    auto r = DeserializeManifest(v4);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->mem_budget_bytes, 141096u);
  }
  // A truncated version-4 layout line (budget missing) is an IO error.
  {
    std::stringstream truncated("GPS-MANIFEST 4\n4 42 1000 1 900\n");
    auto r = DeserializeManifest(truncated);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  // Unknown future versions are refused by name: their layout lines may
  // carry fields this reader does not understand.
  {
    std::stringstream v5(
        "GPS-MANIFEST 5\n4 42 1000 1 900 0 extra\n2 9 1 1\n0\n0\n");
    auto r = DeserializeManifest(v5);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("version"), std::string::npos)
        << r.status().ToString();
  }
  // Writers always emit the current version.
  std::stringstream out;
  ASSERT_TRUE(SerializeManifest(TestManifest(), out).ok());
  EXPECT_EQ(out.str().rfind("GPS-MANIFEST 4", 0), 0u) << out.str();
}

TEST(SerializeTest, ManifestCapacityProvenanceCrossChecked) {
  // A version-4 manifest whose recorded budget does not derive its
  // recorded capacity is corrupt (or hand-edited): resuming it would
  // silently run under a different memory envelope than the operator
  // budgeted. LayoutForCapacity(1000) needs 141096 bytes, so that budget
  // round-trips...
  ShardManifest manifest;
  manifest.num_shards = 1;
  manifest.base_seed = 42;
  manifest.total_capacity = 1000;
  manifest.stream_offset = 250;
  manifest.mem_budget_bytes = 141096;
  manifest.entries.push_back({0, 9, 250, 777, "shard.gps", {}});
  std::stringstream buffer;
  ASSERT_TRUE(SerializeManifest(manifest, buffer).ok());
  auto ok = DeserializeManifest(buffer);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->mem_budget_bytes, 141096u);

  // ...while a 10M budget derives 76508 slots, not 1000: refused by name
  // on write and on read.
  manifest.mem_budget_bytes = 10485760;
  std::stringstream corrupt_buffer;
  const Status write = SerializeManifest(manifest, corrupt_buffer);
  ASSERT_FALSE(write.ok());
  EXPECT_NE(write.message().find("provenance"), std::string::npos)
      << write.ToString();
  {
    std::stringstream crafted(
        "GPS-MANIFEST 4\n1 42 1000 1 250 10485760\n2 9 1 1\n0\n1\n"
        "0 9 250 777 shard.gps\n");
    auto r = DeserializeManifest(crafted);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("provenance"), std::string::npos)
        << r.status().ToString();
  }
  // A budget too small for even one slot is refused by the layout
  // derivation, with the refusal's context naming the manifest field.
  {
    std::stringstream crafted(
        "GPS-MANIFEST 4\n1 42 1000 1 250 12\n2 9 1 1\n0\n1\n"
        "0 9 250 777 shard.gps\n");
    auto r = DeserializeManifest(crafted);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("manifest memory budget"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(SerializeTest, ChecksumIsStableAndSensitive) {
  const uint64_t a = ChecksumBytes("GPS checkpoint payload");
  EXPECT_EQ(a, ChecksumBytes("GPS checkpoint payload"));
  EXPECT_NE(a, ChecksumBytes("GPS checkpoint payloaD"));
  EXPECT_NE(ChecksumBytes(""), ChecksumBytes(std::string_view("\0", 1)));
}

}  // namespace
}  // namespace gps
