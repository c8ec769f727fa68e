// Bit-level goldens for every union-sample pass (engine/merge.h) and the
// post-stream estimator (core/post_stream.h), plus the ordered fold
// they run on (util/ordered_fold.h).
//
// The goldens are hex floats recorded from the single-threaded passes
// that predate the ordered fold. The parallel passes must reproduce
// them bit for bit on any host and at any thread count: every per-edge
// term is computed by the same code, and the fold adds the terms in
// sample order, exactly as the serial loop did. A mismatch prints the
// observed row in the table's own syntax.
//
// The fixture's union sample spans at least three fold windows, so the
// window hand-off (and, on multi-core hosts, several workers) is
// exercised. A steal-mode engine covers the per-slot sub-stratum path.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gps.h"
#include "core/post_stream.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/ordered_fold.h"

namespace gps {
namespace {

using engine_test::FreshDir;
using engine_test::ManifestPath;

constexpr size_t kCapacity = 30000;
constexpr uint64_t kSamplerSeed = 1207;

const std::vector<Edge>& Stream() {
  static const std::vector<Edge> stream = [] {
    EdgeList graph = GenerateBarabasiAlbert(12000, 6, 0.3, 1205).value();
    return MakePermutedStream(graph, 1206);
  }();
  return stream;
}

struct Golden {
  double tri, tri_var, wed, wed_var, cov;
};

// Recorded from the serial passes; see the file comment.
const std::map<std::string, Golden>& Goldens() {
  static const std::map<std::string, Golden> goldens = {
      {"K1.checkpoint",
       {0x1.3bbd20378ce6bp+14, 0x1.124d0e53c87b4p+16, 0x1.1fc60ee24c90ap+21,
        0x1.71b7f0fbc00edp+26, 0x1.0a258b78aa46dp+20}},
      {"K1.cross",
       {0x0p+0, 0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0}},
      {"K1.merged",
       {0x1.3bbd20378ce6bp+14, 0x1.124d0e53c87b4p+16, 0x1.1fc60ee24c90ap+21,
        0x1.71b7f0fbc00edp+26, 0x1.0a258b78aa46dp+20}},
      {"K1.merged_post",
       {0x1.3d4411b36b9ap+14, 0x1.50831eaa44c5ep+17, 0x1.1ccdbacab620cp+21,
        0x1.26172f60baff8p+30, 0x1.80a8437d9aa8bp+22}},
      {"K2.checkpoint",
       {0x1.43ab096aedeafp+14, 0x1.1d3f981106868p+18, 0x1.210d7533b27d8p+21,
        0x1.551179f48c228p+28, 0x1.00c44e4e4822dp+22}},
      {"K2.cross",
       {0x1.e492bffea7eedp+13, 0x1.0ed43110aaa44p+18, 0x1.21e28c7d52079p+20,
        0x1.3c6d88900368fp+28, 0x1.eba251a66ca27p+21}},
      {"K2.merged",
       {0x1.43ab096aedeafp+14, 0x1.1d3f981106868p+18, 0x1.210d7533b27d8p+21,
        0x1.551179f48c228p+28, 0x1.00c44e4e4822dp+22}},
      {"K2.merged_post",
       {0x1.48d2f7861594ep+14, 0x1.55a06e3de53dbp+18, 0x1.2191a0c254a75p+21,
        0x1.38a3c7302682p+30, 0x1.2c398fc85c82ap+23}},
      {"K3.checkpoint",
       {0x1.441aac5139e83p+14, 0x1.50dd12bec5adap+18, 0x1.21ee96add0a3dp+21,
        0x1.1c83d21ad9e08p+29, 0x1.7dacd1a93d6d3p+22}},
      {"K3.cross",
       {0x1.1e948f4636a63p+14, 0x1.4ab75976c59bcp+18, 0x1.83fc0afaf67f1p+20,
        0x1.16e3e9344959fp+29, 0x1.7a2b09db45edbp+22}},
      {"K3.merged",
       {0x1.441aac5139e83p+14, 0x1.50dd12bec5adap+18, 0x1.21ee96add0a3dp+21,
        0x1.1c83d21ad9e08p+29, 0x1.7dacd1a93d6d3p+22}},
      {"K3.merged_post",
       {0x1.4320c7a845d76p+14, 0x1.697468ca18796p+18, 0x1.228276b3d3927p+21,
        0x1.383e760e4b3b3p+30, 0x1.3408ed1b78603p+23}},
      {"K4.checkpoint",
       {0x1.45c4614bfeb57p+14, 0x1.798294621cc53p+18, 0x1.23bc270126dap+21,
        0x1.6bf3b3555664bp+29, 0x1.e004bfd25384p+22}},
      {"K4.cross",
       {0x1.30352f8836895p+14, 0x1.7601640e31aa7p+18, 0x1.b6d1acffdb9c3p+20,
        0x1.68abe89f29afp+29, 0x1.de76702c58b38p+22}},
      {"K4.merged",
       {0x1.45c4614bfeb57p+14, 0x1.798294621cc53p+18, 0x1.23bc270126dap+21,
        0x1.6bf3b3555664bp+29, 0x1.e004bfd25384p+22}},
      {"K4.merged_post",
       {0x1.45e1af0ff7055p+14, 0x1.89184e3244a53p+18, 0x1.243339fbe75f7p+21,
        0x1.3ed0fd727f042p+30, 0x1.4ce96dc74dac1p+23}},
      {"K4.steal.merged",
       {0x1.590aca6e41ddbp+14, 0x1.d3bdb380273f6p+18, 0x1.2258785c1ac5fp+21,
        0x1.3733926c54e1dp+30, 0x1.71744b0cde8fcp+23}},
      {"post",
       {0x1.3d4411b36b9ap+14, 0x1.50831eaa44c5ep+17, 0x1.1ccdbacab620cp+21,
        0x1.26172f60baff8p+30, 0x1.80a8437d9aa8bp+22}},
  };
  return goldens;
}

std::string HexRow(const std::string& name, const GraphEstimates& e) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "{\"%s\", {%a, %a, %a, %a, %a}},",
                name.c_str(), e.triangles.value, e.triangles.variance,
                e.wedges.value, e.wedges.variance, e.tri_wedge_cov);
  return buf;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectGolden(const std::string& name, const GraphEstimates& e) {
  const auto it = Goldens().find(name);
  ASSERT_NE(it, Goldens().end()) << "missing golden:\n" << HexRow(name, e);
  const Golden& g = it->second;
  EXPECT_TRUE(SameBits(g.tri, e.triangles.value) &&
              SameBits(g.tri_var, e.triangles.variance) &&
              SameBits(g.wed, e.wedges.value) &&
              SameBits(g.wed_var, e.wedges.variance) &&
              SameBits(g.cov, e.tri_wedge_cov))
      << "observed:\n" << HexRow(name, e);
}

std::unique_ptr<ShardedEngine> RunEngine(uint32_t shards, StealMode steal) {
  ShardedEngineOptions options;
  options.sampler.capacity = kCapacity;
  options.sampler.seed = kSamplerSeed;
  options.num_shards = shards;
  options.steal = steal;
  if (steal != StealMode::kDisabled) options.batch_size = 256;
  auto engine = std::make_unique<ShardedEngine>(options);
  engine->ProcessEdges(Stream());
  engine->Finish();
  return engine;
}

std::vector<const GpsReservoir*> Reservoirs(const ShardedEngine& engine) {
  std::vector<const GpsReservoir*> out;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    out.push_back(&engine.shard(s).reservoir());
  }
  return out;
}

class MergeBitsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MergeBitsTest, UnionPassesMatchSerialGoldens) {
  const uint32_t k = GetParam();
  const std::string tag = "K" + std::to_string(k) + ".";
  const std::unique_ptr<ShardedEngine> engine =
      RunEngine(k, StealMode::kDisabled);
  const std::vector<const GpsReservoir*> reservoirs = Reservoirs(*engine);

  const UnionSample sample = BuildUnionSample(reservoirs);
  if (k >= 2) {
    ASSERT_GE(sample.num_edges(), 3 * kOrderedFoldWindow);
  }

  const GraphEstimates merged = engine->MergedEstimates();
  ExpectGolden(tag + "merged", merged);
  ExpectGolden(tag + "cross", EstimateCrossShard(reservoirs));
  engine_test::ExpectExactlyEqual(EstimateCrossShard(sample),
                                  EstimateCrossShard(reservoirs));
  ExpectGolden(tag + "merged_post", EstimateMergedPostStream(reservoirs));

  const std::filesystem::path dir = FreshDir("merge_bits", tag);
  ASSERT_TRUE(engine->SerializeShards(dir.string()).ok());
  const std::vector<std::string> manifests = {ManifestPath(dir)};
  const Result<GraphEstimates> restored =
      ShardedEngine::MergeFromCheckpoints(manifests);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectGolden(tag + "checkpoint", *restored);
  engine_test::ExpectExactlyEqual(*restored, merged);
}

INSTANTIATE_TEST_SUITE_P(Shards, MergeBitsTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(MergeBitsTest, StealModeSubStrataMatchSerialGolden) {
  const std::unique_ptr<ShardedEngine> engine =
      RunEngine(4, StealMode::kActive);
  ExpectGolden("K4.steal.merged", engine->MergedEstimates());
}

TEST(MergeBitsTest, PostStreamMatchesSerialGoldenAtEveryThreadCount) {
  GpsSamplerOptions options;
  options.capacity = kCapacity;
  options.seed = kSamplerSeed;
  GpsSampler sampler(options);
  for (const Edge& e : Stream()) sampler.Process(e);
  ASSERT_GE(sampler.reservoir().size(), 3 * kOrderedFoldWindow);

  ExpectGolden("post", EstimatePostStream(sampler.reservoir()));
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ExpectGolden("post",
                 EstimatePostStreamParallel(sampler.reservoir(), threads));
  }
}

// ---- ParallelOrderedFold itself -------------------------------------------

// A fold that is deliberately not associative: any reordering or
// regrouping of the items changes the bits of the result.
struct ChaoticFold {
  double acc = 0.25;
  uint64_t order_hash = 0;
  size_t next = 0;
  bool in_order = true;

  void operator()(size_t i, double x) {
    in_order &= (i == next++);
    acc = std::sin(acc) * 1.000000119 + x / (1.0 + std::fabs(acc));
    order_hash = order_hash * 1099511628211ull + i;
  }
};

double ItemTerm(size_t i) {
  return std::cos(static_cast<double>(i) * 0.731) * 1e-3 +
         static_cast<double>(i % 97);
}

TEST(OrderedFoldTest, NonAssociativeFoldMatchesSerialBits) {
  const size_t n = 3 * kOrderedFoldWindow + 17;
  ChaoticFold serial;
  for (size_t i = 0; i < n; ++i) serial(i, ItemTerm(i));

  for (unsigned threads : {1u, 2u, 3u, 4u, 8u, 16u}) {
    SCOPED_TRACE(threads);
    ChaoticFold folded;
    ParallelOrderedFold(
        n, threads, [](size_t i) { return ItemTerm(i); },
        [&](size_t i, double x) { folded(i, x); });
    EXPECT_TRUE(folded.in_order);
    EXPECT_EQ(folded.next, n);
    EXPECT_EQ(folded.order_hash, serial.order_hash);
    EXPECT_TRUE(SameBits(folded.acc, serial.acc))
        << std::hexfloat << folded.acc << " vs " << serial.acc;
  }
}

TEST(OrderedFoldTest, ComputesEveryItemExactlyOnce) {
  const size_t n = 2 * kOrderedFoldWindow + 5;
  std::vector<std::atomic<int>> computed(n);
  size_t folded = 0;
  ParallelOrderedFold(
      n, 4,
      [&](size_t i) {
        computed[i].fetch_add(1, std::memory_order_relaxed);
        return i;
      },
      [&](size_t i, size_t item) {
        EXPECT_EQ(i, item);
        ++folded;
      });
  EXPECT_EQ(folded, n);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(computed[i].load(), 1) << i;
}

TEST(OrderedFoldTest, EmptyAndTinyInputs) {
  size_t calls = 0;
  ParallelOrderedFold(
      0, 8, [](size_t i) { return i; }, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  ParallelOrderedFold(
      3, 8, [](size_t i) { return i * 2; },
      [&](size_t i, size_t item) {
        EXPECT_EQ(item, i * 2);
        ++calls;
      });
  EXPECT_EQ(calls, 3u);
}

}  // namespace
}  // namespace gps
