// Tests for parallel post-stream estimation: bit-identical to the serial
// implementation at every thread count and reservoir size.

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/gps.h"
#include "core/post_stream.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/ordered_fold.h"

namespace gps {
namespace {

GpsSampler SampleGraph(size_t capacity, uint64_t seed) {
  EdgeList graph = GenerateBarabasiAlbert(6000, 8, 0.5, 701).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 702);
  GpsSamplerOptions options;
  options.capacity = capacity;
  options.seed = seed;
  GpsSampler sampler(options);
  for (const Edge& e : stream) sampler.Process(e);
  return sampler;
}

void ExpectSameBits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << what << ": " << std::hexfloat << a << " vs " << b;
}

void ExpectBitIdentical(const GraphEstimates& a, const GraphEstimates& b) {
  ExpectSameBits(a.triangles.value, b.triangles.value, "triangles");
  ExpectSameBits(a.triangles.variance, b.triangles.variance,
                 "triangle variance");
  ExpectSameBits(a.wedges.value, b.wedges.value, "wedges");
  ExpectSameBits(a.wedges.variance, b.wedges.variance, "wedge variance");
  ExpectSameBits(a.tri_wedge_cov, b.tri_wedge_cov, "tri-wedge covariance");
}

class ParallelPostStreamTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPostStreamTest, MatchesSerialEstimatesBitForBit) {
  // Several fold windows, so every thread count above 1 really splits
  // the pass.
  const GpsSampler sampler = SampleGraph(30000, 703);
  ASSERT_GE(sampler.reservoir().size(), 3 * kOrderedFoldWindow);
  const GraphEstimates serial = EstimatePostStream(sampler.reservoir());
  const GraphEstimates parallel =
      EstimatePostStreamParallel(sampler.reservoir(), GetParam());
  ExpectBitIdentical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelPostStreamTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

TEST(ParallelPostStreamTest, SmallReservoirFallsBackToSerial) {
  const GpsSampler sampler = SampleGraph(200, 704);  // < one fold window
  const GraphEstimates serial = EstimatePostStream(sampler.reservoir());
  const GraphEstimates parallel =
      EstimatePostStreamParallel(sampler.reservoir(), 8);
  ExpectBitIdentical(serial, parallel);
}

TEST(ParallelPostStreamTest, EmptyReservoir) {
  GpsReservoir empty(GpsOptions{16, 1});
  const GraphEstimates est = EstimatePostStreamParallel(empty, 4);
  EXPECT_EQ(est.triangles.value, 0.0);
  EXPECT_EQ(est.wedges.value, 0.0);
}

}  // namespace
}  // namespace gps
