// Tests for in-stream estimation (Algorithm 3): exactness without eviction,
// unbiasedness under eviction, variance calibration, the identical-sample-
// path protocol, and the variance advantage over post-stream estimation.

#include "core/in_stream.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "core/post_stream.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "util/welford.h"

namespace gps {
namespace {

GraphEstimates RunInStream(const std::vector<Edge>& stream, size_t capacity,
                           uint64_t seed) {
  GpsSamplerOptions options;
  options.capacity = capacity;
  options.seed = seed;
  InStreamEstimator est(options);
  for (const Edge& e : stream) est.Process(e);
  return est.Estimates();
}

TEST(InStreamTest, ExactWhenNothingEvicted) {
  EdgeList graph = GenerateErdosRenyi(60, 250, 101).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  const std::vector<Edge> stream = MakePermutedStream(graph, 102);
  const GraphEstimates est = RunInStream(stream, stream.size() + 5, 103);
  EXPECT_DOUBLE_EQ(est.triangles.value, actual.triangles);
  EXPECT_DOUBLE_EQ(est.wedges.value, actual.wedges);
  EXPECT_DOUBLE_EQ(est.triangles.variance, 0.0);
  EXPECT_DOUBLE_EQ(est.wedges.variance, 0.0);
}

TEST(InStreamTest, SingleTriangleStepByStep) {
  GpsSamplerOptions options;
  options.capacity = 10;
  options.seed = 1;
  InStreamEstimator est(options);
  est.Process(MakeEdge(0, 1));
  EXPECT_EQ(est.Estimates().triangles.value, 0.0);
  EXPECT_EQ(est.Estimates().wedges.value, 0.0);
  est.Process(MakeEdge(1, 2));
  EXPECT_EQ(est.Estimates().wedges.value, 1.0);
  est.Process(MakeEdge(0, 2));
  EXPECT_EQ(est.Estimates().triangles.value, 1.0);
  EXPECT_EQ(est.Estimates().wedges.value, 3.0);
}

TEST(InStreamTest, SkipsDuplicatesAndLoops) {
  GpsSamplerOptions options;
  options.capacity = 10;
  options.seed = 1;
  InStreamEstimator est(options);
  est.Process(MakeEdge(0, 1));
  est.Process(MakeEdge(0, 1));  // duplicate: no wedge/triangle, no resample
  est.Process(Edge{2, 2});      // loop
  est.Process(MakeEdge(1, 2));
  EXPECT_EQ(est.Estimates().wedges.value, 1.0);
  EXPECT_EQ(est.reservoir().size(), 2u);
}

TEST(InStreamTest, TriangleCountUnbiasedUnderEviction) {
  EdgeList graph = GenerateBarabasiAlbert(150, 5, 0.5, 111).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  ASSERT_GT(actual.triangles, 50.0);
  const std::vector<Edge> stream = MakePermutedStream(graph, 112);

  OnlineStats tri, wed;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const GraphEstimates est =
        RunInStream(stream, stream.size() / 3, 6000 + trial);
    tri.Add(est.triangles.value);
    wed.Add(est.wedges.value);
  }
  EXPECT_NEAR(tri.Mean(), actual.triangles, 4.0 * tri.StdError());
  EXPECT_NEAR(wed.Mean(), actual.wedges, 4.0 * wed.StdError());
}

TEST(InStreamTest, VarianceEstimatorCalibrated) {
  EdgeList graph = GenerateWattsStrogatz(200, 8, 0.1, 121).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 122);

  OnlineStats est_values, var_estimates;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const GraphEstimates est =
        RunInStream(stream, stream.size() / 3, 7000 + trial);
    est_values.Add(est.triangles.value);
    var_estimates.Add(est.triangles.variance);
  }
  const double empirical = est_values.SampleVariance();
  ASSERT_GT(empirical, 0.0);
  EXPECT_GT(var_estimates.Mean() / empirical, 0.5);
  EXPECT_LT(var_estimates.Mean() / empirical, 2.0);
}

TEST(InStreamTest, SamplePathIdenticalToPostStreamSampler) {
  // Protocol requirement (paper Section 6): with equal seeds, the in-stream
  // estimator and a pure GPS sampler must select the same edges and the
  // same threshold.
  EdgeList graph = GenerateChungLu(300, 1500, 2.2, 131).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 132);

  GpsSamplerOptions options;
  options.capacity = 200;
  options.seed = 777;
  GpsSampler sampler(options);
  InStreamEstimator in_stream(options);
  for (const Edge& e : stream) {
    sampler.Process(e);
    in_stream.Process(e);
  }
  EXPECT_EQ(sampler.reservoir().size(), in_stream.reservoir().size());
  EXPECT_DOUBLE_EQ(sampler.reservoir().threshold(),
                   in_stream.reservoir().threshold());
  size_t matched = 0;
  sampler.reservoir().ForEachEdge(
      [&](SlotId, const GpsReservoir::EdgeRecord& rec) {
        if (in_stream.reservoir().graph().HasEdge(rec.edge)) ++matched;
      });
  EXPECT_EQ(matched, sampler.reservoir().size());
}

TEST(InStreamTest, LowerVarianceThanPostStream) {
  // The paper's key claim for in-stream estimation: on the same samples it
  // yields lower-variance triangle estimates than post-stream estimation.
  EdgeList graph = GenerateBarabasiAlbert(250, 6, 0.5, 141).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 142);

  OnlineStats post_vals, in_vals;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    GpsSamplerOptions options;
    options.capacity = stream.size() / 4;
    options.seed = 8000 + trial;
    InStreamEstimator in_stream(options);
    for (const Edge& e : stream) in_stream.Process(e);
    in_vals.Add(in_stream.Estimates().triangles.value);
    post_vals.Add(
        EstimatePostStream(in_stream.reservoir()).triangles.value);
  }
  EXPECT_LT(in_vals.SampleVariance(), post_vals.SampleVariance());
}

TEST(InStreamTest, ConfidenceIntervalsCoverTruth) {
  EdgeList graph = GenerateBarabasiAlbert(200, 5, 0.4, 151).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  const std::vector<Edge> stream = MakePermutedStream(graph, 152);

  int covered = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const GraphEstimates est =
        RunInStream(stream, stream.size() / 3, 9000 + trial);
    if (actual.triangles >= est.triangles.Lower() &&
        actual.triangles <= est.triangles.Upper()) {
      ++covered;
    }
  }
  EXPECT_GE(covered, static_cast<int>(0.85 * trials));
}

TEST(InStreamTest, ClusteringCoefficientConverges) {
  EdgeList graph = GenerateWattsStrogatz(400, 10, 0.2, 161).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  const std::vector<Edge> stream = MakePermutedStream(graph, 162);

  OnlineStats cc;
  for (int trial = 0; trial < 150; ++trial) {
    const GraphEstimates est =
        RunInStream(stream, stream.size() / 3, 10000 + trial);
    cc.Add(est.ClusteringCoefficient().value);
  }
  // CC is a ratio estimator (biased but consistent); allow a modest band.
  EXPECT_NEAR(cc.Mean(), actual.ClusteringCoefficient(),
              0.1 * actual.ClusteringCoefficient() + 4.0 * cc.StdError());
}

TEST(InStreamTest, MonotoneNondecreasingCounts) {
  // Snapshots are frozen: the in-stream triangle/wedge counters never
  // decrease as the stream advances.
  EdgeList graph = GenerateBarabasiAlbert(120, 4, 0.5, 171).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 172);
  GpsSamplerOptions options;
  options.capacity = 80;
  options.seed = 3;
  InStreamEstimator est(options);
  double last_tri = 0.0, last_wed = 0.0;
  for (const Edge& e : stream) {
    est.Process(e);
    const GraphEstimates now = est.Estimates();
    EXPECT_GE(now.triangles.value, last_tri);
    EXPECT_GE(now.wedges.value, last_wed);
    last_tri = now.triangles.value;
    last_wed = now.wedges.value;
  }
}

// Bit-level goldens on a hub-heavy stream. Hub blocks in the sampled
// adjacency run past 64 entries (checked below), far longer than the wedge
// loop's prefetch look-ahead, so the loop's steady state (prefetching ahead while
// accumulating the current entry) and its tail both run. The hex floats
// were recorded from the estimator before the hot-record layout, register
// accumulators and look-ahead prefetch; the accumulation order is part of
// the estimator's contract, so they must reproduce bit for bit. A mismatch
// prints the observed values in the goldens' own syntax.
TEST(InStreamTest, HubHeavyStreamBitIdentical) {
  EdgeList graph = GenerateChungLu(3000, 30000, 2.0, 191).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 192);
  GpsSamplerOptions options;
  options.capacity = 3000;
  options.seed = 193;
  InStreamEstimator est(options);
  for (const Edge& e : stream) est.Process(e);

  size_t max_degree = 0;
  est.reservoir().graph().ForEachNode([&](NodeId, size_t degree) {
    max_degree = std::max(max_degree, degree);
  });
  EXPECT_GT(max_degree, 64u) << "stream no longer exercises long blocks";
  EXPECT_GT(est.reservoir().threshold(), 0.0) << "no eviction happened";

  const GraphEstimates g = est.Estimates();
  const InStreamEstimator::Accumulators a = est.SaveAccumulators();
  const double observed[10] = {g.triangles.value, g.triangles.variance,
                               g.wedges.value,    g.wedges.variance,
                               g.tri_wedge_cov,   a.n_tri,
                               a.v_tri,           a.n_wed,
                               a.v_wed,           a.cov_tw};
  const double golden[10] = {
      0x1.01c4175b773efp+17, 0x1.3729a89b917bep+26, 0x1.0ade9cf70fee5p+22,
      0x1.fc25e66aa88eap+33, 0x1.e79de66148273p+28, 0x1.01c4175b773efp+17,
      0x1.3729a89b917bep+26, 0x1.0ade9cf70fee5p+22, 0x1.fc25e66aa88eap+33,
      0x1.e79de66148273p+28};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(observed[i]),
              std::bit_cast<uint64_t>(golden[i]))
        << "field " << i;
  }
  char row[256];
  std::snprintf(row, sizeof(row), "{%a, %a, %a, %a, %a,\n %a, %a, %a, %a, %a}",
                observed[0], observed[1], observed[2], observed[3],
                observed[4], observed[5], observed[6], observed[7],
                observed[8], observed[9]);
  if (HasFailure()) ADD_FAILURE() << "observed:\n" << row;
}

// Parameterized capacity sweep: unbiasedness at several sampling fractions.
class InStreamCapacityTest : public ::testing::TestWithParam<int> {};

TEST_P(InStreamCapacityTest, UnbiasedAtFractionPercent) {
  const int percent = GetParam();
  EdgeList graph = GenerateBarabasiAlbert(150, 5, 0.4, 181).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  const std::vector<Edge> stream = MakePermutedStream(graph, 182);
  const size_t capacity =
      std::max<size_t>(10, stream.size() * percent / 100);

  OnlineStats tri;
  const int trials = 250;
  for (int trial = 0; trial < trials; ++trial) {
    tri.Add(RunInStream(stream, capacity, 11000 + 37 * trial)
                .triangles.value);
  }
  EXPECT_NEAR(tri.Mean(), actual.triangles,
              std::max(4.0 * tri.StdError(), 0.02 * actual.triangles))
      << percent << "% capacity";
}

INSTANTIATE_TEST_SUITE_P(Fractions, InStreamCapacityTest,
                         ::testing::Values(10, 25, 50, 80));

}  // namespace
}  // namespace gps
