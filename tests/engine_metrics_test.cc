// Observability subsystem contracts (util/metrics.h, util/trace.h, and
// their engine instrumentation).
//
// The load-bearing property mirrors the steal scheduler's: observation
// must be invisible. Metrics and tracing never feed back into sampling
// decisions, so a run with a trace sink attached and mid-stream metric
// snapshots taken is byte-identical (shard reservoirs, merged estimates)
// to a bare run. The suite also pins the primitive semantics the engine
// counters rely on — power-of-two histogram bucketing, same-name
// aggregation (sum counters/buckets, max gauges) — and the steal-off
// invariant that no steal metric moves unless a thief actually fires.
//
// Runs under TSan in CI (name matches the engine_ test regex): snapshot
// aggregation races against live relaxed-atomic writers by design.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace gps {
namespace {

using engine_test::ExpectExactlyEqual;
using engine_test::FreshDir;
using engine_test::ReservoirBytes;

std::vector<Edge> TestStream(uint32_t nodes, uint32_t edges_per_node,
                             uint64_t graph_seed, uint64_t stream_seed) {
  EdgeList graph =
      GenerateBarabasiAlbert(nodes, edges_per_node, 0.6, graph_seed).value();
  return MakePermutedStream(graph, stream_seed);
}

ShardedEngineOptions EngineOptions(uint32_t shards, size_t capacity,
                                   uint64_t seed,
                                   StealMode steal = StealMode::kDisabled) {
  ShardedEngineOptions options;
  options.sampler.capacity = capacity;
  options.sampler.seed = seed;
  options.num_shards = shards;
  options.batch_size = 64;
  options.steal = steal;
  return options;
}

// ---------------------------------------------------------------------------
// Primitive semantics.

TEST(LatencyHistogramTest, PowerOfTwoBuckets) {
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
  if (!MetricsEnabled()) GTEST_SKIP() << "built with GPS_METRICS=0";
  // floor(log2(ns)): 1 -> bucket 0, [2,4) -> 1, 1024 -> 10, and the top
  // bucket absorbs overflow.
  EXPECT_EQ(LatencyHistogram::BucketFor(1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(2), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(3), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1024), 10u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1025), 10u);
  EXPECT_EQ(LatencyHistogram::BucketFor(~uint64_t{0}),
            LatencyHistogram::kNumBuckets - 1);

  LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(1024);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.SumNs(), 1025u);
  EXPECT_EQ(h.BucketCount(0), 2u);  // 0ns and 1ns share bucket 0
  EXPECT_EQ(h.BucketCount(10), 1u);
}

TEST(MetricsRegistryTest, AggregatesSameNameInstances) {
  if (!MetricsEnabled()) GTEST_SKIP() << "built with GPS_METRICS=0";
  Counter c0, c1;
  c0.Add(3);
  c1.Add(4);
  Gauge g0, g1;
  g0.Set(1.5);
  g1.Set(9.25);
  LatencyHistogram h0, h1;
  h0.Record(8);    // bucket 3
  h1.Record(9);    // bucket 3
  h1.Record(100);  // bucket 6

  MetricsRegistry registry;
  registry.AddCounter("c", &c0);
  registry.AddCounter("c", &c1);
  registry.AddGauge("g", &g0);
  registry.AddGauge("g", &g1);
  registry.AddHistogram("h", &h0);
  registry.AddHistogram("h", &h1);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterOr0("c"), 7u);         // summed
  EXPECT_EQ(snap.GaugeOr0("g"), 9.25);         // max
  MetricsSnapshot::HistogramValue h;
  ASSERT_TRUE(snap.FindHistogram("h", &h));
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum_ns, 117u);
  EXPECT_EQ(h.buckets[3], 2u);  // bucket-wise sum
  EXPECT_EQ(h.buckets[6], 1u);

  // Absent names answer zero, not UB.
  EXPECT_EQ(snap.CounterOr0("missing"), 0u);
  EXPECT_EQ(snap.GaugeOr0("missing"), 0.0);
  EXPECT_FALSE(snap.FindHistogram("missing", nullptr));
}

TEST(MetricsSnapshotTest, ToJsonIsStableAndWellFormed) {
  MetricsSnapshot snap;
  snap.counters.push_back({"a.count", 7});
  snap.gauges.push_back({"b.gauge", 2.5});
  MetricsSnapshot::HistogramValue h;
  h.name = "c.hist";
  h.count = 1;
  h.sum_ns = 1024;
  h.buckets.assign(LatencyHistogram::kNumBuckets, 0);
  h.buckets[10] = 1;
  snap.histograms.push_back(h);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\": 2.5"), std::string::npos);
  // Histogram bucket keys are the bucket's lower bound in ns (2^10).
  EXPECT_NE(json.find("\"1024\": 1"), std::string::npos);
  // Empty snapshots still render all three sections.
  const std::string empty = MetricsSnapshot{}.ToJson();
  EXPECT_NE(empty.find("\"counters\""), std::string::npos);
  EXPECT_NE(empty.find("\"gauges\""), std::string::npos);
  EXPECT_NE(empty.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine instrumentation.

TEST(EngineMetricsTest, CountersNonzeroAfterRun) {
  const std::vector<Edge> stream = TestStream(600, 8, 11, 12);
  ShardedEngine engine(EngineOptions(4, 200, 7));
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  const MetricsSnapshot snap = engine.SnapshotMetrics();
  if (!MetricsEnabled()) {
    EXPECT_TRUE(snap.empty());
    return;
  }
  EXPECT_EQ(snap.GaugeOr0("engine.edges_ingested"),
            static_cast<double>(stream.size()));
  EXPECT_GT(snap.CounterOr0("worker.batches_processed"), 0u);
  EXPECT_GT(snap.CounterOr0("reservoir.admissions"), 0u);
  // Stream >> capacity: the threshold rises, so the O(1) precheck must
  // have rejected and the heap must have evicted.
  EXPECT_GT(snap.CounterOr0("reservoir.precheck_rejects"), 0u);
  EXPECT_GT(snap.CounterOr0("reservoir.evictions"), 0u);
  EXPECT_GT(snap.GaugeOr0("reservoir.zstar"), 0.0);
  EXPECT_EQ(snap.GaugeOr0("reservoir.sample_size"), 200.0);
  EXPECT_GT(snap.GaugeOr0("ring.occupancy_hwm"), 0.0);
  // Per-stratum sample sizes cover every shard and sum to the total.
  double strata_total = 0.0;
  for (uint32_t s = 0; s < 4; ++s) {
    strata_total +=
        snap.GaugeOr0("merge.sample_size.shard" + std::to_string(s));
  }
  EXPECT_EQ(strata_total, 200.0);
  MetricsSnapshot::HistogramValue latency;
  ASSERT_TRUE(snap.FindHistogram("worker.batch_latency", &latency));
  EXPECT_EQ(latency.count, snap.CounterOr0("worker.batches_processed"));
  EXPECT_GT(latency.sum_ns, 0u);
}

TEST(EngineMetricsTest, MonitorRecordCarriesSnapshot) {
  const std::vector<Edge> stream = TestStream(400, 8, 21, 22);
  ShardedEngine engine(EngineOptions(2, 150, 5));
  std::vector<MetricsSnapshot> seen;
  engine.EstimateEvery(1000, [&](const MonitorRecord& record) {
    seen.push_back(record.metrics);
  });
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  ASSERT_GT(seen.size(), 1u);
  if (!MetricsEnabled()) {
    EXPECT_TRUE(seen.back().empty());
    return;
  }
  // Snapshots ride the monitor cadence: edge counts advance monotonically.
  EXPECT_EQ(seen[0].GaugeOr0("engine.edges_ingested"), 1000.0);
  EXPECT_EQ(seen[1].GaugeOr0("engine.edges_ingested"), 2000.0);
  EXPECT_GT(seen.back().CounterOr0("reservoir.admissions"), 0u);
}

// Observation must be invisible in sequential mode: a run with tracing
// attached and metrics snapshot-drained mid-stream ends byte-identical
// to a bare run. (In steal modes a mid-stream snapshot drains and thus
// flushes partial batches — part of the batch partition, like the
// monitor hook; that contract is covered by the next test.)
TEST(EngineMetricsTest, ObservationPreservesByteIdentity) {
  const std::vector<Edge> stream = TestStream(800, 8, 31, 32);
  ShardedEngine plain(EngineOptions(4, 250, 9));
  for (const Edge& e : stream) plain.Process(e);
  plain.Finish();

  TraceEventSink sink;
  ShardedEngineOptions options = EngineOptions(4, 250, 9);
  options.trace = &sink;
  ShardedEngine observed(options);
  size_t processed = 0;
  for (const Edge& e : stream) {
    observed.Process(e);
    // Mid-stream snapshots force drains at awkward points; sequential
    // workers consume their substream in order regardless, so the sample
    // must not move.
    if (++processed == stream.size() / 2) observed.SnapshotMetrics();
  }
  observed.Finish();
  observed.SnapshotMetrics();

  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ReservoirBytes(plain.shard(s).reservoir()),
              ReservoirBytes(observed.shard(s).reservoir()))
        << "shard " << s;
  }
  ExpectExactlyEqual(plain.MergedEstimates(), observed.MergedEstimates());
}

// Steal contract with observability on: kArmed and kActive stay
// byte-identical to each other under identical trace sinks and snapshot
// points (the batch partition is the same; who processes a batch and
// whether anyone watches is invisible).
TEST(EngineMetricsTest, StealOnOffByteIdenticalUnderObservation) {
  const std::vector<Edge> stream = TestStream(800, 8, 31, 32);
  auto run = [&](StealMode steal) {
    TraceEventSink sink;
    ShardedEngineOptions options = EngineOptions(4, 250, 9, steal);
    options.trace = &sink;
    ShardedEngine engine(options);
    size_t processed = 0;
    std::vector<std::string> reservoirs;
    for (const Edge& e : stream) {
      engine.Process(e);
      if (++processed == stream.size() / 2) engine.SnapshotMetrics();
    }
    engine.Finish();
    engine.SnapshotMetrics();
    for (uint32_t s = 0; s < 4; ++s) {
      reservoirs.push_back(ReservoirBytes(engine.shard(s).reservoir()));
    }
    return reservoirs;
  };
  EXPECT_EQ(run(StealMode::kArmed), run(StealMode::kActive));
}

// Steal-off invariants: without an armed scheduler no steal machinery may
// run, and an armed scheduler without load imbalance pressure must still
// report zero thefts through BOTH surfaces (engine API and metrics).
TEST(EngineMetricsTest, StealDisabledMeansZeroStealMetrics) {
  const std::vector<Edge> stream = TestStream(500, 8, 41, 42);
  for (const uint32_t shards : {1u, 4u}) {
    ShardedEngine engine(
        EngineOptions(shards, 150, 3, StealMode::kDisabled));
    for (const Edge& e : stream) engine.Process(e);
    engine.Finish();
    EXPECT_EQ(engine.StealsPerformed(), 0u) << "K=" << shards;
    const MetricsSnapshot snap = engine.SnapshotMetrics();
    EXPECT_EQ(snap.CounterOr0("worker.batches_stolen"), 0u)
        << "K=" << shards;
    EXPECT_EQ(snap.CounterOr0("worker.batches_rebound"), 0u)
        << "K=" << shards;
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(engine.shard(s).worker_metrics().batches_stolen.Value(), 0u)
          << "K=" << shards << " shard " << s;
    }
  }
}

TEST(EngineMetricsTest, ArmedSchedulerStealsNothingWithoutThieves) {
  const std::vector<Edge> stream = TestStream(500, 8, 41, 42);
  ShardedEngine engine(EngineOptions(4, 150, 3, StealMode::kArmed));
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  EXPECT_EQ(engine.StealsPerformed(), 0u);
  EXPECT_EQ(engine.SnapshotMetrics().CounterOr0("worker.batches_stolen"),
            0u);
}

// ---------------------------------------------------------------------------
// Trace sink.

TEST(TraceTest, NullBufferSpanIsNoOp) {
  TraceEventSink sink;
  {
    TraceSpan span(&sink, nullptr, "ignored");
    span.SetArg("x", 1);
  }
  {
    TraceSpan span(nullptr, nullptr, "ignored");
  }
  EXPECT_EQ(sink.SpanCount(), 0u);
}

TEST(TraceTest, WriteJsonEmitsThreadNamesAndSpans) {
  const std::filesystem::path dir = FreshDir("metrics", "trace");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "trace.json").string();

  TraceEventSink sink;
  TraceBuffer* buf = sink.MakeBuffer(0, "shard-0");
  {
    TraceSpan span(&sink, buf, "batch");
    span.SetArg("edges", 64);
  }
  { TraceSpan span(&sink, buf, "steal"); }
  ASSERT_EQ(sink.SpanCount(), 2u);
  EXPECT_EQ(sink.DroppedCount(), 0u);
  ASSERT_TRUE(sink.WriteJson(path).ok());

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\":64"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceTest, EngineRunProducesWorkerSpans) {
  const std::filesystem::path dir = FreshDir("metrics", "engine_trace");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "trace.json").string();

  const std::vector<Edge> stream = TestStream(600, 8, 51, 52);
  TraceEventSink sink;
  ShardedEngineOptions options = EngineOptions(4, 200, 13);
  options.trace = &sink;
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  EXPECT_GT(sink.SpanCount(), 0u);
  ASSERT_TRUE(sink.WriteJson(path).ok());

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  // Every worker announced itself, and batch spans landed.
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_NE(json.find("\"shard-" + std::to_string(s) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"producer\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
}

// Every merged estimate shows its union build and cross pass on the
// producer track and in the merge.* metrics, without a profiler.
TEST(TraceTest, MergedEstimatesRecordMergeSpansAndMetrics) {
  const std::filesystem::path dir = FreshDir("metrics", "merge_trace");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "trace.json").string();

  const std::vector<Edge> stream = TestStream(600, 8, 61, 62);
  TraceEventSink sink;
  ShardedEngineOptions options = EngineOptions(4, 200, 17);
  options.trace = &sink;
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  engine.MergedEstimates();
  engine.MergedEstimates();
  ASSERT_TRUE(sink.WriteJson(path).ok());

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"merge.union_build\""), std::string::npos);
  EXPECT_NE(json.find("\"merge.cross\""), std::string::npos);

  const MetricsSnapshot snap = engine.SnapshotMetrics();
  if (!MetricsEnabled()) return;
  MetricsSnapshot::HistogramValue cross;
  ASSERT_TRUE(snap.FindHistogram("merge.cross_latency", &cross));
  EXPECT_EQ(cross.count, 2u);
  // A 200-edge union is under one fold window: the pass runs serially.
  EXPECT_EQ(snap.GaugeOr0("merge.threads"), 1.0);
}

}  // namespace
}  // namespace gps
