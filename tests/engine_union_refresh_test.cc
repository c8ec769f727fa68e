// The persistent union-sample index (engine/merge.h RefreshUnionSample)
// against a fresh build, bit for bit.
//
// An engine keeps one union index between merges and refreshes it per
// monitor tick, re-indexing only the slots whose edge changed. Every
// estimate over the refreshed index must equal the same estimate over a
// BuildUnionSample of the drained shard reservoirs: same bits, same
// union size. The engine cases compare at every tick (several K, steal
// mode, a motif suite, post-stream merging, a resumed engine); the
// direct cases pin the refresh's bookkeeping (nothing re-indexed when
// nothing changed, recycled slots re-indexed exactly once each).

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/reservoir.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/metrics.h"

namespace gps {
namespace {

using engine_test::ExpectExactlyEqual;
using engine_test::ExpectMotifsExactlyEqual;
using engine_test::FreshDir;
using engine_test::ManifestPath;

const std::vector<Edge>& Stream() {
  static const std::vector<Edge> stream = [] {
    EdgeList graph = GenerateBarabasiAlbert(2500, 5, 0.4, 1301).value();
    return MakePermutedStream(graph, 1302);
  }();
  return stream;
}

constexpr uint64_t kTickEvery = 1000;

ShardedEngineOptions EngineOptions(uint32_t shards) {
  ShardedEngineOptions options;
  options.sampler.capacity = 3000;
  options.sampler.seed = 1303;
  options.num_shards = shards;
  options.batch_size = 64;
  return options;
}

std::vector<ShardSampleRef> SampleRefs(const ShardedEngine& engine) {
  std::vector<ShardSampleRef> refs;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    refs.push_back({&engine.shard(s).reservoir(),
                    engine.shard(s).slot_strata()});
  }
  return refs;
}

std::vector<const GpsReservoir*> Reservoirs(const ShardedEngine& engine) {
  std::vector<const GpsReservoir*> out;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    out.push_back(&engine.shard(s).reservoir());
  }
  return out;
}

/// What the engine's merge must equal: the in-stream estimates and the
/// cross-shard passes over a union index built from empty.
struct FreshMerge {
  GraphEstimates graph;
  std::vector<MotifEstimate> motifs;
  size_t union_edges = 0;
};

FreshMerge MergeFromEmpty(const ShardedEngine& engine) {
  const ShardedEngineOptions& options = engine.options();
  FreshMerge out;
  if (options.merge_mode == MergeMode::kPostStreamMerged) {
    out.graph = EstimateMergedPostStream(Reservoirs(engine));
    return out;
  }
  const UnionSample fresh = BuildUnionSample(
      std::span<const ShardSampleRef>(SampleRefs(engine)));
  out.union_edges = fresh.num_edges();
  std::vector<GraphEstimates> per_shard;
  std::vector<std::vector<MotifAccumulator>> per_shard_motifs;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    per_shard.push_back(engine.shard(s).InStreamEstimates());
    const MotifSuite& suite = engine.shard(s).motif_suite();
    std::vector<MotifAccumulator> accs;
    for (size_t m = 0; m < suite.size(); ++m) {
      accs.push_back(suite.accumulator(m));
    }
    per_shard_motifs.push_back(std::move(accs));
  }
  out.graph =
      AddEstimates(SumShardEstimates(per_shard), EstimateCrossShard(fresh));
  if (!options.motifs.empty()) {
    out.motifs = MakeMotifEstimates(
        options.motifs, SumShardMotifAccumulators(per_shard_motifs),
        EstimateCrossShardMotifs(fresh, options.motifs));
  }
  return out;
}

/// Per-tick evidence that the engine refreshed rather than rebuilt.
struct TickLog {
  size_t ticks = 0;
  std::vector<double> reindexed;
  std::vector<double> union_edges;
};

/// Arms `engine` to compare every monitor tick with a fresh build.
void CheckEveryTick(ShardedEngine* engine, TickLog* log) {
  engine->EstimateEvery(kTickEvery, [engine, log](const MonitorRecord& rec) {
    SCOPED_TRACE("tick at " + std::to_string(rec.edges_processed));
    const FreshMerge fresh = MergeFromEmpty(*engine);
    ExpectExactlyEqual(rec.estimates, fresh.graph);
    ExpectMotifsExactlyEqual(rec.motifs, fresh.motifs);
    ++log->ticks;
    if (!MetricsEnabled()) return;
    log->reindexed.push_back(rec.metrics.GaugeOr0("merge.union_reindexed"));
    if (engine->options().merge_mode == MergeMode::kInStreamPlusCross) {
      const double edges = rec.metrics.GaugeOr0("merge.union_sample_size");
      EXPECT_EQ(edges, static_cast<double>(fresh.union_edges));
      log->union_edges.push_back(edges);
    }
  });
}

/// Streams [begin, end) of the fixture, then checks the post-Finish merge
/// (which builds and frees its own index) against a fresh build too.
void RunAndCheckFinal(ShardedEngine* engine, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) engine->Process(Stream()[i]);
  engine->Finish();
  const FreshMerge fresh = MergeFromEmpty(*engine);
  ExpectExactlyEqual(engine->MergedEstimates(), fresh.graph);
  ExpectMotifsExactlyEqual(engine->MergedMotifEstimates(), fresh.motifs);
}

/// The first tick indexes the whole union from empty; later ticks must
/// re-index only part of it (the reservoirs are full and churn slowly).
void ExpectIncremental(const TickLog& log) {
  if (!MetricsEnabled()) return;
  ASSERT_GT(log.union_edges.size(), 2u);
  EXPECT_EQ(log.reindexed.front(), log.union_edges.front());
  bool partial = false;
  for (size_t t = 1; t < log.reindexed.size(); ++t) {
    partial |= log.reindexed[t] > 0 && log.reindexed[t] < log.union_edges[t];
  }
  EXPECT_TRUE(partial) << "no tick re-indexed a strict subset of the union";
}

TEST(UnionRefreshTest, TicksMatchFreshBuildAtEveryK) {
  for (const uint32_t k : {2u, 3u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ShardedEngine engine(EngineOptions(k));
    TickLog log;
    CheckEveryTick(&engine, &log);
    RunAndCheckFinal(&engine, 0, Stream().size());
    EXPECT_EQ(log.ticks, Stream().size() / kTickEvery);
    ExpectIncremental(log);
  }
}

TEST(UnionRefreshTest, StealModeSubStrataMatchFreshBuild) {
  ShardedEngineOptions options = EngineOptions(4);
  options.steal = StealMode::kActive;
  ShardedEngine engine(options);
  ASSERT_EQ(engine.effective_steal(), StealMode::kActive);
  TickLog log;
  CheckEveryTick(&engine, &log);
  RunAndCheckFinal(&engine, 0, Stream().size());
  EXPECT_EQ(log.ticks, Stream().size() / kTickEvery);
  ExpectIncremental(log);
}

TEST(UnionRefreshTest, MotifCrossPassMatchesFreshBuild) {
  ShardedEngineOptions options = EngineOptions(3);
  options.motifs = {"4clique", "3path"};
  ShardedEngine engine(options);
  TickLog log;
  CheckEveryTick(&engine, &log);
  RunAndCheckFinal(&engine, 0, Stream().size());
  EXPECT_EQ(log.ticks, Stream().size() / kTickEvery);
}

TEST(UnionRefreshTest, PostStreamMergedMatchesFreshBuild) {
  ShardedEngineOptions options = EngineOptions(3);
  options.merge_mode = MergeMode::kPostStreamMerged;
  ShardedEngine engine(options);
  TickLog log;
  CheckEveryTick(&engine, &log);
  RunAndCheckFinal(&engine, 0, Stream().size());
  EXPECT_EQ(log.ticks, Stream().size() / kTickEvery);
}

TEST(UnionRefreshTest, ResumedEngineMatchesFreshBuildAndLiveRun) {
  const ShardedEngineOptions options = EngineOptions(3);
  const size_t cut = 5 * kTickEvery + 17;

  // The uninterrupted run's ticks, for the resumed run to reproduce.
  std::vector<MonitorRecord> live;
  {
    ShardedEngine engine(options);
    engine.EstimateEvery(kTickEvery, [&](const MonitorRecord& rec) {
      live.push_back(rec);
    });
    for (const Edge& e : Stream()) engine.Process(e);
    engine.Finish();
  }

  const std::filesystem::path dir = FreshDir("union_refresh", "resume");
  {
    ShardedEngine prefix(options);
    for (size_t i = 0; i < cut; ++i) prefix.Process(Stream()[i]);
    ASSERT_TRUE(prefix.SerializeShards(dir.string()).ok());
  }
  auto resumed = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{ManifestPath(dir)});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ShardedEngine* engine = resumed->get();
  std::vector<MonitorRecord> after_resume;
  engine->EstimateEvery(kTickEvery, [&](const MonitorRecord& rec) {
    const FreshMerge fresh = MergeFromEmpty(*engine);
    ExpectExactlyEqual(rec.estimates, fresh.graph);
    after_resume.push_back(rec);
  });
  RunAndCheckFinal(engine, cut, Stream().size());

  ASSERT_EQ(after_resume.size(), Stream().size() / kTickEvery - 5);
  for (const MonitorRecord& rec : after_resume) {
    const MonitorRecord& expected = live[rec.edges_processed / kTickEvery - 1];
    ASSERT_EQ(rec.edges_processed, expected.edges_processed);
    ExpectExactlyEqual(rec.estimates, expected.estimates);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// RefreshUnionSample on hand-driven reservoirs.

constexpr uint32_t kShards = 3;

struct Shards {
  std::vector<GpsReservoir> reservoirs;

  explicit Shards(size_t capacity) {
    reservoirs.reserve(kShards);
    for (uint32_t s = 0; s < kShards; ++s) {
      reservoirs.emplace_back(GpsOptions{capacity, 1310 + s, 0});
    }
  }

  void Feed(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Edge& e = Stream()[i];
      reservoirs[ShardedEngine::ShardOfEdge(e, kShards)].Process(e, 1.0);
    }
  }

  std::vector<const GpsReservoir*> Pointers() const {
    std::vector<const GpsReservoir*> out;
    for (const GpsReservoir& r : reservoirs) out.push_back(&r);
    return out;
  }

  std::vector<ShardSampleRef> Refs() const {
    std::vector<ShardSampleRef> refs;
    for (const GpsReservoir& r : reservoirs) refs.push_back({&r, {}});
    return refs;
  }

  /// The edge in every slot of every shard (Edge{} when the slot is
  /// free).
  std::vector<std::vector<Edge>> SlotEdges() const {
    std::vector<std::vector<Edge>> out;
    for (const GpsReservoir& r : reservoirs) {
      const PackedSampleStore& store = r.store();
      std::vector<Edge> edges(store.slot_capacity());
      for (SlotId slot = 0; slot < store.num_slots(); ++slot) {
        if (store.live(slot)) edges[slot] = store.edge(slot);
      }
      out.push_back(std::move(edges));
    }
    return out;
  }
};

void ExpectSameAsFresh(const Shards& shards, const UnionSample& refreshed) {
  const UnionSample fresh = BuildUnionSample(shards.Pointers());
  EXPECT_EQ(refreshed.num_edges(), fresh.num_edges());
  ExpectExactlyEqual(EstimateCrossShard(refreshed), EstimateCrossShard(fresh));
  ExpectExactlyEqual(EstimateMergedPostStream(refreshed),
                     EstimateMergedPostStream(shards.Pointers()));
  const std::vector<std::string> names = {"4clique", "3path"};
  const std::vector<MotifAccumulator> a =
      EstimateCrossShardMotifs(refreshed, names);
  const std::vector<MotifAccumulator> b =
      EstimateCrossShardMotifs(fresh, names);
  ASSERT_EQ(a.size(), b.size());
  for (size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].count, b[m].count) << names[m];
    EXPECT_EQ(a[m].variance, b[m].variance) << names[m];
    EXPECT_EQ(a[m].snapshots, b[m].snapshots) << names[m];
  }
}

TEST(UnionRefreshTest, RefreshWithoutNewEdgesReindexesNothing) {
  Shards shards(600);
  shards.Feed(0, 4000);
  UnionSample sample;
  RefreshUnionSample(shards.Refs(), &sample);
  EXPECT_EQ(sample.last_reindexed(), sample.num_edges());
  EXPECT_GT(sample.num_edges(), 0u);
  RefreshUnionSample(shards.Refs(), &sample);
  EXPECT_EQ(sample.last_reindexed(), 0u);
  ExpectSameAsFresh(shards, sample);
}

TEST(UnionRefreshTest, RecycledSlotIsReindexedWithItsNewEdge) {
  Shards shards(600);
  shards.Feed(0, 4000);
  UnionSample sample;
  RefreshUnionSample(shards.Refs(), &sample);
  const std::vector<std::vector<Edge>> before = shards.SlotEdges();

  // Feed until some slot that held an edge holds a different one.
  size_t fed = 4000;
  size_t reused = 0;
  while (reused == 0 && fed < Stream().size()) {
    shards.Feed(fed, fed + 1);
    ++fed;
    const std::vector<std::vector<Edge>> now = shards.SlotEdges();
    for (uint32_t s = 0; s < kShards; ++s) {
      for (size_t slot = 0; slot < now[s].size(); ++slot) {
        reused += !before[s][slot].IsSelfLoop() &&
                  !now[s][slot].IsSelfLoop() &&
                  before[s][slot] != now[s][slot];
      }
    }
  }
  ASSERT_GT(reused, 0u) << "no slot was recycled";

  // Every slot whose edge left is un-indexed once; every slot holding an
  // edge the index lacks is indexed once.
  const std::vector<std::vector<Edge>> after = shards.SlotEdges();
  size_t expected = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    for (size_t slot = 0; slot < after[s].size(); ++slot) {
      if (before[s][slot] == after[s][slot]) continue;
      expected += !before[s][slot].IsSelfLoop();
      expected += !after[s][slot].IsSelfLoop();
    }
  }
  RefreshUnionSample(shards.Refs(), &sample);
  EXPECT_EQ(sample.last_reindexed(), expected);
  ExpectSameAsFresh(shards, sample);
}

TEST(UnionRefreshTest, RefreshTracksFreshBuildThroughTheStream) {
  Shards shards(500);
  UnionSample sample;
  for (size_t begin = 0; begin < Stream().size(); begin += 1500) {
    shards.Feed(begin, std::min(begin + 1500, Stream().size()));
    RefreshUnionSample(shards.Refs(), &sample);
    SCOPED_TRACE("after " + std::to_string(begin + 1500) + " edges");
    ExpectSameAsFresh(shards, sample);
  }
}

TEST(UnionRefreshTest, FewerThanTwoShardsKeepNoIndex) {
  Shards shards(600);
  shards.Feed(0, 2000);
  UnionSample sample;
  RefreshUnionSample(shards.Refs(), &sample);
  ASSERT_GT(sample.num_edges(), 0u);
  const std::vector<ShardSampleRef> one = {shards.Refs()[0]};
  RefreshUnionSample(one, &sample);
  EXPECT_EQ(sample.num_shards(), 1u);
  EXPECT_EQ(sample.num_edges(), 0u);
  ExpectExactlyEqual(EstimateCrossShard(sample), GraphEstimates{});
  // Back to three shards: a refresh from empty again.
  RefreshUnionSample(shards.Refs(), &sample);
  EXPECT_EQ(sample.last_reindexed(), sample.num_edges());
  ExpectSameAsFresh(shards, sample);
}

}  // namespace
}  // namespace gps
