// perfbench_driver: the measured process of the end-to-end GPS benchmark.
//
//   perfbench_driver --workload NAME --input PREFIX --seconds S --trace 0|1
//                    [--scale X] --ckpt-dir DIR [--spans-out FILE]
//
// Reads PREFIX.gpss and PREFIX.exact (written by perfbench_gen) and runs
// the workload repeatedly for S seconds. One repetition ("rep") is:
//
//   setup   BinaryStreamReader::Open + VerifyAll + ShardedEngine ctor
//   window  every block handed to ProcessBlock by this one producer thread
//           (closed loop: ProcessBlock blocks on a full ring), a monitor
//           tick (drain + MergedEstimates) every tick_every edges, a
//           SerializeShards every ckpt_every edges, then Finish, the final
//           tick and the post-stream outputs
//   verify  an end-of-stream SerializeShards, and MergeFromCheckpoints
//           over it, which must equal the final tick
//
// The first rep is a warm-up: its outputs are checked and become the
// reference every later rep must reproduce byte for byte, but its times
// are not reported. --trace 0 then runs untraced reps and prints the
// end-to-end metrics. --trace 1 alternates traced and untraced reps and
// prints the per-layer metrics: a traced rep records spans (spans.h)
// around each public call
// and computes every merge as SumShardEstimates + EstimateCrossShard(
// BuildUnionSample) + AddEstimates, which must match the untraced
// MergedEstimates() byte for byte.
//
// The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 whenever a result was printed; `correct` carries the
// outcome of the checks.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimates.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "graph/binary_stream.h"
#include "graph/intersect.h"
#include "util/metrics.h"
#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile of an unsorted sample (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

struct Sidecar {
  uint64_t edges = 0;
  double triangles = 0.0;
  double wedges = 0.0;
  uint64_t sampler_seed = 0;
  std::vector<gps::NodeId> degree_queries;
};

bool ReadSidecar(const std::string& path, Sidecar* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "edges") {
      in >> out->edges;
    } else if (key == "triangles") {
      in >> out->triangles;
    } else if (key == "wedges") {
      in >> out->wedges;
    } else if (key == "sampler_seed") {
      in >> out->sampler_seed;
    } else if (key == "degree_query") {
      gps::NodeId v = 0;
      in >> v;
      out->degree_queries.push_back(v);
    }
    if (in.fail()) return false;
  }
  return out->edges > 0;
}

/// Operations attempted and failed across every rep of the run.
class Accounting {
 public:
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

bool SameBytes(const gps::GraphEstimates& a, const gps::GraphEstimates& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameBytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// |estimate - exact| within 4 estimated standard deviations.
bool Within4Sigma(const gps::Estimate& e, double exact) {
  const double slack = 4.0 * e.StdDev() + 1e-9 * std::max(1.0, exact);
  return std::isfinite(e.value) && std::fabs(e.value - exact) <= slack;
}

/// Everything a rep emits; later reps must reproduce the first byte for
/// byte (the engine's determinism contract).
struct RepOutputs {
  std::vector<gps::GraphEstimates> ticks;  // periodic ticks, then final
  gps::GraphEstimates post;
  double edge_count = 0.0;
  std::vector<double> degrees;
};

struct RepResult {
  bool completed = false;
  double setup_s = 0.0;
  double window_s = 0.0;
  std::vector<double> tick_ms;
  std::vector<double> ckpt_ms;
  RepOutputs out;
  /// Traced reps only: per-layer metric values.
  std::map<std::string, double> layers;
};

struct Context {
  perfbench::Workload workload;
  std::string input;
  Sidecar exact;
  std::string ckpt_dir;
};

gps::ShardedEngineOptions EngineOptions(const Context& ctx) {
  gps::ShardedEngineOptions options;
  options.sampler.capacity = ctx.workload.capacity;
  options.sampler.seed = ctx.exact.sampler_seed;
  options.num_shards = ctx.workload.shards;
  return options;
}

std::vector<const gps::GpsReservoir*> Reservoirs(
    const gps::ShardedEngine& engine) {
  std::vector<const gps::GpsReservoir*> out;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    out.push_back(&engine.shard(s).reservoir());
  }
  return out;
}

/// The traced run's merge: the pieces MergedEstimates() is made of, each
/// under its own span. K=1 has no cross pass (BuildUnionSample builds no
/// index and EstimateCrossShard returns zeros), so at K=1 those two calls
/// run unspanned and the merge layer's cross stages are charged nothing.
gps::GraphEstimates TracedMerge(const gps::ShardedEngine& engine,
                                SpanRecorder* rec, size_t* union_edges) {
  gps::GraphEstimates within;
  {
    ScopedSpan span(rec, "merge.sum");
    std::vector<gps::GraphEstimates> per_shard;
    for (uint32_t s = 0; s < engine.num_shards(); ++s) {
      per_shard.push_back(engine.shard(s).InStreamEstimates());
    }
    within = gps::SumShardEstimates(per_shard);
  }
  const std::vector<const gps::GpsReservoir*> reservoirs = Reservoirs(engine);
  SpanRecorder* cross_rec = engine.num_shards() >= 2 ? rec : nullptr;
  gps::GraphEstimates cross;
  {
    std::unique_ptr<gps::UnionSample> sample;
    {
      ScopedSpan span(cross_rec, "merge.union_build");
      sample = std::make_unique<gps::UnionSample>(
          gps::BuildUnionSample(reservoirs));
    }
    *union_edges = sample->num_edges();
    {
      ScopedSpan span(cross_rec, "merge.cross");
      cross = gps::EstimateCrossShard(*sample);
    }
    // Freeing the union index is part of the union's cost.
    ScopedSpan span(cross_rec, "merge.union_build");
    sample.reset();
  }
  ScopedSpan span(rec, "merge.sum");
  return gps::AddEstimates(within, cross);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// One repetition of the workload. `rec` is null for an untraced rep.
/// `reference` (null for the first rep) is the first rep's outputs.
RepResult RunRep(const Context& ctx, SpanRecorder* rec,
                 const RepOutputs* reference, Accounting* acct) {
  const perfbench::Workload& w = ctx.workload;
  RepResult r;
  std::error_code ec;
  std::filesystem::remove_all(ctx.ckpt_dir, ec);
  const std::string manifest =
      (std::filesystem::path(ctx.ckpt_dir) / gps::kShardManifestFilename)
          .string();

  std::unique_ptr<gps::BinaryStreamReader> reader;
  std::unique_ptr<gps::ShardedEngine> engine;
  size_t union_edges = 0;
  gps::GraphEstimates final_est;
  gps::Status final_ckpt;
  gps::Result<gps::GraphEstimates> from_ckpt = gps::GraphEstimates{};
  {
    ScopedSpan root(rec, "run");
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(rec, "graph.open_verify");
      gps::Result<gps::BinaryStreamReader> opened =
          gps::BinaryStreamReader::Open(ctx.input);
      if (!opened.ok()) {
        acct->Op(false, "open input: " + opened.status().ToString());
        return r;
      }
      reader = std::make_unique<gps::BinaryStreamReader>(std::move(*opened));
      if (gps::Status st = reader->VerifyAll(); !st.ok()) {
        acct->Op(false, "verify input: " + st.ToString());
        return r;
      }
    }
    {
      ScopedSpan span(rec, "engine.construct");
      engine = std::make_unique<gps::ShardedEngine>(EngineOptions(ctx));
    }
    const Clock::time_point t1 = Clock::now();
    r.setup_s = Seconds(t0, t1);

    auto merge = [&]() {
      if (rec == nullptr) return engine->MergedEstimates();
      return TracedMerge(*engine, rec, &union_edges);
    };
    auto checkpoint = [&]() {
      const Clock::time_point c0 = Clock::now();
      gps::Status st;
      {
        ScopedSpan span(rec, "ckpt.serialize");
        st = engine->SerializeShards(ctx.ckpt_dir);
      }
      r.ckpt_ms.push_back(Seconds(c0, Clock::now()) * 1e3);
      return st;
    };

    // ---- measured window: first ProcessBlock to last result ---------------
    uint64_t pos = 0;
    bool input_ok = true;
    const Clock::time_point window_start = Clock::now();
    for (size_t b = 0; b < reader->num_blocks() && input_ok; ++b) {
      gps::Result<std::span<const gps::Edge>> block = [&] {
        ScopedSpan span(rec, "graph.block");
        return reader->Block(b);
      }();
      if (!block.ok()) {
        acct->Op(false, "read block: " + block.status().ToString());
        input_ok = false;
        break;
      }
      std::span<const gps::Edge> edges = *block;
      while (!edges.empty()) {
        // Slice at the next tick/checkpoint position, like EstimateEvery and
        // CheckpointEvery, so the hooks fire at exact stream offsets.
        uint64_t n = edges.size();
        for (const uint64_t every : {w.tick_every, w.ckpt_every}) {
          if (every != 0) n = std::min(n, every - pos % every);
        }
        {
          ScopedSpan span(rec, "engine.process_block");
          engine->ProcessBlock(edges.first(n));
        }
        edges = edges.subspan(n);
        pos += n;
        if (pos == reader->edge_count()) break;
        if (w.tick_every != 0 && pos % w.tick_every == 0) {
          const Clock::time_point k0 = Clock::now();
          if (rec != nullptr) {
            ScopedSpan span(rec, "engine.drain");
            engine->Drain();
          }
          r.out.ticks.push_back(merge());
          r.tick_ms.push_back(Seconds(k0, Clock::now()) * 1e3);
        }
        if (w.ckpt_every != 0 && pos % w.ckpt_every == 0) {
          const gps::Status st = checkpoint();
          acct->Op(st.ok(), "checkpoint at " + std::to_string(pos) + ": " +
                                st.ToString());
        }
      }
    }
    if (!input_ok || pos != reader->edge_count()) {
      if (input_ok) acct->Op(false, "stream ended early");
      return r;
    }
    // Final tick: the clock starts once the last edge has been handed over
    // and stops when the merged estimates are back (it includes the drain).
    const Clock::time_point k0 = Clock::now();
    {
      ScopedSpan span(rec, "engine.drain");
      engine->Finish();
    }
    final_est = merge();
    r.out.ticks.push_back(final_est);
    r.tick_ms.push_back(Seconds(k0, Clock::now()) * 1e3);
    if (w.post_stream) {
      {
        ScopedSpan span(rec, "post.union_estimate");
        r.out.post = gps::EstimateMergedPostStream(Reservoirs(*engine));
      }
      {
        ScopedSpan span(rec, "post.edge_count");
        r.out.edge_count = engine->MergedEdgeCountEstimate();
      }
      ScopedSpan span(rec, "post.degree_queries");
      for (const gps::NodeId node : ctx.exact.degree_queries) {
        r.out.degrees.push_back(engine->MergedDegreeEstimate(node));
      }
    }
    r.window_s = Seconds(window_start, Clock::now());

    // ---- persist and verify: the end-of-stream checkpoint (taken after the
    // window on every workload) must merge to the live final tick ---------
    final_ckpt = checkpoint();
    ScopedSpan span(rec, "ckpt.merge_from");
    from_ckpt = gps::ShardedEngine::MergeFromCheckpoints(
        std::span<const std::string>(&manifest, 1));
  }  // "run"

  // ---- correctness accounting -------------------------------------------
  const std::string tag = rec != nullptr ? " (traced)" : "";
  const size_t periodic = r.out.ticks.size() - 1;
  for (size_t i = 0; i < periodic; ++i) {
    const bool same = reference == nullptr ||
                      (i < reference->ticks.size() &&
                       SameBytes(r.out.ticks[i], reference->ticks[i]));
    acct->Op(same, "tick " + std::to_string(i) + " differs from the first "
                   "rep's MergedEstimates()" + tag);
  }
  const bool final_same =
      reference == nullptr ||
      (reference->ticks.size() == r.out.ticks.size() &&
       SameBytes(final_est, reference->ticks.back()));
  acct->Op(final_same && Within4Sigma(final_est.triangles,
                                      ctx.exact.triangles) &&
               Within4Sigma(final_est.wedges, ctx.exact.wedges),
           "final in-stream estimate" + tag + ": triangles " +
               std::to_string(final_est.triangles.value) + " vs exact " +
               std::to_string(ctx.exact.triangles) + ", wedges " +
               std::to_string(final_est.wedges.value) + " vs exact " +
               std::to_string(ctx.exact.wedges) +
               (final_same ? "" : ", bytes differ from the first rep"));
  if (w.post_stream) {
    const bool same = reference == nullptr ||
                      SameBytes(r.out.post, reference->post);
    acct->Op(same && Within4Sigma(r.out.post.triangles, ctx.exact.triangles) &&
                 Within4Sigma(r.out.post.wedges, ctx.exact.wedges),
             "final post-stream estimate" + tag);
    acct->Op(std::isfinite(r.out.edge_count) && r.out.edge_count > 0 &&
                 (reference == nullptr ||
                  SameBytes(r.out.edge_count, reference->edge_count)),
             "edge-count query" + tag);
    for (size_t i = 0; i < r.out.degrees.size(); ++i) {
      const double d = r.out.degrees[i];
      acct->Op(std::isfinite(d) && d >= 0.0 &&
                   (reference == nullptr ||
                    SameBytes(d, reference->degrees[i])),
               "degree query " + std::to_string(i) + tag);
    }
  }
  const bool ckpt_ok = final_ckpt.ok() && from_ckpt.ok() &&
                       SameBytes(*from_ckpt, final_est);
  acct->Op(ckpt_ok, "final checkpoint" + tag + ": " + final_ckpt.ToString() +
                        " / merge-from " + from_ckpt.status().ToString() +
                        (from_ckpt.ok() && !SameBytes(*from_ckpt, final_est)
                             ? " differs from the live tick"
                             : ""));

  // ---- traced rep: per-layer numbers from public accessors --------------
  if (rec != nullptr) {
    const std::map<std::string, double> self = rec->SelfTimes();
    static const char* kTimedLayers[] = {
        "graph.open_verify", "graph.block",        "engine.construct",
        "engine.process_block", "engine.drain",    "merge.sum",
        "merge.union_build", "merge.cross",        "post.union_estimate",
        "post.degree_queries", "post.edge_count",  "ckpt.serialize",
        "ckpt.merge_from"};
    for (const char* name : kTimedLayers) {
      const auto it = self.find(name);
      r.layers[std::string(name) + "_s"] =
          it == self.end() ? 0.0 : it->second;
    }
    const SpanRecorder::Span& root = rec->spans().front();
    const double root_s = static_cast<double>(root.end_ns - root.start_ns) *
                          1e-9;
    r.layers["trace.attributed_frac"] = 1.0 - self.at("run") / root_s;

    const gps::MetricsSnapshot snap = engine->SnapshotMetrics();
    for (const char* name :
         {"ring.push_fail", "ring.pop_empty", "reservoir.admissions",
          "reservoir.evictions", "reservoir.precheck_rejects",
          "intersect.merge", "intersect.gallop", "intersect.simd"}) {
      r.layers[name] = static_cast<double>(snap.CounterOr0(name));
    }
    r.layers["reservoir.admit_ratio"] =
        r.layers["reservoir.admissions"] /
        static_cast<double>(reader->edge_count());
    for (uint32_t s = 0; s < 3; ++s) {
      const std::string p = "shard" + std::to_string(s);
      const bool live = s < engine->num_shards();
      r.layers[p + ".busy_s"] = live ? engine->shard(s).busy_seconds() : 0.0;
      r.layers[p + ".idle_s"] = live ? engine->shard(s).idle_seconds() : 0.0;
    }
    r.layers["merge.union_edges"] = static_cast<double>(union_edges);
    r.layers["ckpt.bytes"] = static_cast<double>(DirectoryBytes(ctx.ckpt_dir));
  }
  r.completed = true;
  return r;
}

/// Setup only (open + VerifyAll + engine construction), for the setup_s
/// median; the engine is torn down untimed.
double SetupOnce(const Context& ctx, Accounting* acct) {
  const Clock::time_point t0 = Clock::now();
  gps::Result<gps::BinaryStreamReader> reader =
      gps::BinaryStreamReader::Open(ctx.input);
  gps::Status st = reader.ok() ? reader->VerifyAll() : reader.status();
  auto engine = std::make_unique<gps::ShardedEngine>(EngineOptions(ctx));
  const double s = Seconds(t0, Clock::now());
  if (!st.ok()) acct->Op(false, "setup: " + st.ToString());
  return s;
}

int CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void AddMetric(std::ostringstream& out, bool* first, const std::string& name,
               double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << (*first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
      << ", \"unit\": \"" << unit << "\"}";
  *first = false;
}

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, input, ckpt_dir, spans_out;
  double seconds = 10.0;
  double scale = 1.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--input") {
      input = value;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--scale") {
      scale = std::strtod(value, nullptr);
    } else if (flag == "--ckpt-dir") {
      ckpt_dir = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (std::getenv("GPS_INTERSECT_KERNEL") != nullptr) {
    return Usage("GPS_INTERSECT_KERNEL is set; a pinned intersection "
                 "kernel is a different program, refusing to measure it");
  }
  const perfbench::Workload* base = perfbench::FindWorkload(workload_name);
  if (base == nullptr) return Usage("unknown --workload");
  if (input.empty() || ckpt_dir.empty() || !(seconds > 0.0) ||
      (trace != 0 && trace != 1) || !(scale > 0.0 && scale <= 1.0)) {
    return Usage("need --input, --ckpt-dir, --seconds > 0, --trace 0|1, "
                 "--scale in (0, 1]");
  }
  Context ctx;
  ctx.workload = perfbench::Scaled(*base, scale);
  ctx.input = input + ".gpss";
  ctx.ckpt_dir = ckpt_dir;
  if (!ReadSidecar(input + ".exact", &ctx.exact)) {
    return Usage("cannot read the input's .exact sidecar");
  }
  const perfbench::Workload& w = ctx.workload;

  std::printf(
      "meta: {\"workload\": \"%s\", \"nproc\": %d, \"simd\": \"%s\", "
      "\"metrics_compiled\": %s, \"threads\": %u, \"shards\": %u, "
      "\"capacity\": %llu, \"edges\": %llu, \"scale\": %g, \"trace\": %d}\n",
      w.name, CountCpus(), gps::IntersectSimdLevel(),
      GPS_METRICS ? "true" : "false", w.shards + 1, w.shards,
      static_cast<unsigned long long>(w.capacity),
      static_cast<unsigned long long>(ctx.exact.edges), scale, trace);
  std::fflush(stdout);

  Accounting acct;
  std::vector<double> setup_s;
  if (trace == 0) {
    for (int i = 0; i < 31; ++i) setup_s.push_back(SetupOnce(ctx, &acct));
  }

  const Clock::time_point start = Clock::now();
  std::vector<RepResult> untraced, traced;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  RepResult warmup = RunRep(ctx, nullptr, nullptr, &acct);
  double longest_rep_s = Seconds(start, Clock::now());
  bool ok = warmup.completed;
  const RepOutputs& reference = warmup.out;
  for (int rep = 1; ok; ++rep) {
    const bool traced_rep = trace == 1 && rep % 2 == 1;
    SpanRecorder* rec = nullptr;
    if (traced_rep) {
      recorders.push_back(std::make_unique<SpanRecorder>(
          std::string(w.name) + "-rep" + std::to_string(rep)));
      rec = recorders.back().get();
    }
    const Clock::time_point rep_start = Clock::now();
    RepResult r = RunRep(ctx, rec, &reference, &acct);
    ok = r.completed;
    std::fprintf(stderr, "rep %d%s: setup %.4f s, window %.4f s\n", rep,
                 traced_rep ? " (traced)" : "", r.setup_s, r.window_s);
    longest_rep_s = std::max(longest_rep_s, Seconds(rep_start, Clock::now()));
    (traced_rep ? traced : untraced).push_back(std::move(r));
    // Stop at a pair boundary (trace 1) once another rep, or pair, would
    // run past --seconds.
    const int next_reps = trace == 0 ? 1 : 2;
    if ((trace == 0 || rep % 2 == 0) &&
        Seconds(start, Clock::now()) + next_reps * longest_rep_s > seconds) {
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(ctx.ckpt_dir, ec);
  if (!ok) {
    std::fprintf(stderr, "perfbench_driver: a rep did not complete\n");
    return 1;
  }

  auto collect = [](const std::vector<RepResult>& reps, auto field) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(field(r));
    return v;
  };
  auto window_s = [](const RepResult& r) { return r.window_s; };
  std::ostringstream metrics;
  bool first = true;
  if (trace == 0) {
    for (const RepResult& r : untraced) setup_s.push_back(r.setup_s);
    const gps::GraphEstimates& fin = reference.ticks.back();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    AddMetric(metrics, &first, "setup_s", Median(setup_s), "s");
    AddMetric(metrics, &first, "edges_per_s",
              static_cast<double>(ctx.exact.edges) /
                  Median(collect(untraced, window_s)),
              "edges/s");
    AddMetric(metrics, &first, "peak_rss_mb",
              static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    AddMetric(metrics, &first, "tri_ci_rel",
              gps::kZ95 * fin.triangles.StdDev() / ctx.exact.triangles,
              "ratio");
    AddMetric(metrics, &first, "wedge_ci_rel",
              gps::kZ95 * fin.wedges.StdDev() / ctx.exact.wedges, "ratio");
    AddMetric(metrics, &first, "tick_p50_ms",
              Median(collect(untraced, [](const RepResult& r) {
                return Quantile(r.tick_ms, 0.5);
              })),
              "ms");
    AddMetric(metrics, &first, "tick_p90_ms",
              Median(collect(untraced, [](const RepResult& r) {
                return Quantile(r.tick_ms, 0.9);
              })),
              "ms");
    AddMetric(metrics, &first, "ckpt_p50_ms",
              Median(collect(untraced, [](const RepResult& r) {
                return Quantile(r.ckpt_ms, 0.5);
              })),
              "ms");
    std::fprintf(stderr,
                 "%s: %zu reps, %zu ticks and %zu checkpoints per rep\n",
                 w.name, untraced.size(), untraced.front().tick_ms.size(),
                 untraced.front().ckpt_ms.size());
  } else {
    // Per-layer medians over traced reps, plus the self-time table.
    std::map<std::string, double> layers;
    for (const auto& [name, value] : traced.front().layers) {
      layers[name] = Median(collect(traced, [&name](const RepResult& r) {
        return r.layers.at(name);
      }));
    }
    layers["trace.overhead"] = Median(collect(traced, window_s)) /
                                   Median(collect(untraced, window_s)) -
                               1.0;
    std::fprintf(stderr, "%s: %zu untraced + %zu traced reps\n", w.name,
                 untraced.size(), traced.size());
    std::fprintf(stderr, "%-28s %12s\n", "per-layer metric", "median");
    for (const auto& [name, value] : layers) {
      std::fprintf(stderr, "%-28s %12.6g\n", name.c_str(), value);
      const size_t n = name.size();
      const bool seconds_metric = n > 2 && name.compare(n - 2, 2, "_s") == 0;
      AddMetric(metrics, &first, name, value,
                seconds_metric                 ? "s"
                : name == "ckpt.bytes"         ? "bytes"
                : name.rfind("trace.", 0) == 0 ||
                        name == "reservoir.admit_ratio"
                    ? "ratio"
                    : "count");
    }
    if (!spans_out.empty()) {
      std::ofstream f(spans_out, std::ios::trunc);
      for (const auto& recorder : recorders) recorder->WriteJsonLines(f);
      if (!f) std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              acct.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(acct.attempted()),
              static_cast<unsigned long long>(acct.failed()),
              metrics.str().c_str());
  return 0;
}
