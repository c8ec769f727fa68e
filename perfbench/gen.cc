// perfbench_gen: the seeded input step of the end-to-end benchmark.
//
//   perfbench_gen --workload NAME --seed N --scale X --out PREFIX
//
// Generates the workload's graph from the seed, permutes it into a stream
// (MakePermutedStream) and writes PREFIX.gpss (GPS-STREAM) plus
// PREFIX.exact, a text sidecar with the exact triangle and wedge counts
// (CountExact), the sampler seed, and the degree-query nodes. It runs as its own process so neither the generator nor
// the exact oracle counts toward the measured process's time or memory.
// Both files are written under temporary names and renamed, the sidecar
// last, so an existing sidecar implies a complete input.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "graph/binary_stream.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "util/random.h"
#include "workloads.h"

namespace {

/// Independent derived seed for one use of the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (purpose + 1));
  return gps::SplitMix64Next(&state);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_gen: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, out;
  uint64_t seed = 0;
  double scale = 1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--scale") {
      scale = std::strtod(value, nullptr);
    } else if (flag == "--out") {
      out = value;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  const perfbench::Workload* base = perfbench::FindWorkload(workload_name);
  if (base == nullptr) return Fail("unknown workload '" + workload_name + "'");
  if (out.empty() || !(scale > 0.0 && scale <= 1.0)) {
    return Fail("need --out PREFIX and --scale in (0, 1]");
  }
  const perfbench::Workload w = perfbench::Scaled(*base, scale);

  gps::Result<gps::EdgeList> graph =
      w.model == perfbench::GraphModel::kChungLu
          ? gps::GenerateChungLu(w.nodes, w.edges_param, w.shape,
                                 DeriveSeed(seed, 0))
          : gps::GenerateBarabasiAlbert(
                w.nodes, static_cast<uint32_t>(w.edges_param), w.shape,
                DeriveSeed(seed, 0));
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::vector<gps::Edge> stream =
      gps::MakePermutedStream(*graph, DeriveSeed(seed, 1));

  const std::string gpss = out + ".gpss";
  if (gps::Status st = gps::WriteBinaryStream(gpss + ".tmp", stream);
      !st.ok()) {
    return Fail(st.ToString());
  }

  const gps::CsrGraph csr = gps::CsrGraph::FromEdgeList(*graph);
  const gps::ExactCounts exact = gps::CountExact(csr);

  // Degree queries: distinct nodes drawn uniformly from the non-isolated
  // ones, in draw order.
  std::vector<gps::NodeId> candidates;
  for (gps::NodeId v = 0; v < csr.NumNodes(); ++v) {
    if (csr.Degree(v) > 0) candidates.push_back(v);
  }
  gps::Rng rng(DeriveSeed(seed, 2));
  const size_t queries = std::min<size_t>(w.degree_queries, candidates.size());
  for (size_t i = 0; i < queries; ++i) {
    std::swap(candidates[i],
              candidates[i + rng.UniformU64(candidates.size() - i)]);
  }

  const std::string sidecar = out + ".exact";
  {
    std::ofstream f(sidecar + ".tmp", std::ios::trunc);
    f.precision(17);
    f << "workload " << w.name << "\n"
      << "edges " << stream.size() << "\n"
      << "triangles " << exact.triangles << "\n"
      << "wedges " << exact.wedges << "\n"
      << "sampler_seed " << DeriveSeed(seed, 3) << "\n";
    for (size_t i = 0; i < queries; ++i) {
      f << "degree_query " << candidates[i] << "\n";
    }
    f.close();
    if (!f) return Fail("cannot write " + sidecar + ".tmp");
  }
  std::error_code ec;
  std::filesystem::rename(gpss + ".tmp", gpss, ec);
  if (!ec) std::filesystem::rename(sidecar + ".tmp", sidecar, ec);
  if (ec) return Fail("cannot publish inputs: " + ec.message());
  std::printf("%s: %zu edges, %.0f triangles, %.0f wedges\n", w.name,
              stream.size(), exact.triangles, exact.wedges);
  return 0;
}
