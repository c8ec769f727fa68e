#!/usr/bin/env bash
# Local CI: Release build + full ctest, then the engine perf smoke with
# its machine-readable JSON artifact gated against the checked-in
# baseline (> 10% relative regression fails), then the metrics-overhead
# gate (instrumented vs GPS_METRICS=0 ingest, scripts/overhead_gate.sh),
# then an ASan/UBSan Debug pass and a TSan Debug pass over the threaded
# engine suites — the TSan pass includes engine_steal_test (the
# work-stealing hand-off stress) and engine_metrics_test (snapshot
# aggregation racing live relaxed-atomic writers).
# Mirrors the release + sanitize + tsan + simd-off jobs of
# .github/workflows/ci.yml
# (CI additionally archives BENCH_engine.json / BENCH_scaling.json per
# run and schedules a nightly GPS_STAT_TRIALS=200 statistical pass).
#
# Every ctest invocation carries --timeout 300: a hung shard worker (ring
# deadlock, missed drain handshake, stuck steal merge) must fail the
# suite fast, not stall the whole run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== Release build (-Werror) + ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DGPS_WERROR=ON
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)" --timeout 300

echo "=== Motif pipeline smoke ==="
./build/bench_motif --smoke

echo "=== Intersection kernel microbench (>= 2x skewed-block gate) ==="
# Per-kernel timings across adversarial size ratios plus the hard gate:
# adaptive dispatch must beat scalar merge by >= 2x on skewed block
# pairs (the hub-vs-leaf shape). Byte identity across kernels is a test
# contract (graph_intersect_test, cli_test's GPS_INTERSECT_KERNEL
# matrix), not a bench concern.
./build/bench_intersect --quick

echo "=== Engine perf smoke (JSON + baseline regression gate) ==="
# --alloc-report archives the packed-store budget breakdown next to the
# perf record, so a capacity-derivation change shows up in the artifact
# diff.
# The run includes the router-scaling row (R=4 vs R=1, wall-clock with a
# critical-path fallback on small hosts) gated >= 1.4x and against the
# baseline's router_scaling_speedup.
./build/bench_engine --edges 200000 --capacity 50000 \
  --json build/BENCH_engine.json \
  --alloc-report build/BENCH_alloc_report.txt \
  --baseline bench/BENCH_engine.baseline.json
GPS_BENCH_SCALE=0.05 ./build/bench_scaling --json build/BENCH_scaling.json

echo "=== Metrics overhead gate (< 2% vs GPS_METRICS=0) ==="
# Reuses the Release build above as the instrumented side.
scripts/overhead_gate.sh build

echo "=== ASan/UBSan build + engine/serialization/cli/store/ingest tests ==="
# graph_binary_stream_test + graph_edge_list_test ride along: the mmap'd
# GPS-STREAM reader hands out spans aliasing the mapping and the strict
# bulk text parser walks raw mapped bytes — exactly the code ASan must
# bless for out-of-bounds reads on truncated/corrupt inputs.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DGPS_SANITIZE=address \
  -DGPS_BUILD_BENCHES=OFF -DGPS_BUILD_EXAMPLES=OFF
# engine_router_test rides along for the span-lifetime rules: routed
# blocks alias the producer's input (and the mmap on the binary path)
# until sequenced — ASan catches any use past a fence.
# graph_intersect_test rides along for the simd kernels: unaligned
# vector loads and scalar tails over arena block boundaries are exactly
# where an out-of-bounds read would hide.
# engine_merge_bits_test rides along for the ordered fold under the merge:
# workers write per-edge terms into a shared window buffer that the
# barrier's completion step folds — ASan checks every index stays inside
# the window.
cmake --build build-asan -j"$(nproc)" --target \
  engine_ring_buffer_test engine_sharded_test engine_checkpoint_test \
  engine_resume_test engine_steal_test engine_metrics_test \
  engine_router_test engine_merge_bits_test \
  core_parallel_test core_serialize_test core_packed_store_test \
  graph_binary_stream_test graph_edge_list_test graph_intersect_test \
  util_parse_bytes_test cli_test gps_cli
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
  --timeout 300 \
  -R 'engine_|core_parallel|core_serialize|core_packed_store|graph_binary_stream|graph_edge_list|graph_intersect|util_parse_bytes|cli_test'

echo "=== TSan build + threaded suites (steal hand-off stress) ==="
# engine_metrics_test rides along: metric snapshots race live relaxed
# writers by design, exactly what TSan must bless. core_packed_store_test
# covers the striped-lock admission path of the budget-sized store.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DGPS_SANITIZE=thread \
  -DGPS_BUILD_BENCHES=OFF -DGPS_BUILD_EXAMPLES=OFF
# graph_binary_stream_test exercises IngestBinaryStream feeding mapped
# block spans into live shard worker rings (ProcessBlock) — the zero-copy
# hand-off TSan must bless.
# engine_router_test is the router-pool hand-off stress: the mutex-guarded
# job queue, completion map, and shell recycling between R router threads
# and the sequencing producer are exactly what TSan must bless.
# graph_intersect_test rides along: per-shard IntersectMetrics counters
# are relaxed atomics absorbed across the steal hand-off — TSan must
# bless the counter absorb next to the reservoir merge.
# engine_merge_bits_test is the ordered-fold stress: workers claim grains
# through a relaxed counter and hand the window to the barrier's
# completion step, which folds it and opens the next window — the
# hand-off TSan must bless (core_parallel_test covers the same fold
# under the post-stream pass).
cmake --build build-tsan -j"$(nproc)" --target \
  engine_ring_buffer_test engine_sharded_test engine_steal_test \
  engine_metrics_test engine_router_test engine_merge_bits_test \
  core_parallel_test core_packed_store_test graph_binary_stream_test \
  graph_intersect_test
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  --timeout 300 \
  -R 'engine_ring_buffer|engine_sharded|engine_steal|engine_metrics|engine_router|engine_merge_bits|core_parallel|core_packed_store|graph_binary_stream|graph_intersect'

echo "=== Scalar-only build (-DGPS_SIMD=OFF) + full ctest ==="
# The vector kernels compiled out entirely (the non-x86 path). The full
# suite must pass on scalar merge/gallop alone, and the differential
# tests prove the scalar kernels produce the same bytes the SIMD build
# does — the determinism contract is per-kernel, not per-ISA.
cmake -B build-nosimd -S . -DCMAKE_BUILD_TYPE=Release -DGPS_SIMD=OFF \
  -DGPS_WERROR=ON -DGPS_BUILD_BENCHES=OFF -DGPS_BUILD_EXAMPLES=OFF
cmake --build build-nosimd -j"$(nproc)"
ctest --test-dir build-nosimd --output-on-failure -j"$(nproc)" --timeout 300

echo "OK"
