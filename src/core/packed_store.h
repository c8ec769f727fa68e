// PackedSampleStore: budget-sized column storage for reservoir edge records.
//
// The reservoir used to keep an AoS std::vector<EdgeRecord> whose size was
// `--capacity` guesswork. This store packs the same records into columns
// laid out for their access patterns and sized ONCE from a StoreLayout, so
// a `--mem` byte budget translates into a derived capacity and a
// predictable resident footprint instead of allocator noise:
//
//   * a hot-record column of {weight, cov_tri, cov_wedge} (24 bytes) —
//     exactly the fields the in-stream estimator's per-neighbor update
//     reads and writes (Algorithm 3 lines 14-27), so one update touches
//     one record instead of three scattered columns;
//   * cold columns of edge keys, priorities and liveness bytes, read at
//     admission, eviction, checkpoint and merge time.
//
// The priority stays out of the hot record: the wedge loop never reads
// it, and a 32-byte {weight, priority, cov_tri, cov_wedge} record has to
// be over-aligned to stay inside one cache line, which changes how the
// allocator places the column (and every large buffer allocated after
// it) for no speed gain. The idiom follows mccortex's packed gpath_hash
// (fixed arena, capacity derived from the memory argument, entries packed
// for their access pattern) and plf_hive's stable-slot storage: slots are
// recycled through a free list, so a SlotId handed out for an admitted
// edge stays valid — and keeps meaning that edge — until the edge is
// freed, no matter how much churn surrounds it. Snapshot, serialize, and
// adjacency code all hold SlotIds across evictions and depend on that
// stability.
//
// Concurrency: the store is single-writer by default (the shard worker
// that owns the reservoir). In steal mode the owner re-binds stolen
// batches while monitor/metrics readers may walk live slots, so
// EnableConcurrentAdmission() arms bucket-level striped locks: every slot
// write (Store/Free/Allocate) takes the stripe mutex for its slot bucket,
// never a store-global mutex. Determinism is unaffected — stripe locks
// order nothing; the engine's batch-index re-bind sequencing does (see
// src/engine/README.md "Memory budgeting").

#ifndef GPS_CORE_PACKED_STORE_H_
#define GPS_CORE_PACKED_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/sampled_graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace gps {

/// Per-sampled-edge record, materialized from the store's columns. (Formerly
/// nested in GpsReservoir; hoisted so the store does not depend on the
/// reservoir. GpsReservoir::EdgeRecord remains an alias.)
struct EdgeRecord {
  Edge edge;
  double weight = 0.0;
  double priority = 0.0;
  /// Cumulative covariance accumulators for in-stream estimation
  /// (Algorithm 3: C̃_k(△) and C̃_k(Λ)); zeroed on insertion, discarded on
  /// eviction. Unused by post-stream estimation.
  double cov_tri = 0.0;
  double cov_wedge = 0.0;
};

/// How a reservoir's bytes were sized: either an explicit capacity
/// (budget_bytes == 0, the legacy `--capacity` path) or a `--mem` budget
/// from which the capacity was derived. The byte fields are the
/// derivation formula's terms, surfaced verbatim in the startup
/// allocation report and re-checkable from a manifest (capacity
/// provenance).
struct StoreLayout {
  uint64_t budget_bytes = 0;  ///< 0 = explicit capacity, no budget.
  size_t capacity = 0;        ///< reservoir capacity m.
  uint64_t slot_bytes = 0;       ///< record columns.
  uint64_t heap_bytes = 0;       ///< priority min-heap items.
  uint64_t adjacency_bytes = 0;  ///< arena blocks (incl. size-class slack).
  uint64_t node_index_bytes = 0; ///< open-addressing node table at its
                                 ///< 7/8 load-factor cap.
  uint64_t total_bytes = 0;
};

/// The in-stream estimator's per-slot working set: everything one
/// Algorithm-3 neighbor update reads or writes, in one record.
struct HotRecord {
  double weight = 0.0;
  double cov_tri = 0.0;
  double cov_wedge = 0.0;
};

/// Derivation-formula terms, exposed for tests and documentation.
/// Per-slot costs (bytes per reservoir slot, counting the +1 transient):
///   slots: 24 (hot record: weight + two covariance accumulators)
///          + 8 (edge key) + 8 (priority) + 1 (live)
///   heap:  16 (priority + slot, padded)
///   adjacency: 2 directed entries * 8 bytes, doubled for pow2
///              size-class slack
///   node index: <= 2 nodes/edge * 17 bytes/bucket (key + block ref +
///               ctrl), doubled for the 7/8 load cap + pow2 rounding
inline constexpr uint64_t kStoreSlotBytes = 41;
static_assert(kStoreSlotBytes == sizeof(HotRecord) + sizeof(uint64_t) +
                                     sizeof(double) + sizeof(uint8_t),
              "kStoreSlotBytes must match PackedSampleStore's columns");
inline constexpr uint64_t kStoreHeapBytes = 16;
inline constexpr uint64_t kStoreAdjacencyBytes = 32;
inline constexpr uint64_t kStoreNodeIndexBytes = 48;
inline constexpr uint64_t kStoreBytesPerSlot =
    kStoreSlotBytes + kStoreHeapBytes + kStoreAdjacencyBytes +
    kStoreNodeIndexBytes;
/// Budget headroom reserved for fixed structures (vector headers, stripe
/// locks, free lists) independent of capacity.
inline constexpr uint64_t kStoreFixedBytes = 4096;

/// The layout an explicit capacity implies (budget recorded verbatim;
/// pass 0 for the legacy path).
StoreLayout LayoutForCapacity(size_t capacity, uint64_t budget_bytes);

/// Derives the largest capacity whose layout fits `budget_bytes`
/// (monotone formula, so this is exact, not a guess). Named refusal when
/// the budget cannot hold even one slot.
Result<StoreLayout> DeriveStoreLayout(uint64_t budget_bytes);

/// Multi-line human-readable allocation report, printed at startup when
/// a budget is in force and archived next to bench artifacts in CI.
std::string FormatAllocationReport(const StoreLayout& layout);

class PackedSampleStore {
 public:
  static constexpr size_t kLockStripes = 64;

  /// Preallocates every column for `capacity` + 1 slots (the transient
  /// candidate during a full-reservoir insert). No allocation happens
  /// after construction; growth past the layout is a named refusal.
  explicit PackedSampleStore(size_t capacity);

  PackedSampleStore(const PackedSampleStore& other);
  PackedSampleStore& operator=(const PackedSampleStore& other);
  PackedSampleStore(PackedSampleStore&&) = default;
  PackedSampleStore& operator=(PackedSampleStore&&) = default;

  /// Hands out a stable SlotId: recycled from the free list when
  /// available (plf_hive idiom — ids freed by evictions are reused, ids
  /// of live records never move), else the next unused slot. Refuses —
  /// by name, not by reallocating — if the preallocated layout is
  /// exhausted.
  Result<SlotId> TryAllocate();

  /// TryAllocate for callers whose invariants guarantee room (the
  /// reservoir evicts before allocating); asserts instead of refusing.
  SlotId Allocate();

  /// Returns `slot` to the free list. The record's columns are left
  /// as-is; liveness is cleared.
  void Free(SlotId slot);

  /// Writes all columns of `slot` from `record` and marks it live.
  void Store(SlotId slot, const EdgeRecord& record);

  /// Materializes the record held in `slot`.
  EdgeRecord Record(SlotId slot) const {
    const HotRecord& h = hot_[slot];
    return EdgeRecord{EdgeFromKey(keys_[slot]), h.weight, priorities_[slot],
                      h.cov_tri, h.cov_wedge};
  }

  /// The slot's hot record, for the in-stream update (and its prefetch).
  const HotRecord& hot(SlotId slot) const { return hot_[slot]; }

  // Field accessors for paths that need one field, not a materialized
  // record.
  Edge edge(SlotId slot) const { return EdgeFromKey(keys_[slot]); }
  double weight(SlotId slot) const { return hot_[slot].weight; }
  double priority(SlotId slot) const { return priorities_[slot]; }
  double cov_tri(SlotId slot) const { return hot_[slot].cov_tri; }
  double cov_wedge(SlotId slot) const { return hot_[slot].cov_wedge; }

  /// In-stream estimation updates the covariance accumulators in place
  /// (the one mutation that outlives Store); these replace the old
  /// MutableRecord escape hatch.
  void AddCovTri(SlotId slot, double delta) { hot_[slot].cov_tri += delta; }
  void AddCovWedge(SlotId slot, double delta) {
    hot_[slot].cov_wedge += delta;
  }

  bool live(SlotId slot) const { return live_[slot] != 0; }

  /// Slots ever touched (high-water mark) and currently live.
  size_t num_slots() const { return used_; }
  size_t live_slots() const { return used_ - free_.size(); }
  size_t slot_capacity() const { return cap_; }

  /// Arms bucket-level striped locking of slot writes (steal mode).
  void EnableConcurrentAdmission();
  bool concurrent_admission() const { return stripes_ != nullptr; }

  /// The stripe mutex guarding `slot`'s bucket; valid only after
  /// EnableConcurrentAdmission.
  std::mutex& StripeFor(SlotId slot) {
    return (*stripes_)[slot % kLockStripes];
  }

 private:
  using StripeArray = std::array<std::mutex, kLockStripes>;

  size_t cap_ = 0;   // preallocated slots (capacity + 1)
  size_t used_ = 0;  // high-water mark of handed-out slots
  std::vector<HotRecord> hot_;
  std::vector<uint64_t> keys_;
  std::vector<double> priorities_;
  std::vector<uint8_t> live_;
  std::vector<SlotId> free_;
  // Mutexes are not copyable/movable; held indirectly so the store stays
  // movable. Copies re-arm fresh (unlocked) locks. The free list is a
  // single shared structure, so it gets its own mutex rather than a
  // stripe (stripes guard per-slot record writes only).
  std::unique_ptr<StripeArray> stripes_;
  std::unique_ptr<std::mutex> free_mu_;
};

}  // namespace gps

#endif  // GPS_CORE_PACKED_STORE_H_
