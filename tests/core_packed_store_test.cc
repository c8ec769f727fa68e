// Tests for the budget-sized packed sample store (core/packed_store.h):
// layout derivation and its named refusals, the allocation report, slot
// recycling stability under eviction churn (the plf_hive contract every
// SlotId holder depends on), and growth refusal past the preallocated
// layout.

#include "core/packed_store.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/types.h"
#include "util/parse_bytes.h"

namespace gps {
namespace {

TEST(StoreLayoutTest, DerivedCapacityMatchesFormula) {
  const uint64_t budget = 10ull * 1024 * 1024;
  auto layout = DeriveStoreLayout(budget);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_EQ(layout->budget_bytes, budget);
  EXPECT_EQ(layout->capacity,
            (budget - kStoreFixedBytes) / kStoreBytesPerSlot);
  EXPECT_LE(layout->total_bytes, budget);
  // The report's component terms must sum exactly to the total — an
  // operator reading the startup report can re-derive the budget math.
  EXPECT_EQ(layout->slot_bytes + layout->heap_bytes +
                layout->adjacency_bytes + layout->node_index_bytes +
                kStoreFixedBytes,
            layout->total_bytes);
}

TEST(StoreLayoutTest, BudgetTooSmallIsNamedRefusal) {
  auto layout =
      DeriveStoreLayout(kStoreFixedBytes + kStoreBytesPerSlot - 1);
  ASSERT_FALSE(layout.ok());
  EXPECT_EQ(layout.status().code(), StatusCode::kOutOfRange);
  // The refusal names the budget and the minimum, not just "too small".
  EXPECT_NE(layout.status().message().find("cannot hold even one"),
            std::string::npos)
      << layout.status().ToString();
  EXPECT_NE(layout.status().message().find(
                std::to_string(kStoreFixedBytes + kStoreBytesPerSlot)),
            std::string::npos);
}

TEST(StoreLayoutTest, BudgetForExactlyOneSlot) {
  auto layout = DeriveStoreLayout(kStoreFixedBytes + kStoreBytesPerSlot);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_EQ(layout->capacity, 1u);
  EXPECT_EQ(layout->total_bytes, kStoreFixedBytes + kStoreBytesPerSlot);
}

TEST(StoreLayoutTest, DerivationIsExactAtLayoutBoundaries) {
  // The formula is monotone and exact: the bytes a capacity needs derive
  // back to that capacity, and one byte less derives strictly fewer
  // slots.
  for (const size_t m : {size_t{1}, size_t{7}, size_t{100}, size_t{76508}}) {
    const StoreLayout exact = LayoutForCapacity(m, 0);
    auto fits = DeriveStoreLayout(exact.total_bytes);
    ASSERT_TRUE(fits.ok()) << "capacity " << m;
    EXPECT_EQ(fits->capacity, m) << "capacity " << m;
    auto below = DeriveStoreLayout(exact.total_bytes - 1);
    if (below.ok()) {
      EXPECT_LT(below->capacity, m) << "capacity " << m;
    } else {
      EXPECT_EQ(m, 1u);  // only the one-slot boundary can refuse
    }
  }
}

TEST(StoreLayoutTest, AllocationReportNamesEveryTerm) {
  auto layout = DeriveStoreLayout(512ull * 1024 * 1024);
  ASSERT_TRUE(layout.ok());
  const std::string report = FormatAllocationReport(*layout);
  for (const char* term : {"slot columns", "priority heap",
                           "adjacency arena", "node index",
                           "fixed overhead", "total", "derived capacity"}) {
    EXPECT_NE(report.find(term), std::string::npos) << term;
  }
  EXPECT_NE(report.find(FormatByteSize(512ull * 1024 * 1024)),
            std::string::npos);
  EXPECT_NE(report.find(std::to_string(layout->capacity)),
            std::string::npos);
}

TEST(PackedSampleStoreTest, SlotIdsStayStableUnderEvictionChurn) {
  PackedSampleStore store(8);
  // Pin a few records, then churn allocate/free cycles around them.
  std::vector<SlotId> pinned;
  for (uint32_t i = 0; i < 4; ++i) {
    const SlotId slot = store.Allocate();
    store.Store(slot, EdgeRecord{MakeEdge(i, i + 100), 1.0 + i, 2.0 + i,
                                 0.25 * i, 0.5 * i});
    pinned.push_back(slot);
  }
  for (uint32_t round = 0; round < 200; ++round) {
    const SlotId victim = store.Allocate();
    store.Store(victim, EdgeRecord{MakeEdge(50, 51 + round), 9.0, 9.0,
                                   9.0, 9.0});
    store.Free(victim);
  }
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.live(pinned[i]));
    const EdgeRecord record = store.Record(pinned[i]);
    EXPECT_EQ(record.edge, MakeEdge(i, i + 100));
    EXPECT_DOUBLE_EQ(record.weight, 1.0 + i);
    EXPECT_DOUBLE_EQ(record.priority, 2.0 + i);
    EXPECT_DOUBLE_EQ(record.cov_tri, 0.25 * i);
    EXPECT_DOUBLE_EQ(record.cov_wedge, 0.5 * i);
  }
  EXPECT_EQ(store.live_slots(), 4u);
}

TEST(PackedSampleStoreTest, CovarianceUpdatesTouchOnlyTheirOwnField) {
  // The hot record packs weight and both accumulators side by side; an
  // update of one accumulator must leave its neighbours (and the other
  // slots' records) bit-for-bit alone.
  PackedSampleStore store(4);
  const SlotId a = store.Allocate();
  const SlotId b = store.Allocate();
  store.Store(a, EdgeRecord{MakeEdge(1, 2), 0.5, 3.0, 0.125, 0.25});
  store.Store(b, EdgeRecord{MakeEdge(3, 4), 0.75, 4.0, -1.0, -2.0});

  store.AddCovTri(a, 1.0);
  EXPECT_EQ(store.weight(a), 0.5);
  EXPECT_EQ(store.cov_tri(a), 1.125);
  EXPECT_EQ(store.cov_wedge(a), 0.25);
  EXPECT_EQ(store.priority(a), 3.0);

  store.AddCovWedge(a, 2.0);
  EXPECT_EQ(store.weight(a), 0.5);
  EXPECT_EQ(store.cov_tri(a), 1.125);
  EXPECT_EQ(store.cov_wedge(a), 2.25);
  EXPECT_EQ(store.priority(a), 3.0);

  const HotRecord& hot = store.hot(a);
  EXPECT_EQ(hot.weight, 0.5);
  EXPECT_EQ(hot.cov_tri, 1.125);
  EXPECT_EQ(hot.cov_wedge, 2.25);

  const EdgeRecord other = store.Record(b);
  EXPECT_EQ(other.edge, MakeEdge(3, 4));
  EXPECT_EQ(other.weight, 0.75);
  EXPECT_EQ(other.priority, 4.0);
  EXPECT_EQ(other.cov_tri, -1.0);
  EXPECT_EQ(other.cov_wedge, -2.0);
}

TEST(PackedSampleStoreTest, RecordRoundTripsAllFieldsAfterChurn) {
  // Store/Record must carry all five fields through the split into the
  // hot record and the key/priority columns, for slots recycled by
  // eviction churn as well as fresh ones.
  PackedSampleStore store(16);
  std::vector<SlotId> live;
  std::vector<EdgeRecord> expected(17);
  for (uint32_t round = 0; round < 300; ++round) {
    if (live.size() == 16 || (round % 3 == 2 && !live.empty())) {
      const size_t victim = (round * 7) % live.size();
      store.Free(live[victim]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    const SlotId slot = store.Allocate();
    const EdgeRecord record{MakeEdge(round, round + 1000),
                            1.0 / (round + 3),
                            2.0 + round,
                            -0.5 * round,
                            0.25 + round};
    store.Store(slot, record);
    store.AddCovTri(slot, 0.125);
    store.AddCovWedge(slot, -0.375);
    expected[slot] = record;
    expected[slot].cov_tri += 0.125;
    expected[slot].cov_wedge += -0.375;
    live.push_back(slot);
  }
  ASSERT_EQ(store.live_slots(), live.size());
  for (const SlotId slot : live) {
    ASSERT_TRUE(store.live(slot));
    const EdgeRecord got = store.Record(slot);
    EXPECT_EQ(got.edge, expected[slot].edge) << "slot " << slot;
    EXPECT_EQ(got.weight, expected[slot].weight) << "slot " << slot;
    EXPECT_EQ(got.priority, expected[slot].priority) << "slot " << slot;
    EXPECT_EQ(got.cov_tri, expected[slot].cov_tri) << "slot " << slot;
    EXPECT_EQ(got.cov_wedge, expected[slot].cov_wedge) << "slot " << slot;
  }
}

TEST(PackedSampleStoreTest, SlotBytesMatchTheColumns) {
  // 24-byte hot record + 8-byte key + 8-byte priority + 1 live byte: the
  // per-slot term of the 137 B/slot formula.
  EXPECT_EQ(sizeof(HotRecord), 24u);
  EXPECT_EQ(kStoreSlotBytes, 41u);
  for (const size_t m : {size_t{1}, size_t{1000}, size_t{200000}}) {
    EXPECT_EQ(LayoutForCapacity(m, 0).slot_bytes, 41u * m);
  }
  EXPECT_EQ(kStoreBytesPerSlot, 137u);
}

TEST(PackedSampleStoreTest, FreeListRecyclingIsLifo) {
  // Deterministic recycling order is part of the byte-identity contract:
  // the slot freed last is handed out first, so eviction/insert sequences
  // replay identically.
  PackedSampleStore store(4);
  const SlotId a = store.Allocate();
  const SlotId b = store.Allocate();
  store.Free(a);
  store.Free(b);
  EXPECT_EQ(store.Allocate(), b);
  EXPECT_EQ(store.Allocate(), a);
}

TEST(PackedSampleStoreTest, GrowthPastPreallocatedLayoutIsNamedRefusal) {
  PackedSampleStore store(2);  // capacity 2 (+1 transient slot)
  ASSERT_EQ(store.slot_capacity(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto slot = store.TryAllocate();
    ASSERT_TRUE(slot.ok()) << i;
  }
  auto overflow = store.TryAllocate();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(overflow.status().message().find("preallocated"),
            std::string::npos)
      << overflow.status().ToString();

  // Freeing makes the refusal recoverable without any reallocation.
  store.Free(SlotId{0});
  EXPECT_TRUE(store.TryAllocate().ok());
}

}  // namespace
}  // namespace gps
