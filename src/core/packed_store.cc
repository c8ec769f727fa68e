#include "core/packed_store.h"

#include <cassert>
#include <sstream>

#include "util/parse_bytes.h"

namespace gps {

StoreLayout LayoutForCapacity(size_t capacity, uint64_t budget_bytes) {
  StoreLayout layout;
  layout.budget_bytes = budget_bytes;
  layout.capacity = capacity;
  const uint64_t m = capacity;
  layout.slot_bytes = m * kStoreSlotBytes;
  layout.heap_bytes = m * kStoreHeapBytes;
  layout.adjacency_bytes = m * kStoreAdjacencyBytes;
  layout.node_index_bytes = m * kStoreNodeIndexBytes;
  layout.total_bytes = kStoreFixedBytes + layout.slot_bytes +
                       layout.heap_bytes + layout.adjacency_bytes +
                       layout.node_index_bytes;
  return layout;
}

Result<StoreLayout> DeriveStoreLayout(uint64_t budget_bytes) {
  if (budget_bytes < kStoreFixedBytes + kStoreBytesPerSlot) {
    return Status::OutOfRange(
        "memory budget " + FormatByteSize(budget_bytes) +
        " cannot hold even one reservoir slot (needs at least " +
        std::to_string(kStoreFixedBytes + kStoreBytesPerSlot) +
        " bytes: " + std::to_string(kStoreFixedBytes) + " fixed + " +
        std::to_string(kStoreBytesPerSlot) + " per slot)");
  }
  // TotalBytes(m) is linear in m, so the largest fitting capacity is a
  // division, not a search; asserted monotone below for safety.
  const size_t capacity = static_cast<size_t>(
      (budget_bytes - kStoreFixedBytes) / kStoreBytesPerSlot);
  StoreLayout layout = LayoutForCapacity(capacity, budget_bytes);
  assert(layout.total_bytes <= budget_bytes);
  assert(LayoutForCapacity(capacity + 1, budget_bytes).total_bytes >
         budget_bytes);
  return layout;
}

std::string FormatAllocationReport(const StoreLayout& layout) {
  std::ostringstream out;
  out << "sample-store allocation";
  if (layout.budget_bytes > 0) {
    out << " (budget " << FormatByteSize(layout.budget_bytes)
        << " -> derived capacity " << layout.capacity << ")";
  } else {
    out << " (explicit capacity " << layout.capacity << ")";
  }
  out << "\n";
  out << "  slot columns         : " << layout.slot_bytes << " bytes\n";
  out << "  priority heap        : " << layout.heap_bytes << " bytes\n";
  out << "  adjacency arena      : " << layout.adjacency_bytes
      << " bytes\n";
  out << "  node index (7/8 cap) : " << layout.node_index_bytes
      << " bytes\n";
  out << "  fixed overhead       : " << kStoreFixedBytes << " bytes\n";
  out << "  total                : " << layout.total_bytes << " bytes";
  if (layout.budget_bytes > 0) {
    out << " of " << layout.budget_bytes << " budgeted";
  }
  out << "\n";
  return out.str();
}

PackedSampleStore::PackedSampleStore(size_t capacity)
    : cap_(capacity + 1) {
  hot_.reserve(cap_);
  keys_.reserve(cap_);
  priorities_.reserve(cap_);
  live_.reserve(cap_);
  free_.reserve(cap_);
}

PackedSampleStore::PackedSampleStore(const PackedSampleStore& other)
    : cap_(other.cap_),
      used_(other.used_),
      hot_(other.hot_),
      keys_(other.keys_),
      priorities_(other.priorities_),
      live_(other.live_),
      free_(other.free_) {
  if (other.stripes_) stripes_ = std::make_unique<StripeArray>();
  if (other.free_mu_) free_mu_ = std::make_unique<std::mutex>();
}

PackedSampleStore& PackedSampleStore::operator=(
    const PackedSampleStore& other) {
  if (this == &other) return *this;
  cap_ = other.cap_;
  used_ = other.used_;
  hot_ = other.hot_;
  keys_ = other.keys_;
  priorities_ = other.priorities_;
  live_ = other.live_;
  free_ = other.free_;
  stripes_ = other.stripes_ ? std::make_unique<StripeArray>() : nullptr;
  free_mu_ = other.free_mu_ ? std::make_unique<std::mutex>() : nullptr;
  return *this;
}

Result<SlotId> PackedSampleStore::TryAllocate() {
  std::unique_lock<std::mutex> lock;
  if (free_mu_) lock = std::unique_lock<std::mutex>(*free_mu_);
  if (!free_.empty()) {
    const SlotId slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (used_ >= cap_) {
    return Status::OutOfRange(
        "packed sample store: slot allocation past the preallocated "
        "capacity (" +
        std::to_string(cap_ - 1) +
        " + 1 transient) refused — the store never grows beyond its "
        "memory layout");
  }
  hot_.push_back(HotRecord{});
  keys_.push_back(0);
  priorities_.push_back(0.0);
  live_.push_back(0);
  return static_cast<SlotId>(used_++);
}

SlotId PackedSampleStore::Allocate() {
  Result<SlotId> slot = TryAllocate();
  assert(slot.ok() && "reservoir must evict before allocating past cap");
  return *slot;
}

void PackedSampleStore::Free(SlotId slot) {
  {
    std::unique_lock<std::mutex> lock;
    if (stripes_) lock = std::unique_lock<std::mutex>(StripeFor(slot));
    live_[slot] = 0;
  }
  std::unique_lock<std::mutex> lock;
  if (free_mu_) lock = std::unique_lock<std::mutex>(*free_mu_);
  free_.push_back(slot);
}

void PackedSampleStore::Store(SlotId slot, const EdgeRecord& record) {
  std::unique_lock<std::mutex> lock;
  if (stripes_) lock = std::unique_lock<std::mutex>(StripeFor(slot));
  hot_[slot] = HotRecord{record.weight, record.cov_tri, record.cov_wedge};
  keys_[slot] = EdgeKey(record.edge);
  priorities_[slot] = record.priority;
  live_[slot] = 1;
}

void PackedSampleStore::EnableConcurrentAdmission() {
  if (!stripes_) stripes_ = std::make_unique<StripeArray>();
  if (!free_mu_) free_mu_ = std::make_unique<std::mutex>();
}

}  // namespace gps
