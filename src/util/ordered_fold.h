// Parallel map with a serial, index-ordered fold.
//
// ParallelOrderedFold(n, threads, compute, fold) produces exactly what
//
//   for (size_t i = 0; i < n; ++i) fold(i, compute(i));
//
// produces, bit for bit, while running compute() on up to `threads`
// threads. Items are processed in fixed windows of kOrderedFoldWindow
// indices: workers claim kOrderedFoldGrain-item grains of the current
// window from an atomic counter and store each item's result in a window
// buffer; when every worker has arrived at the window's barrier, the
// barrier's completion step folds the buffer on one thread, in index
// order, and opens the next window.
//
// Determinism argument: compute(i) depends only on i (the same code on the
// same const inputs yields the same bits on any thread), and fold sees the
// items in the same order as the serial loop. No floating-point addition
// is regrouped, so any thread count — including 1 — gives identical
// results. The window size, not the thread count, bounds the buffer
// (kOrderedFoldWindow items).
//
// Requirements: compute must be safe to call concurrently for distinct
// indices, and neither callable may throw. Its result type must be
// default-constructible and copy-assignable. fold is called on one thread
// at a time.

#ifndef GPS_UTIL_ORDERED_FOLD_H_
#define GPS_UTIL_ORDERED_FOLD_H_

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

namespace gps {

/// Items per fold window: the unit of ordered hand-off to the fold.
inline constexpr size_t kOrderedFoldWindow = 8192;
/// Items a worker claims per counter increment.
inline constexpr size_t kOrderedFoldGrain = 64;

/// Threads ParallelOrderedFold actually runs for `n` items when offered
/// `threads`: capped at the number of windows, and 1 (the caller alone,
/// no barrier) for a single window or less.
inline size_t OrderedFoldWorkers(size_t n, size_t threads) {
  const size_t windows = (n + kOrderedFoldWindow - 1) / kOrderedFoldWindow;
  return std::max<size_t>(1, std::min(threads, windows));
}

/// Calls fold(i, compute(i)) for i = 0..n-1 in index order, evaluating
/// compute on up to `threads` threads (the calling thread included). See
/// the file comment for the determinism contract.
template <typename Compute, typename Fold>
void ParallelOrderedFold(size_t n, size_t threads, Compute&& compute,
                         Fold&& fold) {
  const size_t workers = OrderedFoldWorkers(n, threads);
  if (workers == 1) {
    for (size_t i = 0; i < n; ++i) fold(i, compute(i));
    return;
  }

  using Item = std::decay_t<std::invoke_result_t<Compute&, size_t>>;
  std::vector<Item> window(kOrderedFoldWindow);
  // begin/end are written only by the completion step, which the barrier
  // orders between every worker's arrival and every worker's release.
  size_t begin = 0;
  size_t end = std::min(n, kOrderedFoldWindow);
  std::atomic<size_t> next{0};

  auto fold_window = [&]() noexcept {
    for (size_t i = begin; i < end; ++i) fold(i, window[i - begin]);
    begin = end;
    end = std::min(n, begin + kOrderedFoldWindow);
    next.store(begin, std::memory_order_relaxed);
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(workers), fold_window);

  auto work = [&] {
    while (begin < n) {
      const size_t window_begin = begin;
      const size_t window_end = end;
      for (size_t g = next.fetch_add(kOrderedFoldGrain,
                                     std::memory_order_relaxed);
           g < window_end;
           g = next.fetch_add(kOrderedFoldGrain, std::memory_order_relaxed)) {
        const size_t stop = std::min(window_end, g + kOrderedFoldGrain);
        for (size_t i = g; i < stop; ++i) {
          window[i - window_begin] = compute(i);
        }
      }
      sync.arrive_and_wait();
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  try {
    for (size_t w = 1; w < workers; ++w) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // The system refused a thread: run with the ones that started. Each
    // missing participant arrives once and leaves the barrier; the result
    // does not depend on how many threads compute it.
    for (size_t w = helpers.size() + 1; w < workers; ++w) {
      sync.arrive_and_drop();
    }
  }
  work();
  for (std::thread& t : helpers) t.join();
}

}  // namespace gps

#endif  // GPS_UTIL_ORDERED_FOLD_H_
