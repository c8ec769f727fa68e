// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded in the benchmark's own code around each public call
// into a layer (graph, engine, merge, post-stream, checkpoint); nothing
// inside the library is instrumented. Each span has a name, start, end
// and parent, and every span of one run carries the recorder's run id.
// Spans stay in memory until the benchmark writes them at exit.
//
// Single-threaded: the producer thread records every span, and spans nest
// strictly (a span ends before its parent does), so a span's self time is
// its duration minus the durations of its direct children.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;  // static-lifetime layer label, e.g. "merge.cross"
    int64_t parent;    // index into spans(), -1 for the root
    uint64_t start_ns;
    uint64_t end_ns;
  };

  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), epoch_(Clock::now()) {}

  void Begin(const char* name) {
    const int64_t parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int64_t>(spans_.size()));
    spans_.push_back(Span{name, parent, Now(), 0});
  }

  void End() {
    spans_[static_cast<size_t>(open_.back())].end_ns = Now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in seconds per span name, summed over all spans of that
  /// name.
  std::map<std::string, double> SelfTimes() const {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> table;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      table[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return table;
  }

  /// One JSON object per line per span.
  void WriteJsonLines(std::ostream& out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"run_id\":\"" << run_id_ << "\",\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Scoped span; a null recorder (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
