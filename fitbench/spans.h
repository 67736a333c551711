// In-memory span recorder for the fit benchmark's traced run.
//
// A span is one timed call into a library layer: name, start, end, the
// span that caused it, and the job it belongs to. Spans stay in memory
// while the benchmark runs and are written out once, at the end, so the
// recorder itself does no I/O inside a timed region. A disabled recorder
// records nothing; the untraced run uses one.

#ifndef RHCHME_FITBENCH_SPANS_H_
#define RHCHME_FITBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace fitbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< Index of the enclosing span; -1 for a root.
  int job = -1;     ///< Job id shared by every span of one job; -1 = none.
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested under the innermost open span; returns its id
  /// (-1 when disabled).
  int Begin(const std::string& name, int job);
  /// Closes span `id` (which must be the innermost open one).
  void End(int id);
  /// Records a finished span with explicit times, e.g. one iteration
  /// reconstructed from callback timestamps. `parent` may be -1.
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, int job);

  /// Writes every span (times relative to the first span's start, with
  /// its self time) and the total and self seconds summed per span name
  /// as JSON. Returns false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  /// Span duration minus the union of the intervals its children cover.
  std::vector<double> SelfSeconds() const;
  /// Total and self seconds summed per span name.
  std::map<std::string, std::pair<double, double>> TotalsByName() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int job)
      : rec_(rec), id_(rec->Begin(name, job)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace fitbench

#endif  // RHCHME_FITBENCH_SPANS_H_
