#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace fitbench {

namespace {

double Between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int SpanRecorder::Begin(const std::string& name, int job) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, now, now, parent, job});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanRecorder::Add(const std::string& name, Clock::time_point start,
                      Clock::time_point end, int parent, int job) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, job});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    Clock::time_point cursor = s.start;
    for (const auto& [a, b] : kids) {
      const Clock::time_point lo = std::max(a, cursor);
      const Clock::time_point hi = std::min(b, s.end);
      if (hi > lo) {
        covered += Between(lo, hi);
        cursor = hi;
      }
    }
    self[i] = std::max(0.0, Between(s.start, s.end) - covered);
  }
  return self;
}

std::map<std::string, std::pair<double, double>> SpanRecorder::TotalsByName()
    const {
  const std::vector<double> self = SelfSeconds();
  std::map<std::string, std::pair<double, double>> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& t = totals[spans_[i].name];
    t.first += Between(spans_[i].start, spans_[i].end);
    t.second += self[i];
  }
  return totals;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfSeconds();
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  std::fprintf(f, "{\n  \"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n    {\"id\": %zu, \"name\": \"%s\", \"job\": %d, "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.job, s.parent,
                 Between(origin, s.start), Between(origin, s.end), self[i]);
  }
  std::fprintf(f, "\n  ],\n  \"by_name\": {");
  bool first = true;
  for (const auto& [name, t] : TotalsByName()) {
    std::fprintf(f, "%s\n    \"%s\": {\"total_s\": %.9f, \"self_s\": %.9f}",
                 first ? "" : ",", name.c_str(), t.first, t.second);
    first = false;
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace fitbench
