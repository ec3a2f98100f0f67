// In-memory spans of a traced replay: recorded around the benchmark's own
// calls into each layer, written out once the run ends, and the source of
// the per-layer self times.

#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// \brief One timed interval. `request` is the period number shared by all
/// spans of one period (-1 outside any period); `parent` indexes the span
/// that caused it (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

class SpanRecorder {
 public:
  /// Opens a span that ends later (End); returns its index.
  int32_t Begin(const char* name, int32_t parent, int64_t request,
                int64_t start_ns) {
    spans_.push_back({name, start_ns, start_ns, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }
  void Add(const char* name, int32_t parent, int64_t request,
           int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name in seconds: each span's duration minus the
  /// part its children cover (children of one span never overlap here, the
  /// replay being a single serial client).
  std::map<std::string, double> SelfSeconds() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                     1e-9;
    }
    return out;
  }

  /// One JSON object per line, times relative to the first span.
  void WriteJsonl(std::ostream& out) const {
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns - t0
          << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
