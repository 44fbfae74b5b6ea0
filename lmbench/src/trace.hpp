// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own files around the calls it makes into each layer; they
// carry a name, start, end, the parent span and an optional request id
// (client:seq:attempt, shared by every span of one request attempt).
// Calls too numerous to span one by one are aggregated: one span per
// tick covering all of them, with `count` calls inside. The log is
// written out as Chrome trace JSON when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lmbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the log, -1 for a root
  std::uint64_t client = 0;  // request id, when client != 0
  std::int64_t seq = 0;
  int attempt = 0;
  std::int64_t count = 1;  // calls aggregated into this span
};

class SpanLog {
 public:
  // Opens a span; close it with end(). Returns its index.
  int begin(const char* name, std::int64_t start_ns, int parent) {
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.parent = parent;
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int index, std::int64_t end_ns, std::int64_t count = 1) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = end_ns;
    s.count = count;
  }
  // A finished span.
  int add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  // Chrome trace JSON (one "X" event per span, times relative to the
  // first span). Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace lmbench
