#include "trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace lmbench {

bool SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"count\": %" PRId64,
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.count);
    if (s.client != 0) {
      std::fprintf(out, ", \"id\": \"%" PRIu64 ":%" PRId64 ":%d\"", s.client,
                   s.seq, s.attempt);
    }
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace lmbench
