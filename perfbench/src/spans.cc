#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int32_t SpanLog::Begin(std::string name, int32_t parent, uint32_t query) {
  const int64_t now = NowNs();
  return Add(std::move(name), parent, query, now, now);
}

int32_t SpanLog::Add(std::string name, int32_t parent, uint32_t query,
                     int64_t start_ns, int64_t end_ns, uint64_t items) {
  spans_.push_back(
      Span{std::move(name), parent, query, start_ns, end_ns, items});
  return static_cast<int32_t>(spans_.size() - 1);
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    fprintf(f,
            "{\"id\":%zu,\"parent\":%d,\"query\":%u,\"name\":\"%s\","
            "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f,"
            "\"items\":%llu}\n",
            i, s.parent, s.query, s.name.c_str(),
            (s.start_ns - origin) / 1e3, (s.end_ns - origin) / 1e3,
            self[i] / 1e3, static_cast<unsigned long long>(s.items));
  }
  return fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

}  // namespace perfbench
