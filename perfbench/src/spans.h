#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "kvstore/scan_filter.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process, every thread, in ns. With steal-time
// accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING) it leaves out the time a
// hypervisor gave the CPU to other guests, which wall time includes.
inline int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * int64_t{1000000000} + ts.tv_nsec;
}

// One timed interval at a layer boundary. Spans of one operation share
// `query`; `parent` is the index of the enclosing span or -1 for a root.
struct Span {
  std::string name;
  int32_t parent = -1;
  uint32_t query = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t items = 0;  // rows or trajectories the span processed, if counted

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// In-memory span store; spans are written out once the run ends. A span's
// id is its index in spans().
class SpanLog {
 public:
  int32_t Begin(std::string name, int32_t parent, uint32_t query);
  void End(int32_t id) { spans_[id].end_ns = NowNs(); }
  int32_t Add(std::string name, int32_t parent, uint32_t query,
              int64_t start_ns, int64_t end_ns, uint64_t items = 0);

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one JSON object per line: id, parent, query, name, start/end in
  // microseconds relative to the first span, and self time.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children's intervals.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Row sink that times each delivery into `inner`. Rows reach it one at a
// time (the cluster serializes sink deliveries), so the summed busy time
// never exceeds the wall time from the first to the last delivery; the
// trace lays it out as one span starting at the first row.
class TimedSink : public tman::kv::RowSink {
 public:
  explicit TimedSink(tman::kv::RowSink* inner) : inner_(inner) {}

  bool Accept(const tman::Slice& key, const tman::Slice& value) override {
    const int64_t start = NowNs();
    const bool more = inner_->Accept(key, value);
    if (rows_ == 0) first_ns_ = start;
    busy_ns_ += NowNs() - start;
    rows_++;
    return more;
  }

  uint64_t rows() const { return rows_; }
  int64_t first_ns() const { return first_ns_; }
  int64_t busy_ns() const { return busy_ns_; }

  // Records the busy time as a child of `parent`, laid out from the first
  // row (or at the parent's end when no row arrived).
  void AddSpan(SpanLog* log, const char* name, int32_t parent,
               uint32_t query) const {
    const int64_t start =
        rows_ > 0 ? first_ns_ : log->spans()[parent].end_ns;
    log->Add(name, parent, query, start, start + busy_ns_, rows_);
  }

 private:
  tman::kv::RowSink* inner_;
  uint64_t rows_ = 0;
  int64_t first_ns_ = 0;
  int64_t busy_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
