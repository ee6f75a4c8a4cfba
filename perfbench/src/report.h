#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Everything one run reports: metrics (name, value, unit), the operation
// tally checked against the oracle, and the host/input record.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);

  void Attempted(uint64_t n = 1) { attempted_ += n; }
  // An operation that failed or returned a wrong answer.
  void Failed(const std::string& what);
  // A self-check of the benchmark itself that did not hold.
  void Inconsistent(const std::string& what);

  bool correct() const { return failed_ == 0 && consistent_; }
  const std::vector<std::string>& errors() const { return errors_; }

  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string ResultJson() const;
  // {"info":{..},"errors":[..],"metrics":{..}} for the results file.
  std::string DetailJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::string MetricsJson() const;

  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // key, JSON value
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool consistent_ = true;
};

// JSON string literal for `s` (quotes, backslashes and control characters
// escaped).
std::string JsonString(const std::string& s);

// Shortest round-tripping decimal form of `v`; non-finite values become 0.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
