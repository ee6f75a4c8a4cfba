#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {
constexpr size_t kMaxErrors = 20;
}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Inconsistent("metric " + name + " is not finite");
    return;
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, JsonNumber(value));
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, JsonString(value));
}

void Report::Failed(const std::string& what) {
  failed_++;
  if (errors_.size() < kMaxErrors) errors_.push_back(what);
}

void Report::Inconsistent(const std::string& what) {
  consistent_ = false;
  if (errors_.size() < kMaxErrors) errors_.push_back(what);
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); i++) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  return out + "}";
}

std::string Report::ResultJson() const {
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"metrics\": " + MetricsJson() + "}";
}

std::string Report::DetailJson() const {
  std::string out = "{\"info\": {";
  for (size_t i = 0; i < info_.size(); i++) {
    if (i > 0) out += ", ";
    out += JsonString(info_[i].first) + ": " + info_[i].second;
  }
  out += "}, \"errors\": [";
  for (size_t i = 0; i < errors_.size(); i++) {
    if (i > 0) out += ", ";
    out += JsonString(errors_[i]);
  }
  return out + "], \"result\": " + ResultJson() + "}";
}

}  // namespace perfbench
