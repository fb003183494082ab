#include "harness/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

namespace sigsetdb::perfbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Median();
}

int64_t Tracer::Begin(const char* name, int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowUs(), 0.0, parent, op_, 0});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id, uint64_t count) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_us = NowUs();
  spans_[static_cast<size_t>(id)].count = count;
}

void Tracer::Add(const char* name, int64_t parent, double duration_us,
                 uint64_t count) {
  if (!enabled_) return;
  const double now = NowUs();
  spans_.push_back({name, now - duration_us, now, parent, op_, count});
}

size_t Tracer::Count(const std::string& name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += name == s.name;
  return n;
}

double Tracer::TotalUs(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_us - s.start_us;
  }
  return total;
}

double Tracer::MeanUs(const std::string& name) const {
  const size_t n = Count(name);
  return n == 0 ? 0.0 : TotalUs(name) / static_cast<double>(n);
}

double Tracer::MedianUs(const std::string& name) const {
  Samples s;
  for (const Span& span : spans_) {
    if (name == span.name) s.Add(span.end_us - span.start_us);
  }
  return s.Median();
}

uint64_t Tracer::SumCount(const std::string& name) const {
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.count;
  }
  return total;
}

double Tracer::MeanSelfUs(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  double total = 0;
  size_t n = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    total += spans_[i].end_us - spans_[i].start_us - child_us[i];
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"start_us\":" << std::fixed << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

void Report::Metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Wrong(const std::string& what) {
  if (wrong_ < 10) std::fprintf(stderr, "WRONG: %s\n", what.c_str());
  ++wrong_;
}

void Report::Failed(const Status& status, const char* op) {
  if (failed_ < 10) {
    std::fprintf(stderr, "FAILED %s: %s\n", op, status.ToString().c_str());
  }
  ++failed_;
}

std::string Report::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].second.first)
                         ? metrics_[i].second.first
                         : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].first
        << "\": {\"value\": " << v << ", \"unit\": \""
        << metrics_[i].second.second << "\"}";
  }
  out << "}}";
  return out.str();
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "FATAL: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace sigsetdb::perfbench
