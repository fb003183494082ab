// Shared plumbing of the benchmark: clocks, latency samples, the in-memory
// span recorder used by traced runs, and the one-line JSON report.
//
// The benchmark drives the library only through its public headers and
// times every call from outside, so nothing under src/ knows it is being
// measured.

#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sigsetdb::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for disk-backed files and the span dump.
  std::string work_dir;
};

// Monotonic wall clock in microseconds.
double NowUs();
// CPU time of the whole process (all threads), in milliseconds.
double ProcessCpuMs();
// Peak resident set size of the process, in MB.
double PeakRssMb();

// Latency samples of one operation class, in milliseconds.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

// Median of a list of numbers; 0 when empty.
double Median(std::vector<double> values);

// Spans of a traced run, kept in memory and written when the run ends.  A
// span has a name, start, end, parent span and operation id; `count`
// carries the counter read at the same boundary (pages, candidates, ...).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  void BeginOp() { ++op_; }
  void Clear() { spans_.clear(); }
  // Returns the span id, or -1 when tracing is off.
  int64_t Begin(const char* name, int64_t parent = -1);
  void End(int64_t id, uint64_t count = 0);
  // Records an already-measured interval (e.g. a stage the library timed).
  void Add(const char* name, int64_t parent, double duration_us,
           uint64_t count = 0);

  size_t Count(const std::string& name) const;
  double TotalUs(const std::string& name) const;
  double MeanUs(const std::string& name) const;
  double MedianUs(const std::string& name) const;
  uint64_t SumCount(const std::string& name) const;
  // Mean over spans `name` of duration minus the duration of their direct
  // children.
  double MeanSelfUs(const std::string& name) const;

  // Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    uint64_t op;
    uint64_t count;
  };
  bool enabled_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
};

// A span that ends when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_count(uint64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  int64_t id_;
  uint64_t count_ = 0;
};

// The run's result: counts of attempted and failed operations, whether
// every checked answer was right, and the metrics by name.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  // Records a wrong answer or a broken property; the run then reports
  // correct = false.
  void Wrong(const std::string& what);
  // Records a failed operation (a non-OK status from an operation of the
  // timed phase).
  void Failed(const Status& status, const char* op);
  void Attempt() { ++attempted_; }

  bool correct() const { return wrong_ == 0; }
  std::string Json() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

// Set-up failures are fatal: the benchmark cannot measure a database it
// could not build.
[[noreturn]] void Fatal(const std::string& what);
inline void Must(const Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}
template <typename T>
T Must(StatusOr<T> value, const char* what) {
  if (!value.ok()) Fatal(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

// Runs `fn` and returns its wall-clock duration in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const double start = NowUs();
  fn();
  return (NowUs() - start) / 1000.0;
}

}  // namespace sigsetdb::perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
