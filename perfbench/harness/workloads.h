// The three workloads and the pieces they share: seeded inputs, batched
// loading, brute-force predicates and the end-to-end metric set.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "db/set_index.h"
#include "harness/harness.h"
#include "harness/layers.h"

namespace sigsetdb::perfbench {

void RunSelect(const RunOptions& options, Report* report);
void RunJoin(const RunOptions& options, Report* report);
void RunChurn(const RunOptions& options, Report* report);
// Prints the README's reference figures (see reference.cc).
void RunReference(const RunOptions& options);

// Sets of cardinality `dt` drawn uniformly from [0, v), from `seed`.
std::vector<ElementSet> GenerateSets(int64_t n, int64_t v, int64_t dt,
                                     uint64_t seed);

// Brute-force predicate T <op> Q on sorted, duplicate-free sets, written
// apart from the library's own resolution code.
bool Satisfies(QueryKind kind, const ElementSet& t, const ElementSet& q);

// Loads `sets` through ApplyBatch in batches of kLoadBatch objects, adding
// one latency sample per batch call.  Returns the OIDs in input order.
inline constexpr size_t kLoadBatch = 64;
std::vector<Oid> LoadInBatches(SetIndex* index,
                               const std::vector<ElementSet>& sets,
                               Samples* batch_ms);

// What the timed phase of a workload measured, turned into the end-to-end
// metrics by EmitEndToEnd.
struct EndToEnd {
  std::vector<double> setup_s;      // one per set-up
  std::vector<double> read_rates;   // reads per second, one per round
  Samples read_ms;
  double read_tail_q = 0.99;        // quantile read_tail_ms reports
  uint64_t reads = 0;
  uint64_t read_pages = 0;
  std::vector<double> write_rates;  // acknowledged writes per second
  Samples write_ms;                 // one sample per write call
  double write_tail_q = 0.99;
  uint64_t writes = 0;
  uint64_t write_pages = 0;
  double cpu_ms = 0;                // process CPU inside timed calls
  uint64_t ops = 0;
  uint64_t allocated_pages = 0;
  uint64_t live_objects = 0;
};
void EmitEndToEnd(const EndToEnd& e, Report* report);

// Stops a timed phase made of whole rounds once `seconds` have passed.
class RoundClock {
 public:
  explicit RoundClock(double seconds) : end_us_(NowUs() + seconds * 1e6) {}
  bool more() const { return NowUs() < end_us_; }

 private:
  double end_us_;
};

}  // namespace sigsetdb::perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
