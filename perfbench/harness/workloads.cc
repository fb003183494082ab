#include "harness/workloads.h"

#include <algorithm>
#include <cstdio>

#include "db/write_batch.h"
#include "workload/generator.h"

namespace sigsetdb::perfbench {

std::vector<ElementSet> GenerateSets(int64_t n, int64_t v, int64_t dt,
                                     uint64_t seed) {
  WorkloadConfig config{n, v, CardinalitySpec::Fixed(dt), SkewKind::kUniform,
                        0.99, seed};
  return MakeDatabase(config);
}

bool Satisfies(QueryKind kind, const ElementSet& t, const ElementSet& q) {
  switch (kind) {
    case QueryKind::kSuperset:
      return std::includes(t.begin(), t.end(), q.begin(), q.end());
    case QueryKind::kSubset:
      return std::includes(q.begin(), q.end(), t.begin(), t.end());
    case QueryKind::kProperSuperset:
      return t.size() > q.size() &&
             std::includes(t.begin(), t.end(), q.begin(), q.end());
    case QueryKind::kProperSubset:
      return t.size() < q.size() &&
             std::includes(q.begin(), q.end(), t.begin(), t.end());
    case QueryKind::kEquals:
      return t == q;
    case QueryKind::kOverlaps: {
      size_t i = 0, j = 0;
      while (i < t.size() && j < q.size()) {
        if (t[i] == q[j]) return true;
        if (t[i] < q[j]) {
          ++i;
        } else {
          ++j;
        }
      }
      return false;
    }
  }
  return false;
}

std::vector<Oid> LoadInBatches(SetIndex* index,
                               const std::vector<ElementSet>& sets,
                               Samples* batch_ms) {
  std::vector<Oid> oids;
  oids.reserve(sets.size());
  for (size_t begin = 0; begin < sets.size(); begin += kLoadBatch) {
    WriteBatch batch;
    const size_t end = std::min(sets.size(), begin + kLoadBatch);
    for (size_t i = begin; i < end; ++i) batch.Insert(sets[i]);
    std::vector<Oid> got;
    batch_ms->Add(TimeMs([&] { got = Must(index->ApplyBatch(batch), "load"); }));
    oids.insert(oids.end(), got.begin(), got.end());
  }
  return oids;
}

void EmitEndToEnd(const EndToEnd& e, Report* report) {
  const auto tail_ok = [](const Samples& s, double q, const char* what) {
    const double beyond = static_cast<double>(s.size()) * (1.0 - q);
    if (beyond < 10.0) {
      std::fprintf(stderr,
                   "note: %s tail p%g has only %.1f samples beyond it\n",
                   what, q * 100, beyond);
    }
  };
  tail_ok(e.read_ms, e.read_tail_q, "read");
  tail_ok(e.write_ms, e.write_tail_q, "write");
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  report->Metric("setup_s", Median(e.setup_s), "s");
  report->Metric("read_per_s", Median(e.read_rates), "1/s");
  report->Metric("read_p50_ms", e.read_ms.Median(), "ms");
  report->Metric("read_tail_ms", e.read_ms.Quantile(e.read_tail_q), "ms");
  report->Metric("write_per_s", Median(e.write_rates), "1/s");
  report->Metric("write_p50_ms", e.write_ms.Median(), "ms");
  report->Metric("write_tail_ms", e.write_ms.Quantile(e.write_tail_q), "ms");
  report->Metric("pages_per_read", ratio(e.read_pages, e.reads), "count");
  report->Metric("pages_per_write", ratio(e.write_pages, e.writes), "count");
  report->Metric("cpu_ms_per_op", ratio(e.cpu_ms, e.ops), "ms");
  report->Metric("bytes_per_object",
                 ratio(static_cast<double>(e.allocated_pages) * kPageSize,
                       e.live_objects),
                 "B");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace sigsetdb::perfbench
