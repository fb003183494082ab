// `join`: set-containment joins R ⋈⊆ S through SetIndex::ExecuteSetJoin
// with kAuto, in memory, at V = 200.
//
// The cycle is the bench_join default (|R| = 1,000 at Dt = 3 against
// |S| = 4,000 at Dt = 12), the same S joined with a smaller R (|R| = 100
// at Dt = 3), and the default again: two joins in three are the default,
// so the median latency falls inside its latencies rather than in the gap
// between the two shapes.  The work is CPU-bound in partitioning,
// probe+verify, in-memory signature building and the kernels; it pays about
// one plan per join and never descends the B-tree, so it stays flat under
// planner or page-cache changes.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "harness/workloads.h"
#include "obj/object_store.h"

namespace sigsetdb::perfbench {
namespace {

constexpr int64_t kV = 200;
// A build takes about 0.1 s, so the set-up and load metrics are medians over
// kBuilds builds made before the timed phase; the last one is measured.
constexpr int kBuilds = 15;

struct Side {
  const char* name;
  int64_t n;
  int64_t dt;
};
// Index 0 is S; the others are R sides joined with it, in cycle order.
constexpr Side kSides[] = {{"s", 4000, 12}, {"r_big", 1000, 3},
                           {"r_small", 100, 3}};
constexpr size_t kNumSides = sizeof(kSides) / sizeof(kSides[0]);
constexpr size_t kCycle[] = {1, 2, 1};  // R sides, in join order

struct Built {
  std::unique_ptr<StorageManager> storage;
  std::vector<std::unique_ptr<SetIndex>> index;  // per side
  std::vector<std::vector<Oid>> oids;            // per side, input order
  double setup_s = 0;
  double load_ms = 0;
  IoStats load_io;
};

Built Build(const std::vector<std::vector<ElementSet>>& sets,
            Samples* batch_ms, Tracer* tracer) {
  Built b;
  const double start = NowUs();
  b.storage = std::make_unique<StorageManager>();
  SetIndex::Options options;
  options.capacity = 8192;  // one page per bit slice at |S| = 4,000
  const double batch_ms_before = batch_ms->Sum();
  for (size_t i = 0; i < kNumSides; ++i) {
    b.index.push_back(Must(
        SetIndex::Create(b.storage.get(), kSides[i].name, options), "create"));
    const IoStats before = b.storage->TotalStats();
    b.oids.push_back(LoadInBatches(b.index[i].get(), sets[i], batch_ms));
    b.load_io += b.storage->TotalStats() - before;
    const double checkpoint_ms =
        TimeMs([&] { Must(b.index[i]->Checkpoint(), "checkpoint"); });
    tracer->Add("db.checkpoint", -1, checkpoint_ms * 1e3);
  }
  b.load_ms = batch_ms->Sum() - batch_ms_before;
  b.setup_s = (NowUs() - start) / 1e6;
  return b;
}

// O(|R|·|S|) subset check over the generated sides.
std::vector<JoinPair> BruteForcePairs(const std::vector<ElementSet>& r,
                                      const std::vector<Oid>& r_oids,
                                      const std::vector<ElementSet>& s,
                                      const std::vector<Oid>& s_oids) {
  std::vector<JoinPair> pairs;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      if (Satisfies(QueryKind::kSubset, r[i], s[j])) {
        pairs.push_back({r_oids[i], s_oids[j]});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace

void RunJoin(const RunOptions& options, Report* report) {
  std::vector<std::vector<ElementSet>> sets;
  for (size_t i = 0; i < kNumSides; ++i) {
    sets.push_back(GenerateSets(kSides[i].n, kV, kSides[i].dt,
                                options.seed * 8 + i));
  }
  Tracer trace(options.trace);
  Tracer* tracer = &trace;
  EndToEnd e;
  LayerCounts counts;
  uint64_t loaded = 0;
  for (const Side& side : kSides) loaded += side.n;
  e.writes = counts.writes = loaded;
  Built built;
  for (int b = 0; b < kBuilds; ++b) {
    // Drop the previous copy, indexes before their storage, then rebuild.
    built.index.clear();
    built.storage.reset();
    built = Build(sets, &e.write_ms, tracer);
    e.setup_s.push_back(built.setup_s);
    e.write_rates.push_back(static_cast<double>(loaded) /
                            (built.load_ms / 1e3));
  }
  e.write_pages = built.load_io.total();
  counts.page_writes = built.load_io.writes();
  counts.cow_copies = built.load_io.cows();
  SetIndex* s_index = built.index[0].get();

  // Oracle and warm-up: every join shape once, checked pair by pair.
  std::vector<size_t> expected(kNumSides, 0);
  for (size_t i = 1; i < kNumSides; ++i) {
    const std::vector<JoinPair> want =
        BruteForcePairs(sets[i], built.oids[i], sets[0], built.oids[0]);
    expected[i] = want.size();
    StatusOr<SetIndexJoinResult> got =
        built.index[i]->ExecuteSetJoin(s_index);
    if (!got.ok()) Fatal("warm-up join: " + got.status().ToString());
    std::fprintf(stderr, "join %s: plan %s, %zu pairs, %llu pages\n",
                 kSides[i].name, got->plan.c_str(), want.size(),
                 static_cast<unsigned long long>(got->page_accesses));
    if (got->join.pairs != want) {
      report->Wrong(std::string("join ") + kSides[i].name +
                    " pairs differ from the brute-force check");
    }
  }

  RoundClock clock(options.seconds);
  do {
    double round_ms = 0;
    for (size_t i : kCycle) {
      tracer->BeginOp();
      report->Attempt();
      const int64_t op = tracer->Begin("op.read");
      const double c0 = ProcessCpuMs();
      const double t0 = NowUs();
      StatusOr<SetIndexJoinResult> got = built.index[i]->ExecuteSetJoin(s_index);
      const double t1 = NowUs();
      const double c1 = ProcessCpuMs();
      tracer->End(op);
      if (!got.ok()) {
        report->Failed(got.status(), "join");
        continue;
      }
      const double ms = (t1 - t0) / 1e3;
      e.read_ms.Add(ms);
      round_ms += ms;
      e.cpu_ms += c1 - c0;
      ++e.reads;
      ++e.ops;
      e.read_pages += got->page_accesses;
      if (got->join.pairs.size() != expected[i]) {
        report->Wrong("join pair count changed between rounds");
      }
      if (tracer->enabled()) {
        // The stage figures come from a second, untimed run of the same join
        // through ExplainSetJoin, so the traced and untraced runs time the
        // same call.
        const SetIndexJoinExplainResult explained =
            Must(built.index[i]->ExplainSetJoin(s_index), "explain join");
        ++counts.joins;
        for (const TraceSpan& stage : explained.trace.stages()) {
          if (stage.name == "r scan" || stage.name == "s scan") {
            counts.join_scan_ms += stage.wall_ms;
          } else if (stage.name == "partition") {
            counts.join_partition_ms += stage.wall_ms;
          } else if (stage.name == "probe+verify") {
            counts.join_probe_verify_ms += stage.wall_ms;
          }
        }
        counts.join_candidate_pairs += explained.result.join.num_candidate_pairs;
        counts.join_pairs += explained.result.join.pairs.size();
      }
    }
    e.read_rates.push_back(std::size(kCycle) / (round_ms / 1e3));
  } while (clock.more());

  e.allocated_pages = built.storage->TotalPages();
  for (const auto& index : built.index) e.live_objects += index->num_objects();
  if (!options.trace) {
    e.read_tail_q = 0.95;
    e.write_tail_q = 0.95;
    return EmitEndToEnd(e, report);
  }

  // The selections a nested-loop join issues: R rows as T ⊇ r queries on S,
  // re-issued through their layer calls.
  const ObjectStore s_store(Must(built.storage->Open("s.objects"), "objects"));
  for (size_t i = 0; i < 200; ++i) {
    const ElementSet& r = sets[1][i];
    tracer->BeginOp();
    const int64_t call = tracer->Begin("db.query");
    StatusOr<SetIndexResult> got = s_index->Query(QueryKind::kSuperset, r);
    tracer->End(call);
    if (!got.ok()) Fatal("probe selection: " + got.status().ToString());
    DecomposeSelection(s_index, s_store, QueryKind::kSuperset, r, *got, call,
                       tracer, &counts, report);
  }
  counts.read_us_per_page = ReadSweepUsPerPage(built.storage.get());
  counts.set_signature_us = SetSignatureUs(sets[0], s_index->options().sig);
  counts.and_accumulate_gbps = AndAccumulateGbps(s_index->bssf()->capacity());
  std::vector<ElementSet> r_rows(sets[0].size());
  for (size_t i = 0; i < r_rows.size(); ++i) {
    r_rows[i] = sets[1][i % sets[1].size()];
  }
  counts.intersect_u64_ns = IntersectU64Ns(r_rows, sets[0]);
  EmitLayerMetrics(*tracer, counts, report);
  tracer->WriteJsonLines(options.work_dir + "/trace.jsonl");
}

}  // namespace sigsetdb::perfbench
