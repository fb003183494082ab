// `select`: the paper's selection workload on the disk backend.
//
// Table-2 parameters (N = 32,000, V = 13,000, Dt = 10, F = 250, m = 2) on
// a default SetIndex (BSSF + NIX, live V estimate), each page access a
// real read syscall.  A fixed, seeded cycle of 400 queries mixes superset
// (Dq 1-3), subset (Dq 20-100), equality and overlap queries; a quarter of
// the superset, subset and equality queries are built to hit a stored
// object, the rest mostly miss.  One client thread, closed loop.

#include <filesystem>
#include <memory>
#include <string>

#include "harness/workloads.h"
#include "obj/object_store.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sigsetdb::perfbench {
namespace {

constexpr int64_t kN = 32000;
constexpr int64_t kV = 13000;
constexpr int64_t kDt = 10;
constexpr size_t kCycle = 400;
constexpr int kBuilds = 3;
constexpr char kName[] = "sel";

struct SelectQuery {
  QueryKind kind;
  ElementSet set;
  size_t expected = 0;  // answer size, from the brute-force oracle
};

std::vector<SelectQuery> MakeCycle(const std::vector<ElementSet>& sets,
                                   uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  // Fixed class counts (40% superset, 30% subset, 15% equality, 15%
  // overlap) in a seeded order, so every seed runs the same mix.
  std::vector<QueryKind> kinds;
  kinds.insert(kinds.end(), kCycle * 40 / 100, QueryKind::kSuperset);
  kinds.insert(kinds.end(), kCycle * 30 / 100, QueryKind::kSubset);
  kinds.insert(kinds.end(), kCycle * 15 / 100, QueryKind::kEquals);
  kinds.insert(kinds.end(), kCycle - kinds.size(), QueryKind::kOverlaps);
  for (size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.NextBelow(i)]);
  }
  const auto random_set = [&](int64_t dq) {
    ElementSet q;
    for (uint64_t e : rng.SampleWithoutReplacement(kV, dq)) q.push_back(e);
    NormalizeSet(&q);
    return q;
  };
  std::vector<SelectQuery> cycle;
  for (QueryKind kind : kinds) {
    const bool hit = rng.NextBelow(4) == 0;
    const ElementSet& target = sets[rng.NextBelow(sets.size())];
    SelectQuery q{kind, {}, 0};
    switch (kind) {
      case QueryKind::kSuperset: {
        const int64_t dq = 1 + static_cast<int64_t>(rng.NextBelow(3));
        q.set = hit ? MakeHittingSupersetQuery(target, dq, rng)
                    : random_set(dq);
        break;
      }
      case QueryKind::kSubset: {
        const int64_t dq = 20 + static_cast<int64_t>(rng.NextBelow(81));
        q.set = hit ? MakeHittingSubsetQuery(target, kV, dq, rng)
                    : random_set(dq);
        break;
      }
      case QueryKind::kEquals:
        q.set = hit ? target : random_set(kDt);
        break;
      default:
        q.set = random_set(1 + static_cast<int64_t>(rng.NextBelow(3)));
        break;
    }
    cycle.push_back(std::move(q));
  }
  return cycle;
}

struct Built {
  std::unique_ptr<StorageManager> storage;
  std::unique_ptr<SetIndex> index;
  std::vector<Oid> oids;
  double setup_s = 0;
  double load_ms = 0;
  IoStats load_io;
};

Built Build(const std::string& dir, const std::vector<ElementSet>& sets,
            Samples* batch_ms, Tracer* tracer) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Built b;
  const double start = NowUs();
  b.storage = std::make_unique<StorageManager>(dir);
  SetIndex::Options options;
  options.capacity = 32768;  // one page per bit slice at N = 32,000
  b.index = Must(SetIndex::Create(b.storage.get(), kName, options), "create");
  const IoStats before = b.storage->TotalStats();
  const double batch_ms_before = batch_ms->Sum();
  b.oids = LoadInBatches(b.index.get(), sets, batch_ms);
  b.load_ms = batch_ms->Sum() - batch_ms_before;
  b.load_io = b.storage->TotalStats() - before;
  const double checkpoint_ms =
      TimeMs([&] { Must(b.index->Checkpoint(), "checkpoint"); });
  tracer->Add("db.checkpoint", -1, checkpoint_ms * 1e3);
  b.setup_s = (NowUs() - start) / 1e6;
  return b;
}

}  // namespace

void RunSelect(const RunOptions& options, Report* report) {
  const std::vector<ElementSet> sets =
      GenerateSets(kN, kV, kDt, options.seed * 2 + 1);
  std::vector<SelectQuery> cycle = MakeCycle(sets, options.seed);

  Tracer trace(options.trace);
  Tracer* tracer = &trace;
  EndToEnd e;
  LayerCounts counts;
  Built built;
  const std::string data_dir = options.work_dir + "/data";
  for (int b = 0; b < kBuilds; ++b) {
    built = Built{};  // releases the previous build before the next one
    built = Build(data_dir, sets, &e.write_ms, tracer);
    e.setup_s.push_back(built.setup_s);
    e.write_rates.push_back(static_cast<double>(kN) / (built.load_ms / 1e3));
  }
  SetIndex* index = built.index.get();
  e.writes = kN;
  e.write_pages = built.load_io.total();
  counts.writes = kN;
  counts.page_writes = built.load_io.writes();
  counts.cow_copies = built.load_io.cows();

  // Oracle: every distinct query against a scan of the generated sets.
  // Warm-up: one untimed pass, checked in full.
  for (SelectQuery& q : cycle) {
    std::vector<uint64_t> expected;
    for (size_t i = 0; i < sets.size(); ++i) {
      if (Satisfies(q.kind, sets[i], q.set)) {
        expected.push_back(built.oids[i].value());
      }
    }
    q.expected = expected.size();
    StatusOr<SetIndexResult> got = index->Query(q.kind, q.set);
    if (!got.ok()) Fatal("warm-up query: " + got.status().ToString());
    std::vector<uint64_t> answer;
    for (Oid oid : got->result.oids) answer.push_back(oid.value());
    std::sort(answer.begin(), answer.end());
    std::sort(expected.begin(), expected.end());
    if (answer != expected) {
      report->Wrong(std::string("select ") + QueryKindName(q.kind) +
                    " answer differs from the brute-force scan");
    }
  }

  const ObjectStore store_view(
      Must(built.storage->Open(std::string(kName) + ".objects"), "objects"));

  RoundClock clock(options.seconds);
  do {
    double round_ms = 0;
    for (const SelectQuery& q : cycle) {
      tracer->BeginOp();
      report->Attempt();
      const int64_t op = tracer->Begin("op.read");
      const double c0 = ProcessCpuMs();
      const double t0 = NowUs();
      const int64_t call = tracer->Begin("db.query", op);
      StatusOr<SetIndexResult> got = index->Query(q.kind, q.set);
      tracer->End(call);
      const double t1 = NowUs();
      const double c1 = ProcessCpuMs();
      tracer->End(op);
      if (!got.ok()) {
        report->Failed(got.status(), "select query");
        continue;
      }
      const double ms = (t1 - t0) / 1e3;
      e.read_ms.Add(ms);
      round_ms += ms;
      e.cpu_ms += c1 - c0;
      ++e.reads;
      ++e.ops;
      e.read_pages += got->page_accesses;
      if (got->result.oids.size() != q.expected) {
        report->Wrong("select answer size changed between rounds");
      }
      if (tracer->enabled()) {
        DecomposeSelection(index, store_view, q.kind, q.set, *got, call,
                           tracer, &counts, report);
      }
    }
    e.read_rates.push_back(static_cast<double>(cycle.size()) /
                           (round_ms / 1e3));
  } while (clock.more());

  e.allocated_pages = built.storage->TotalPages();
  e.live_objects = index->num_objects();
  if (options.trace) {
    counts.read_us_per_page = ReadSweepUsPerPage(built.storage.get());
    counts.set_signature_us = SetSignatureUs(sets, index->options().sig);
    counts.and_accumulate_gbps = AndAccumulateGbps(index->bssf()->capacity());
    std::vector<ElementSet> shifted(sets.begin() + 1, sets.end());
    counts.intersect_u64_ns = IntersectU64Ns(sets, shifted);
    EmitLayerMetrics(*tracer, counts, report);
    tracer->WriteJsonLines(options.work_dir + "/trace.jsonl");
  } else {
    // p99.9 also has more than ten queries beyond it, but OS hiccups make
    // it swing by half its value from run to run; p99 holds a bound.
    e.read_tail_q = 0.99;
    e.write_tail_q = 0.95;
    EmitEndToEnd(e, report);
  }
  built = Built{};
  std::filesystem::remove_all(data_dir);
}

}  // namespace sigsetdb::perfbench
