// Reference figures the README quotes: configurations the workloads do not
// run, each measured beside the one they do.
//
//   perfbench --reference --work-dir DIR
//
// 1. Joins: the bench_join default through kAuto (sig-hash) against a
//    forced nested loop, with the live V estimate and with V fixed.
// 2. Planning: NIX-planned superset queries (Dq = 2) on the select
//    database with the live V estimate against V fixed at 13,000.
// 3. Snapshots: single-client singleton writes (WAL on) with snapshots off
//    and on.
// 4. Threads: three runs of superset and subset queries on the select
//    database with a 2-worker pool.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "db/write_batch.h"
#include "harness/workloads.h"
#include "util/rng.h"

namespace sigsetdb::perfbench {
namespace {

std::unique_ptr<SetIndex> Loaded(StorageManager* storage, const char* name,
                                 const SetIndex::Options& options,
                                 const std::vector<ElementSet>& sets) {
  auto index = Must(SetIndex::Create(storage, name, options), "create");
  Samples ignored;
  LoadInBatches(index.get(), sets, &ignored);
  Must(index->Checkpoint(), "checkpoint");
  return index;
}

void Joins() {
  for (int64_t fixed_v : {int64_t{0}, int64_t{200}}) {
    StorageManager storage;
    SetIndex::Options options;
    options.capacity = 8192;
    options.domain_estimate = fixed_v;
    auto s = Loaded(&storage, "s", options, GenerateSets(4000, 200, 12, 8));
    auto r = Loaded(&storage, "r", options, GenerateSets(1000, 200, 3, 9));
    for (JoinStrategy strategy :
         {JoinStrategy::kAuto, JoinStrategy::kNestedLoop}) {
      JoinSpec spec;
      spec.strategy = strategy;
      Samples ms;
      uint64_t pages = 0;
      std::string plan;
      for (int i = 0; i < 7; ++i) {
        ms.Add(TimeMs([&] {
          SetIndexJoinResult got = Must(r->ExecuteSetJoin(s.get(), spec), "j");
          pages = got.page_accesses;
          plan = got.plan;
        }));
      }
      std::printf("join  V=%-5s %-11s %-12s %8.2f ms median %6llu pages\n",
                  fixed_v > 0 ? "fixed" : "live", JoinStrategyName(strategy),
                  plan.c_str(), ms.Median(),
                  static_cast<unsigned long long>(pages));
    }
  }
}

void Planning(const std::string& dir) {
  const std::vector<ElementSet> sets = GenerateSets(32000, 13000, 10, 3);
  Rng rng(17);
  std::vector<ElementSet> queries;
  for (int i = 0; i < 2000; ++i) {
    ElementSet q{rng.NextBelow(13000), rng.NextBelow(13000)};
    NormalizeSet(&q);
    if (q.size() == 2) queries.push_back(q);
  }
  for (int64_t fixed_v : {int64_t{0}, int64_t{13000}}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    StorageManager storage(dir);
    SetIndex::Options options;
    options.capacity = 32768;
    options.domain_estimate = fixed_v;
    auto index = Loaded(&storage, "sel", options, sets);
    Samples ms;
    uint64_t pages = 0;
    std::string plan;
    for (int pass = 0; pass < 3; ++pass) {
      for (const ElementSet& q : queries) {
        ms.Add(TimeMs([&] {
          SetIndexResult got =
              Must(index->Query(QueryKind::kSuperset, q), "query");
          pages += got.page_accesses;
          plan = got.plan;
        }));
      }
    }
    std::printf("plan  V=%-5s superset Dq=2 via %-10s %8.4f ms median "
                "%6.2f pages/query\n",
                fixed_v > 0 ? "fixed" : "live", plan.c_str(), ms.Median(),
                static_cast<double>(pages) / ms.size());
  }
  std::filesystem::remove_all(dir);
}

void Snapshots() {
  const std::vector<ElementSet> sets = GenerateSets(10000, 13000, 10, 5);
  const std::vector<ElementSet> more = GenerateSets(3000, 13000, 10, 6);
  for (bool snapshots : {false, true}) {
    StorageManager storage;
    SetIndex::Options options;
    options.capacity = 32768;
    options.enable_wal = true;
    options.enable_snapshots = snapshots;
    auto index = Must(SetIndex::Create(&storage, "w", options), "create");
    Samples ignored;
    std::vector<Oid> live = LoadInBatches(index.get(), sets, &ignored);
    Must(index->Checkpoint(), "checkpoint");
    size_t writes = 0;
    const double ms = TimeMs([&] {
      for (size_t i = 0; i < more.size(); ++i) {
        live.push_back(Must(index->Insert(more[i]), "insert"));
        Must(index->Delete(live[i]), "delete");
        writes += 2;
      }
    });
    std::printf("write snapshots %-3s %8.0f singleton writes/s\n",
                snapshots ? "on" : "off", writes / (ms / 1e3));
  }
}

void Threads(const std::string& dir) {
  const std::vector<ElementSet> sets = GenerateSets(32000, 13000, 10, 3);
  Rng rng(23);
  std::vector<std::pair<QueryKind, ElementSet>> queries;
  for (int i = 0; i < 400; ++i) {
    const bool superset = i % 2 == 0;
    ElementSet q;
    for (uint64_t e : rng.SampleWithoutReplacement(
             13000, superset ? 1 + rng.NextBelow(3) : 20 + rng.NextBelow(81))) {
      q.push_back(e);
    }
    NormalizeSet(&q);
    queries.push_back({superset ? QueryKind::kSuperset : QueryKind::kSubset, q});
  }
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StorageManager storage(dir);
  SetIndex::Options options;
  options.capacity = 32768;
  options.num_threads = 2;
  auto index = Loaded(&storage, "sel", options, sets);
  for (int run = 0; run < 3; ++run) {
    Samples ms;
    const double start = NowUs();
    while (NowUs() - start < 5e6) {
      for (const auto& [kind, q] : queries) {
        ms.Add(TimeMs([&] { Must(index->Query(kind, q), "query"); }));
      }
    }
    std::printf("threads=2 run %d %8.0f queries/s  p99 %.3f ms\n", run + 1,
                ms.size() / (ms.Sum() / 1e3), ms.Quantile(0.99));
  }
  index.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

void RunReference(const RunOptions& options) {
  Joins();
  Planning(options.work_dir + "/reference");
  Snapshots();
  Threads(options.work_dir + "/reference");
}

}  // namespace sigsetdb::perfbench
