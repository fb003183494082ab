// Differential fuzz over the full write/query surface (DESIGN.md §12).
//
// Six SetIndex replicas — {baseline, skip index, hot tier} × {1 thread,
// 4 threads} — are driven through the same seeded churn (single inserts,
// single deletes, write batches mixing both, periodic compaction) and,
// after every phase, queried with all six query kinds through all three
// forced facilities.  The churn deliberately includes EMPTY sets (∅ is a
// legal stored value: it is a subset of every query, writes no signature
// bits and no postings, and regression-tested here because the nested
// index once lost ∅ objects entirely — kSubset/kProperSubset answers
// disagreed with SSF/BSSF).  Invariants:
//
//   1. Every replica returns exactly the brute-force oracle's answer for
//      every (kind, facility) pair — skipping, the hot tier, and
//      parallelism change cost only, never results.
//   2. Page-access totals are identical at 1 and 4 threads for the
//      baseline and skip replicas (the parallel scan reads every page
//      exactly once).
//   3. With the skip index ON, page-access totals never exceed the
//      baseline's (a skipped page is a read that no longer happens, and
//      dropped tombstone candidates can only shrink the OID look-up).
//   4. OID assignment is deterministic: all replicas agree on every OID.
//   5. The hot tier moves reads, it never removes them: for each hot
//      replica, reads + hot hits equals the baseline's reads exactly, and
//      writes are untouched.  (Raw reads may differ between the two hot
//      replicas — eviction tie-breaks are not deterministic — but the sum
//      identity holds for each.)

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/set_index.h"
#include "db/snapshot.h"
#include "db/synchronized_set_index.h"
#include "db/write_batch.h"
#include "storage/fault_injecting_page_file.h"
#include "storage/storage_manager.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sigsetdb {
namespace {

constexpr int64_t kDomain = 120;
constexpr int64_t kDt = 6;

// Brute-force evaluation of one query over an arbitrary oracle state.
// Returns the matching OID values, sorted.
std::vector<uint64_t> OracleAnswer(const std::map<uint64_t, ElementSet>& oracle,
                                   QueryKind kind, const ElementSet& query) {
  std::vector<uint64_t> out;
  for (const auto& [oid, set] : oracle) {
    bool superset =
        std::includes(set.begin(), set.end(), query.begin(), query.end());
    bool subset =
        std::includes(query.begin(), query.end(), set.begin(), set.end());
    bool hit = false;
    switch (kind) {
      case QueryKind::kSuperset:
        hit = superset;
        break;
      case QueryKind::kProperSuperset:
        hit = superset && set.size() > query.size();
        break;
      case QueryKind::kSubset:
        hit = subset;
        break;
      case QueryKind::kProperSubset:
        hit = subset && set.size() < query.size();
        break;
      case QueryKind::kEquals:
        hit = superset && subset;
        break;
      case QueryKind::kOverlaps: {
        for (uint64_t e : query) {
          if (std::binary_search(set.begin(), set.end(), e)) {
            hit = true;
            break;
          }
        }
        break;
      }
    }
    if (hit) out.push_back(oid);
  }
  return out;
}

struct Replica {
  std::string label;
  std::unique_ptr<StorageManager> storage;
  std::unique_ptr<SetIndex> index;
};

class QueryDifferentialFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    struct Config {
      const char* label;
      bool skip;
      bool hot;
      size_t threads;
    };
    // Replica layout is positional: [0,1] baseline, [2,3] skip index on,
    // [4,5] hot tier on.  CheckQuery's cost invariants index into it.
    for (const Config& c :
         {Config{"off-1t", false, false, 1}, Config{"off-4t", false, false, 4},
          Config{"on-1t", true, false, 1}, Config{"on-4t", true, false, 4},
          Config{"hot-1t", false, true, 1},
          Config{"hot-4t", false, true, 4}}) {
      Replica r;
      r.label = c.label;
      r.storage = std::make_unique<StorageManager>();
      SetIndex::Options options;
      options.maintain_ssf = true;
      options.maintain_bssf = true;
      options.maintain_nix = true;
      options.sig = {120, 3};
      options.capacity = 4096;
      options.num_threads = c.threads;
      options.enable_skip_index = c.skip;
      options.enable_hot_tier = c.hot;
      // Smaller than the slice store so the fuzz also churns evictions.
      options.hot_tier_capacity = 16;
      auto index = SetIndex::Create(r.storage.get(), "fuzz", options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      r.index = std::move(*index);
      replicas_.push_back(std::move(r));
    }
  }

  // Applies one churn action to every replica (and the oracle), asserting
  // the replicas hand out identical OIDs.
  void InsertEverywhere(const ElementSet& set) {
    Oid expected{};
    for (size_t i = 0; i < replicas_.size(); ++i) {
      auto oid = replicas_[i].index->Insert(set);
      ASSERT_TRUE(oid.ok()) << replicas_[i].label;
      if (i == 0) {
        expected = *oid;
      } else {
        ASSERT_EQ(oid->value(), expected.value()) << replicas_[i].label;
      }
    }
    oracle_[expected.value()] = set;
  }

  void DeleteEverywhere(Oid oid) {
    for (Replica& r : replicas_) {
      ASSERT_TRUE(r.index->Delete(oid).ok()) << r.label;
    }
    oracle_.erase(oid.value());
  }

  void BatchEverywhere(const WriteBatch& batch) {
    std::vector<Oid> expected;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      auto oids = replicas_[i].index->ApplyBatch(batch);
      ASSERT_TRUE(oids.ok()) << replicas_[i].label;
      if (i == 0) {
        expected = *oids;
      } else {
        ASSERT_EQ(oids->size(), expected.size());
        for (size_t j = 0; j < expected.size(); ++j) {
          ASSERT_EQ((*oids)[j].value(), expected[j].value());
        }
      }
    }
    for (Oid oid : batch.deletes()) oracle_.erase(oid.value());
    for (size_t j = 0; j < batch.inserts().size(); ++j) {
      oracle_[expected[j].value()] = batch.inserts()[j];
    }
  }

  void CompactEverywhere() {
    for (Replica& r : replicas_) {
      ASSERT_TRUE(r.index->Compact().ok()) << r.label;
    }
  }

  std::vector<Oid> BruteForce(QueryKind kind, const ElementSet& query) const {
    std::vector<Oid> out;
    for (uint64_t value : OracleAnswer(oracle_, kind, query)) {
      out.push_back(Oid{value});
    }
    return out;
  }

  // Runs `kind` on every replica through every forced facility and checks
  // invariants 1–3 and 5.
  void CheckQuery(QueryKind kind, const ElementSet& query,
                  const char* context) {
    const std::vector<Oid> expected = BruteForce(kind, query);
    std::vector<uint64_t> oracle_values;
    for (Oid oid : expected) oracle_values.push_back(oid.value());
    for (PlanMode mode :
         {PlanMode::kForceSsf, PlanMode::kForceBssf, PlanMode::kForceNix}) {
      std::vector<uint64_t> pages(replicas_.size(), 0);
      std::vector<IoStats> deltas(replicas_.size());
      for (size_t i = 0; i < replicas_.size(); ++i) {
        const IoStats before = replicas_[i].storage->TotalStats();
        auto result = replicas_[i].index->Query(kind, query, mode);
        ASSERT_TRUE(result.ok())
            << replicas_[i].label << " " << context
            << " kind=" << QueryKindName(kind);
        deltas[i] = replicas_[i].storage->TotalStats() - before;
        std::vector<uint64_t> got;
        for (Oid oid : result->result.oids) got.push_back(oid.value());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, oracle_values)
            << replicas_[i].label << " " << context << " plan="
            << result->plan << " kind=" << QueryKindName(kind);
        pages[i] = result->page_accesses;
      }
      // Invariant 2: parallelism never changes logical page accesses.
      EXPECT_EQ(pages[0], pages[1])
          << context << " kind=" << QueryKindName(kind) << " (skip off)";
      EXPECT_EQ(pages[2], pages[3])
          << context << " kind=" << QueryKindName(kind) << " (skip on)";
      // Invariant 3: skipping can only remove page accesses.
      EXPECT_LE(pages[2], pages[0])
          << context << " kind=" << QueryKindName(kind);
      // Invariant 5: the hot tier moves reads to hot hits one-for-one —
      // the sum must equal the baseline's reads for the same query, and
      // writes must be untouched.  Holds per hot replica even though the
      // raw split can differ between them (eviction tie-breaks are not
      // deterministic across replicas).
      for (size_t i = 4; i < replicas_.size(); ++i) {
        EXPECT_EQ(deltas[i].reads() + deltas[i].hots(), deltas[0].reads())
            << replicas_[i].label << " " << context
            << " kind=" << QueryKindName(kind);
        EXPECT_EQ(deltas[i].writes(), deltas[0].writes())
            << replicas_[i].label << " " << context
            << " kind=" << QueryKindName(kind);
      }
    }
  }

  void CheckAllKinds(Rng* rng, const char* context) {
    ElementSet probe;
    if (!oracle_.empty()) {
      size_t target_idx = rng->NextBelow(oracle_.size());
      auto it = oracle_.begin();
      std::advance(it, static_cast<long>(target_idx));
      probe = it->second;
    }
    ElementSet superset_q =
        probe.empty() ? rng->SampleWithoutReplacement(kDomain, 2)
                      : MakeHittingSupersetQuery(probe, 2, *rng);
    ElementSet subset_q =
        probe.empty()
            ? rng->SampleWithoutReplacement(kDomain, kDt + 4)
            : MakeHittingSubsetQuery(probe, kDomain, kDt + 4, *rng);
    ElementSet random_q = rng->SampleWithoutReplacement(kDomain, 3);
    CheckQuery(QueryKind::kSuperset, superset_q, context);
    CheckQuery(QueryKind::kProperSuperset, superset_q, context);
    CheckQuery(QueryKind::kSubset, subset_q, context);
    CheckQuery(QueryKind::kProperSubset, subset_q, context);
    if (!probe.empty()) CheckQuery(QueryKind::kEquals, probe, context);
    CheckQuery(QueryKind::kOverlaps, random_q, context);
  }

  std::vector<Oid> LiveOids() const {
    std::vector<Oid> out;
    for (const auto& [oid, set] : oracle_) out.push_back(Oid{oid});
    return out;
  }

  std::vector<Replica> replicas_;
  std::map<uint64_t, ElementSet> oracle_;  // live objects, by OID value
};

TEST_F(QueryDifferentialFuzzTest, ChurnedRepliasAgreeAcrossSkipAndThreads) {
  Rng rng(20260806);
  WorkloadConfig wconfig{64, kDomain, CardinalitySpec::Fixed(kDt),
                         SkewKind::kUniform, 0.99, 7};
  std::vector<ElementSet> seed_sets = MakeDatabase(wconfig);
  // Phase 1 — singleton inserts, with ∅ objects mixed in (they write no
  // signature bits and no postings; only the NIX roster sees them).
  InsertEverywhere(ElementSet{});
  for (int i = 0; i < 24; ++i) InsertEverywhere(seed_sets[i]);
  InsertEverywhere(ElementSet{});
  CheckAllKinds(&rng, "after inserts");
  // Phase 2 — delete a third (creates tombstones, empties slice bits).
  {
    std::vector<Oid> live = LiveOids();
    for (size_t i = 0; i < live.size(); i += 3) DeleteEverywhere(live[i]);
  }
  CheckAllKinds(&rng, "after deletes");
  // Phase 3 — batches mixing deletes with slot-reusing inserts, ∅ included
  // on both sides: one ∅ object dies, a new one is born in the same batch.
  {
    WriteBatch batch;
    uint64_t dead_empty = ~uint64_t{0};
    for (const auto& [oid, set] : oracle_) {
      if (set.empty()) {
        dead_empty = oid;
        batch.Delete(Oid{oid});
        break;
      }
    }
    std::vector<Oid> live = LiveOids();
    for (size_t i = 0; i < live.size(); i += 4) {
      if (live[i].value() != dead_empty) batch.Delete(live[i]);
    }
    for (int i = 24; i < 44; ++i) batch.Insert(seed_sets[i]);
    batch.Insert(ElementSet{});
    BatchEverywhere(batch);
  }
  CheckAllKinds(&rng, "after batch");
  // Phase 4 — compaction drops the tombstones and rebuilds summaries.
  CompactEverywhere();
  CheckAllKinds(&rng, "after compact");
  // Phase 5 — more churn on the compacted generation.
  {
    WriteBatch batch;
    std::vector<Oid> live = LiveOids();
    for (size_t i = 0; i < live.size(); i += 5) batch.Delete(live[i]);
    for (int i = 44; i < 56; ++i) batch.Insert(seed_sets[i]);
    BatchEverywhere(batch);
  }
  CheckAllKinds(&rng, "after post-compact batch");
}

// ∅ is a subset of every query: empty-set objects write no signature bits,
// no postings, and no B-tree entries, yet must surface as kSubset and
// kProperSubset answers from every facility.  This pins the nested-index
// bug where ∅ objects vanished from candidate sets — SSF/BSSF zero
// signatures pass the subset OR-scan naturally, but per-element posting
// lists never see ∅; only the explicit roster does.  The roster must
// survive single deletes, batch churn, and the compaction bulk-rebuild.
TEST_F(QueryDifferentialFuzzTest, EmptySetObjectsSurviveChurnEverywhere) {
  Rng rng(424242);
  InsertEverywhere(ElementSet{});  // into a fresh store
  WorkloadConfig wconfig{16, kDomain, CardinalitySpec::Fixed(kDt),
                         SkewKind::kUniform, 0.99, 17};
  std::vector<ElementSet> sets = MakeDatabase(wconfig);
  for (int i = 0; i < 10; ++i) InsertEverywhere(sets[i]);
  InsertEverywhere(ElementSet{});  // amid data
  std::vector<uint64_t> empty_oids;
  for (const auto& [oid, set] : oracle_) {
    if (set.empty()) empty_oids.push_back(oid);
  }
  ASSERT_EQ(empty_oids.size(), 2u);
  // Guard the guard: the oracle itself must classify ∅ as a subset and a
  // proper-subset hit for any non-empty query (CheckQuery then verifies
  // every facility × replica against it).
  ElementSet q = rng.SampleWithoutReplacement(kDomain, 3);
  for (QueryKind kind : {QueryKind::kSubset, QueryKind::kProperSubset}) {
    std::vector<uint64_t> ans = OracleAnswer(oracle_, kind, q);
    for (uint64_t oid : empty_oids) {
      ASSERT_TRUE(std::binary_search(ans.begin(), ans.end(), oid))
          << QueryKindName(kind);
    }
  }
  CheckAllKinds(&rng, "empty-set: after inserts");
  CheckQuery(QueryKind::kSubset, q, "empty-set: explicit subset");
  CheckQuery(QueryKind::kProperSubset, q, "empty-set: explicit proper");
  // Single delete of one ∅ object; the other must remain everywhere.
  DeleteEverywhere(Oid{empty_oids[0]});
  CheckAllKinds(&rng, "empty-set: after delete");
  CheckQuery(QueryKind::kSubset, q, "empty-set: subset after delete");
  // Batch: the surviving ∅ object dies and a fresh one is born in the same
  // batch, alongside a slot-reusing data insert.
  {
    WriteBatch batch;
    batch.Delete(Oid{empty_oids[1]});
    batch.Insert(ElementSet{});
    batch.Insert(sets[10]);
    BatchEverywhere(batch);
  }
  CheckAllKinds(&rng, "empty-set: after batch");
  CheckQuery(QueryKind::kSubset, q, "empty-set: subset after batch");
  // The roster must survive the compaction bulk-rebuild.
  CompactEverywhere();
  CheckAllKinds(&rng, "empty-set: after compact");
  CheckQuery(QueryKind::kSubset, q, "empty-set: subset after compact");
}

// Hammering one superset query warms the hot tier past its admission
// threshold: later runs must be served partly from pinned pages (hot hits
// strictly positive) while the identity reads + hot == baseline reads holds
// on every run, and the write path keeps pinned copies coherent (answers
// stay oracle-exact after churn mutates pages that are pinned).
TEST_F(QueryDifferentialFuzzTest, HotTierMovesReadsWithoutChangingThem) {
  Rng rng(7777);
  WorkloadConfig wconfig{32, kDomain, CardinalitySpec::Fixed(kDt),
                         SkewKind::kUniform, 0.99, 19};
  std::vector<ElementSet> sets = MakeDatabase(wconfig);
  for (int i = 0; i < 20; ++i) InsertEverywhere(sets[i]);
  Replica& base = replicas_[0];
  Replica& hot = replicas_[4];
  const ElementSet probe = sets[3];
  const ElementSet query = MakeHittingSupersetQuery(probe, 2, rng);
  uint64_t total_hot = 0;
  for (int round = 0; round < 6; ++round) {
    const IoStats base_before = base.storage->TotalStats();
    auto base_result =
        base.index->Query(QueryKind::kSuperset, query, PlanMode::kForceBssf);
    ASSERT_TRUE(base_result.ok()) << round;
    const IoStats base_delta = base.storage->TotalStats() - base_before;
    const IoStats hot_before = hot.storage->TotalStats();
    auto hot_result =
        hot.index->Query(QueryKind::kSuperset, query, PlanMode::kForceBssf);
    ASSERT_TRUE(hot_result.ok()) << round;
    const IoStats hot_delta = hot.storage->TotalStats() - hot_before;
    std::vector<uint64_t> base_oids, hot_oids;
    for (Oid oid : base_result->result.oids) base_oids.push_back(oid.value());
    for (Oid oid : hot_result->result.oids) hot_oids.push_back(oid.value());
    std::sort(base_oids.begin(), base_oids.end());
    std::sort(hot_oids.begin(), hot_oids.end());
    EXPECT_EQ(base_oids, hot_oids) << "round " << round;
    EXPECT_EQ(hot_delta.reads() + hot_delta.hots(), base_delta.reads())
        << "round " << round;
    total_hot += hot_delta.hots();
  }
  // Admission threshold is 2, so round 3 onward must actually hit the tier.
  EXPECT_GT(total_hot, 0u);
  // Write-path coherence: deleting the probe clears its slice bits in the
  // pinned copies too, so the hot-served scan must agree with the oracle.
  for (const auto& [oid, set] : oracle_) {
    if (set == probe) {
      DeleteEverywhere(Oid{oid});
      break;
    }
  }
  CheckQuery(QueryKind::kSuperset, query, "hot tier: after probe delete");
  CheckAllKinds(&rng, "hot tier: after probe delete");
}

// Deleting everything makes every slice page empty and every SSF page's
// live count zero: with the skip index on, a superset scan must skip all of
// its slice reads, and results must stay correct (empty) throughout.
TEST_F(QueryDifferentialFuzzTest, FullyTombstonedStoreSkipsEverything) {
  Rng rng(99);
  WorkloadConfig wconfig{16, kDomain, CardinalitySpec::Fixed(kDt),
                         SkewKind::kUniform, 0.99, 13};
  std::vector<ElementSet> sets = MakeDatabase(wconfig);
  for (const ElementSet& set : sets) InsertEverywhere(set);
  for (Oid oid : LiveOids()) DeleteEverywhere(oid);
  ASSERT_TRUE(oracle_.empty());
  ElementSet query = rng.SampleWithoutReplacement(kDomain, 2);
  // The skip-on BSSF replica must read no slice pages at all: every column
  // is dead (all slice pages are zero after the delete-path clears).
  Replica& skip_on = replicas_[2];
  const IoStats before = skip_on.index->bssf()->StageStats()[0].second;
  auto result = skip_on.index->Query(QueryKind::kSuperset, query,
                                     PlanMode::kForceBssf);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->result.oids.empty());
  const IoStats delta =
      skip_on.index->bssf()->StageStats()[0].second - before;
  EXPECT_EQ(delta.reads(), 0u);
  EXPECT_GT(delta.skips(), 0u);
  // And the replicas still agree everywhere.
  CheckAllKinds(&rng, "fully tombstoned");
}

// The WAL variant of the fuzz: the same four replicas run with
// enable_wal=true behind a fault injector, the churn is interrupted by
// crashes (every I/O of the interrupting operation fails, so it is never
// acknowledged and the oracle never records it), each replica is reopened
// on its torn storage, and the full differential query battery must still
// agree with the brute-force oracle over the ACKED operations only —
// recovery loses nothing acknowledged and invents nothing, at both thread
// counts and both skip-index settings.
class WalCrashFuzzTest : public QueryDifferentialFuzzTest {
 protected:
  void SetUp() override {
    struct Config {
      const char* label;
      bool skip;
      size_t threads;
    };
    for (const Config& c :
         {Config{"off-1t", false, 1}, Config{"off-4t", false, 4},
          Config{"on-1t", true, 1}, Config{"on-4t", true, 4}}) {
      Replica r;
      r.label = c.label;
      r.storage = std::make_unique<StorageManager>();
      auto injector = std::make_unique<FaultInjector>();
      r.storage->SetInterceptor(
          [inj = injector.get()](
              std::unique_ptr<PageFile> base) -> std::unique_ptr<PageFile> {
            return std::make_unique<FaultInjectingPageFile>(std::move(base),
                                                            inj);
          });
      SetIndex::Options options;
      options.maintain_ssf = true;
      options.maintain_bssf = true;
      options.maintain_nix = true;
      options.sig = {120, 3};
      options.capacity = 4096;
      options.num_threads = c.threads;
      options.enable_skip_index = c.skip;
      options.enable_wal = true;
      auto index = SetIndex::Create(r.storage.get(), "fuzz", options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      r.index = std::move(*index);
      replicas_.push_back(std::move(r));
      injectors_.push_back(std::move(injector));
      options_.push_back(options);
    }
  }

  // Crashes every replica on the first I/O of `op`: the operation fails on
  // all of them, nothing is acknowledged, and the oracle stays untouched.
  void CrashEverywhereOn(const std::function<Status(SetIndex*)>& op) {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      injectors_[i]->CrashAt(injectors_[i]->ops());
      Status status = op(replicas_[i].index.get());
      EXPECT_FALSE(status.ok())
          << replicas_[i].label << ": crashed operation reported success";
      EXPECT_TRUE(injectors_[i]->crashed()) << replicas_[i].label;
    }
  }

  void ReopenEverywhere(const char* context) {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      injectors_[i]->Disarm();
      replicas_[i].index.reset();
      auto reopened =
          SetIndex::Open(replicas_[i].storage.get(), "fuzz", options_[i]);
      ASSERT_TRUE(reopened.ok())
          << replicas_[i].label << " " << context << ": "
          << reopened.status().ToString();
      replicas_[i].index = std::move(*reopened);
    }
  }

  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::vector<SetIndex::Options> options_;
};

TEST_F(WalCrashFuzzTest, CrashAndReopenMidChurnMatchesOracleOverAckedOps) {
  Rng rng(20260808);
  WorkloadConfig wconfig{64, kDomain, CardinalitySpec::Fixed(kDt),
                         SkewKind::kUniform, 0.99, 21};
  std::vector<ElementSet> sets = MakeDatabase(wconfig);

  // Phase 1 — acked churn that recovery must carry across the crash: the
  // initial checkpoint happened inside Create, so ALL of this lives only in
  // the log until a later checkpoint.
  for (int i = 0; i < 20; ++i) InsertEverywhere(sets[i]);
  {
    std::vector<Oid> live = LiveOids();
    for (size_t i = 0; i < live.size(); i += 4) DeleteEverywhere(live[i]);
  }
  CheckAllKinds(&rng, "wal: before first crash");

  // Crash 1 — mid-singleton-insert, then recover from pure log replay.
  CrashEverywhereOn([&](SetIndex* index) {
    return index->Insert(sets[20]).status();
  });
  ReopenEverywhere("after crash 1");
  CheckAllKinds(&rng, "wal: recovered from insert crash");

  // Phase 2 — churn on the recovered indexes (slot reuse over tombstones).
  {
    WriteBatch batch;
    std::vector<Oid> live = LiveOids();
    for (size_t i = 0; i < live.size(); i += 3) batch.Delete(live[i]);
    for (int i = 20; i < 32; ++i) batch.Insert(sets[i]);
    BatchEverywhere(batch);
  }
  CheckAllKinds(&rng, "wal: after post-recovery batch");

  // Crash 2 — mid-batch; the whole group is unacked and must vanish.
  CrashEverywhereOn([&](SetIndex* index) {
    WriteBatch batch;
    std::vector<Oid> live = LiveOids();
    batch.Delete(live[0]);
    for (int i = 32; i < 35; ++i) batch.Insert(sets[i]);
    return index->ApplyBatch(batch).status();
  });
  ReopenEverywhere("after crash 2");
  CheckAllKinds(&rng, "wal: recovered from batch crash");

  // Phase 3 — checkpoint + compact so the log truncates, then crash a
  // compaction; the committed generation must keep serving.
  CompactEverywhere();
  CheckAllKinds(&rng, "wal: after compact");
  CrashEverywhereOn([](SetIndex* index) { return index->Compact(); });
  ReopenEverywhere("after crash 3");
  CheckAllKinds(&rng, "wal: recovered from compact crash");

  // Phase 4 — the recovered, twice-crashed replicas still take churn and
  // still agree on OID assignment everywhere.
  {
    WriteBatch batch;
    std::vector<Oid> live = LiveOids();
    for (size_t i = 0; i < live.size(); i += 5) batch.Delete(live[i]);
    for (int i = 35; i < 44; ++i) batch.Insert(sets[i]);
    BatchEverywhere(batch);
  }
  CheckAllKinds(&rng, "wal: final churn");
}

// ---------------------------------------------------------------------------
// Concurrent snapshot differential fuzz (DESIGN.md §14).
//
// One writer thread (the test body) drives seeded churn through four
// SynchronizedSetIndex replicas — {snapshots on, off} × {1, 4 reader
// threads} — with identical OID streams, while the reader threads run the
// whole time:
//
//   * On the snapshot replicas, readers pin a Snapshot and query LOCK-FREE.
//     Every mutation publishes exactly one epoch and Create publishes
//     epoch 1 (the empty index), so the state pinned at epoch E is, by
//     construction, the oracle after E-1 operations.  The writer appends
//     each post-op oracle to a shared history; a reader at epoch E must
//     match history[E-1] EXACTLY — the strongest possible statement that a
//     pinned scan is immune to concurrent churn.
//
//   * On the mutex replicas (snapshots off), readers query live under the
//     shared lock.  A live query sees some committed state inside its
//     [before, after] op-count window; it must match history[k] for one
//     k in that window — linearizability of the lock path.
//
// A long-lived snapshot pinned early survives deletes, batches and TWO
// compactions, and still answers for its own epoch at the end.  After the
// readers drain, all four replicas must agree with the final oracle AND
// with each other on logical page accesses — snapshots change concurrency,
// never results or paper-counted I/O.
// ---------------------------------------------------------------------------
class ConcurrentSnapshotFuzzTest : public ::testing::Test {
 protected:
  struct SyncReplica {
    std::string label;
    bool snapshots = false;
    int readers = 0;
    std::unique_ptr<StorageManager> storage;
    std::unique_ptr<SynchronizedSetIndex> index;
    // Committed operation count; readers bracket live queries with it.
    std::atomic<uint64_t> ops_applied{0};
  };

  void SetUp() override {
    struct Config {
      const char* label;
      bool snapshots;
      int readers;
    };
    for (const Config& c :
         {Config{"snap-1r", true, 1}, Config{"snap-4r", true, 4},
          Config{"mutex-1r", false, 1}, Config{"mutex-4r", false, 4}}) {
      auto r = std::make_unique<SyncReplica>();
      r->label = c.label;
      r->snapshots = c.snapshots;
      r->readers = c.readers;
      r->storage = std::make_unique<StorageManager>();
      SetIndex::Options options;
      options.maintain_ssf = true;
      options.maintain_bssf = true;
      options.maintain_nix = true;
      options.sig = {120, 3};
      options.capacity = 4096;
      options.enable_snapshots = c.snapshots;
      auto index =
          SynchronizedSetIndex::Create(r->storage.get(), "fuzz", options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      r->index = std::move(*index);
      replicas_.push_back(std::move(r));
    }
    // history_[k] = oracle after k committed operations; Create published
    // epoch 1 = history_[0] = the empty index.
    history_.push_back({});
  }

  void TearDown() override {
    done_.store(true, std::memory_order_release);
    for (std::thread& t : readers_) {
      if (t.joinable()) t.join();
    }
  }

  // --- shared history (writer appends, readers look up) ---

  void PushHistory() {
    std::lock_guard<std::mutex> lock(history_mu_);
    history_.push_back(oracle_);
  }

  size_t HistorySize() {
    std::lock_guard<std::mutex> lock(history_mu_);
    return history_.size();
  }

  // Copies history_[epoch-1], waiting briefly if the writer has published
  // the epoch on replica 0 but not yet appended the oracle entry.
  bool OracleAtEpoch(uint64_t epoch, std::map<uint64_t, ElementSet>* out) {
    for (int spin = 0; spin < 10000; ++spin) {
      {
        std::lock_guard<std::mutex> lock(history_mu_);
        if (history_.size() >= epoch) {
          *out = history_[epoch - 1];
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  void Record(const std::string& label, const std::string& msg) {
    std::lock_guard<std::mutex> lock(errors_mu_);
    errors_.push_back(label + ": " + msg);
  }

  // --- churn: replica 0 first (it assigns the OIDs the oracle needs),
  // then the history entry, then the other replicas ---

  void InsertEverywhere(const ElementSet& set) {
    auto oid = replicas_[0]->index->Insert(set);
    ASSERT_TRUE(oid.ok());
    replicas_[0]->ops_applied.fetch_add(1, std::memory_order_release);
    oracle_[oid->value()] = set;
    PushHistory();
    for (size_t i = 1; i < replicas_.size(); ++i) {
      auto got = replicas_[i]->index->Insert(set);
      ASSERT_TRUE(got.ok()) << replicas_[i]->label;
      ASSERT_EQ(got->value(), oid->value()) << replicas_[i]->label;
      replicas_[i]->ops_applied.fetch_add(1, std::memory_order_release);
    }
    CheckEpochInvariant();
  }

  void DeleteEverywhere(Oid oid) {
    ASSERT_TRUE(replicas_[0]->index->Delete(oid).ok());
    replicas_[0]->ops_applied.fetch_add(1, std::memory_order_release);
    oracle_.erase(oid.value());
    PushHistory();
    for (size_t i = 1; i < replicas_.size(); ++i) {
      ASSERT_TRUE(replicas_[i]->index->Delete(oid).ok())
          << replicas_[i]->label;
      replicas_[i]->ops_applied.fetch_add(1, std::memory_order_release);
    }
    CheckEpochInvariant();
  }

  void BatchEverywhere(const WriteBatch& batch) {
    auto oids = replicas_[0]->index->ApplyBatch(batch);
    ASSERT_TRUE(oids.ok());
    replicas_[0]->ops_applied.fetch_add(1, std::memory_order_release);
    for (Oid oid : batch.deletes()) oracle_.erase(oid.value());
    for (size_t j = 0; j < batch.inserts().size(); ++j) {
      oracle_[(*oids)[j].value()] = batch.inserts()[j];
    }
    PushHistory();
    for (size_t i = 1; i < replicas_.size(); ++i) {
      auto got = replicas_[i]->index->ApplyBatch(batch);
      ASSERT_TRUE(got.ok()) << replicas_[i]->label;
      ASSERT_EQ(got->size(), oids->size());
      for (size_t j = 0; j < oids->size(); ++j) {
        ASSERT_EQ((*got)[j].value(), (*oids)[j].value())
            << replicas_[i]->label;
      }
      replicas_[i]->ops_applied.fetch_add(1, std::memory_order_release);
    }
    CheckEpochInvariant();
  }

  void CompactEverywhere() {
    ASSERT_TRUE(replicas_[0]->index->Compact().ok());
    replicas_[0]->ops_applied.fetch_add(1, std::memory_order_release);
    PushHistory();  // compaction changes no answers, but publishes an epoch
    for (size_t i = 1; i < replicas_.size(); ++i) {
      ASSERT_TRUE(replicas_[i]->index->Compact().ok())
          << replicas_[i]->label;
      replicas_[i]->ops_applied.fetch_add(1, std::memory_order_release);
    }
    CheckEpochInvariant();
  }

  // Every operation publishes exactly one epoch, so the published epoch on
  // the snapshot replicas always equals the history length.
  void CheckEpochInvariant() {
    const uint64_t expected = HistorySize();
    ASSERT_EQ(replicas_[0]->index->current_epoch(), expected);
    ASSERT_EQ(replicas_[1]->index->current_epoch(), expected);
  }

  // --- reader bodies ---

  static std::string Mismatch(uint64_t epoch, QueryKind kind, PlanMode mode,
                              size_t got, size_t want) {
    std::ostringstream os;
    os << "epoch=" << epoch << " kind=" << QueryKindName(kind)
       << " mode=" << static_cast<int>(mode) << ": got " << got
       << " oids, oracle has " << want;
    return os.str();
  }

  // Checks one snapshot query against the epoch's oracle; returns false and
  // records on mismatch.
  bool CheckSnapshotQuery(SyncReplica* r, Snapshot* snap,
                          const std::map<uint64_t, ElementSet>& oracle,
                          QueryKind kind, const ElementSet& query,
                          PlanMode mode) {
    auto result = snap->Query(kind, query, mode);
    if (!result.ok()) {
      Record(r->label, "snapshot query failed: " + result.status().ToString());
      return false;
    }
    std::vector<uint64_t> got;
    for (Oid oid : result->result.oids) got.push_back(oid.value());
    std::sort(got.begin(), got.end());
    const std::vector<uint64_t> want = OracleAnswer(oracle, kind, query);
    if (got != want) {
      Record(r->label,
             Mismatch(snap->epoch(), kind, mode, got.size(), want.size()));
      return false;
    }
    return true;
  }

  // Snapshot reader: pin an epoch, fetch its oracle, verify every forced
  // facility agrees, loop until told to stop.
  void SnapshotReaderLoop(SyncReplica* r, int reader_id, size_t slot) {
    Rng rng(static_cast<uint64_t>(0xC0FFEE + 131 * reader_id));
    while (!done_.load(std::memory_order_acquire)) {
      auto snap_or = r->index->GetSnapshot();
      if (!snap_or.ok()) {
        Record(r->label,
               "GetSnapshot failed: " + snap_or.status().ToString());
        return;
      }
      std::unique_ptr<Snapshot> snap = std::move(*snap_or);
      std::map<uint64_t, ElementSet> oracle;
      if (!OracleAtEpoch(snap->epoch(), &oracle)) {
        Record(r->label, "no oracle for pinned epoch (writer stalled?)");
        return;
      }
      if (snap->num_objects() != oracle.size()) {
        Record(r->label, "num_objects mismatch at epoch " +
                             std::to_string(snap->epoch()));
        return;
      }
      // Snapshot open trusts the published tree shape; the structural walk
      // it no longer does runs here, on every pinned epoch.
      const Status structure =
          snap->nix_tree_for_testing()->ValidateStructure();
      if (!structure.ok()) {
        Record(r->label, "pinned NIX tree at epoch " +
                             std::to_string(snap->epoch()) + ": " +
                             structure.ToString());
        return;
      }
      ElementSet probe;
      if (!oracle.empty()) {
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(oracle.size())));
        probe = it->second;
      }
      const ElementSet superset_q =
          probe.empty() ? rng.SampleWithoutReplacement(kDomain, 2)
                        : ElementSet{probe[0], probe[1]};
      const ElementSet overlap_q = rng.SampleWithoutReplacement(kDomain, 3);
      bool ok = true;
      for (PlanMode mode : {PlanMode::kForceSsf, PlanMode::kForceBssf,
                            PlanMode::kForceNix}) {
        ok = CheckSnapshotQuery(r, snap.get(), oracle, QueryKind::kSuperset,
                                superset_q, mode) &&
             ok;
        ok = CheckSnapshotQuery(r, snap.get(), oracle, QueryKind::kOverlaps,
                                overlap_q, mode) &&
             ok;
        if (!probe.empty()) {
          ok = CheckSnapshotQuery(r, snap.get(), oracle, QueryKind::kSubset,
                                  probe, mode) &&
               ok;
        }
      }
      if (!probe.empty()) {
        ok = CheckSnapshotQuery(r, snap.get(), oracle, QueryKind::kEquals,
                                probe, PlanMode::kForceSsf) &&
             ok;
      }
      if (!ok) return;  // already recorded; stop this reader
      reader_iters_[slot].fetch_add(1, std::memory_order_release);
    }
  }

  // Live reader (snapshots off): a query under the shared lock must match
  // the oracle at SOME committed op count inside its observation window.
  void LiveReaderLoop(SyncReplica* r, int reader_id, size_t slot) {
    Rng rng(static_cast<uint64_t>(0xBEEF + 131 * reader_id));
    constexpr std::array<QueryKind, 3> kKinds = {
        QueryKind::kSuperset, QueryKind::kSubset, QueryKind::kOverlaps};
    constexpr std::array<PlanMode, 3> kModes = {
        PlanMode::kForceSsf, PlanMode::kForceBssf, PlanMode::kForceNix};
    while (!done_.load(std::memory_order_acquire)) {
      const QueryKind kind = kKinds[rng.NextBelow(kKinds.size())];
      const PlanMode mode = kModes[rng.NextBelow(kModes.size())];
      const ElementSet query = rng.SampleWithoutReplacement(
          kDomain, kind == QueryKind::kSubset ? kDt + 4 : 2);
      const uint64_t k1 = r->ops_applied.load(std::memory_order_acquire);
      auto result = r->index->Query(kind, query, mode);
      const uint64_t k2 = r->ops_applied.load(std::memory_order_acquire);
      if (!result.ok()) {
        Record(r->label, "live query failed: " + result.status().ToString());
        return;
      }
      std::vector<uint64_t> got;
      for (Oid oid : result->result.oids) got.push_back(oid.value());
      std::sort(got.begin(), got.end());
      bool matched = false;
      {
        std::lock_guard<std::mutex> lock(history_mu_);
        // The +1 covers an op that committed between the query's return and
        // the k2 load; clamp to what the writer has appended.
        const size_t hi =
            std::min<size_t>(static_cast<size_t>(k2) + 1, history_.size() - 1);
        for (size_t k = static_cast<size_t>(k1); k <= hi && !matched; ++k) {
          matched = got == OracleAnswer(history_[k], kind, query);
        }
      }
      if (!matched) {
        Record(r->label, Mismatch(k1, kind, mode, got.size(),
                                  static_cast<size_t>(k2)));
        return;
      }
      reader_iters_[slot].fetch_add(1, std::memory_order_release);
    }
  }

  void StartReaders() {
    size_t slot = 0;
    for (auto& r : replicas_) {
      for (int i = 0; i < r->readers; ++i, ++slot) {
        SyncReplica* rep = r.get();
        const size_t s = slot;
        if (rep->snapshots) {
          readers_.emplace_back(
              [this, rep, i, s] { SnapshotReaderLoop(rep, i, s); });
        } else {
          readers_.emplace_back(
              [this, rep, i, s] { LiveReaderLoop(rep, i, s); });
        }
      }
    }
    num_readers_ = slot;
  }

  // Blocks (bounded) until every reader finished at least `min_iters` full
  // check iterations — proof the readers truly overlap the churn.
  void WaitForReaderProgress(uint64_t min_iters) {
    for (int spin = 0; spin < 30000; ++spin) {
      bool all = true;
      for (size_t s = 0; s < num_readers_; ++s) {
        all = all &&
              reader_iters_[s].load(std::memory_order_acquire) >= min_iters;
      }
      if (all) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "readers made no progress during churn";
  }

  void StopReaders() {
    done_.store(true, std::memory_order_release);
    for (std::thread& t : readers_) t.join();
    readers_.clear();
  }

  std::vector<Oid> LiveOids() const {
    std::vector<Oid> out;
    for (const auto& [oid, set] : oracle_) out.push_back(Oid{oid});
    return out;
  }

  std::vector<std::unique_ptr<SyncReplica>> replicas_;
  std::map<uint64_t, ElementSet> oracle_;  // writer-private latest state

  std::mutex history_mu_;
  std::vector<std::map<uint64_t, ElementSet>> history_;

  std::mutex errors_mu_;
  std::vector<std::string> errors_;

  std::vector<std::thread> readers_;
  std::array<std::atomic<uint64_t>, 16> reader_iters_{};
  size_t num_readers_ = 0;
  std::atomic<bool> done_{false};
};

TEST_F(ConcurrentSnapshotFuzzTest, PinnedReadersMatchOracleAtEveryEpoch) {
  Rng rng(20260809);
  WorkloadConfig wconfig{160, kDomain, CardinalitySpec::Fixed(kDt),
                         SkewKind::kUniform, 0.99, 31};
  std::vector<ElementSet> sets = MakeDatabase(wconfig);
  size_t next_set = 0;

  StartReaders();

  // A snapshot pinned early must keep answering for ITS epoch through all
  // the churn below, including two compactions.
  std::unique_ptr<Snapshot> early;
  std::map<uint64_t, ElementSet> early_oracle;

  constexpr int kOps = 60;
  for (int op = 0; op < kOps; ++op) {
    if (op == 20 || op == 45) {
      CompactEverywhere();
    } else {
      const uint64_t pick = rng.NextBelow(100);
      if (pick < 50 || oracle_.empty()) {
        InsertEverywhere(sets[next_set++ % sets.size()]);
      } else if (pick < 75) {
        std::vector<Oid> live = LiveOids();
        DeleteEverywhere(live[rng.NextBelow(live.size())]);
      } else {
        WriteBatch batch;
        std::vector<Oid> live = LiveOids();
        for (size_t i = 0; i < live.size() && batch.deletes().size() < 4;
             i += 4) {
          batch.Delete(live[i]);
        }
        for (int j = 0; j < 3; ++j) {
          batch.Insert(sets[next_set++ % sets.size()]);
        }
        BatchEverywhere(batch);
      }
    }
    if (op == 12) {
      auto snap = replicas_[1]->index->GetSnapshot();
      ASSERT_TRUE(snap.ok());
      early = std::move(*snap);
      early_oracle = oracle_;
      ASSERT_EQ(early->epoch(), HistorySize());
    }
    if (op == 30) WaitForReaderProgress(1);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  // Readers must have run DURING the churn, not just before/after.
  WaitForReaderProgress(2);
  StopReaders();
  {
    std::lock_guard<std::mutex> lock(errors_mu_);
    for (const std::string& e : errors_) ADD_FAILURE() << e;
    ASSERT_TRUE(errors_.empty());
  }

  // The early pin still answers for its own epoch, 48 operations and two
  // compactions later.
  ASSERT_NE(early, nullptr);
  EXPECT_EQ(early->num_objects(), early_oracle.size());
  EXPECT_TRUE(early->nix_tree_for_testing()->ValidateStructure().ok());
  ElementSet early_probe = early_oracle.begin()->second;
  for (PlanMode mode :
       {PlanMode::kForceSsf, PlanMode::kForceBssf, PlanMode::kForceNix}) {
    auto result =
        early->Query(QueryKind::kSuperset,
                     ElementSet{early_probe[0], early_probe[1]}, mode);
    ASSERT_TRUE(result.ok());
    std::vector<uint64_t> got;
    for (Oid oid : result->result.oids) got.push_back(oid.value());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, OracleAnswer(early_oracle, QueryKind::kSuperset,
                                ElementSet{early_probe[0], early_probe[1]}))
        << "early pin, mode " << static_cast<int>(mode);
  }

  // Quiesced: all four replicas agree with the final oracle on results AND
  // with each other on logical page accesses — enabling snapshots changes
  // nothing the paper counts.
  ASSERT_FALSE(oracle_.empty());
  ElementSet probe = oracle_.begin()->second;
  const ElementSet superset_q{probe[0], probe[1]};
  struct Case {
    QueryKind kind;
    const ElementSet& query;
  };
  for (const Case& c : {Case{QueryKind::kSuperset, superset_q},
                        Case{QueryKind::kSubset, probe},
                        Case{QueryKind::kEquals, probe}}) {
    for (PlanMode mode :
         {PlanMode::kForceSsf, PlanMode::kForceBssf, PlanMode::kForceNix}) {
      const std::vector<uint64_t> want = OracleAnswer(oracle_, c.kind, c.query);
      uint64_t pages0 = 0;
      for (size_t i = 0; i < replicas_.size(); ++i) {
        auto result = replicas_[i]->index->Query(c.kind, c.query, mode);
        ASSERT_TRUE(result.ok()) << replicas_[i]->label;
        std::vector<uint64_t> got;
        for (Oid oid : result->result.oids) got.push_back(oid.value());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << replicas_[i]->label;
        if (i == 0) {
          pages0 = result->page_accesses;
        } else {
          EXPECT_EQ(result->page_accesses, pages0)
              << replicas_[i]->label << " kind=" << QueryKindName(c.kind);
        }
      }
    }
  }

  // And a snapshot of the final state equals the live answers.
  auto final_snap = replicas_[0]->index->GetSnapshot();
  ASSERT_TRUE(final_snap.ok());
  EXPECT_EQ((*final_snap)->epoch(), HistorySize());
  auto snap_result =
      (*final_snap)->Query(QueryKind::kSuperset, superset_q, PlanMode::kAuto);
  ASSERT_TRUE(snap_result.ok());
  std::vector<uint64_t> snap_got;
  for (Oid oid : snap_result->result.oids) snap_got.push_back(oid.value());
  std::sort(snap_got.begin(), snap_got.end());
  EXPECT_EQ(snap_got, OracleAnswer(oracle_, QueryKind::kSuperset, superset_q));
}

}  // namespace
}  // namespace sigsetdb
