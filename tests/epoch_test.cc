// Snapshot-read machinery (DESIGN.md §14): the epoch pin/publish/reclaim
// protocol, the copy-on-write page versions behind it, and the end-to-end
// SetIndex/Database snapshot views — including crash-at-every-I/O schedules
// proving a crash mid-CoW-publish leaves the pre-publish epoch intact.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/set_index.h"
#include "db/snapshot.h"
#include "db/synchronized_set_index.h"
#include "storage/storage_manager.h"
#include "storage/versioned_page_file.h"
#include "util/failpoint.h"
#include "workload/generator.h"

namespace sigsetdb {
namespace {

// ---------------------------------------------------------------------------
// EpochManager protocol
// ---------------------------------------------------------------------------

std::shared_ptr<const SnapshotState> MakeState(uint64_t epoch) {
  auto state = std::make_shared<SnapshotState>();
  state->epoch = epoch;
  return state;
}

TEST(EpochManagerTest, PublishAdvancesAndPinsTrackEpochs) {
  EpochManager epochs;
  EXPECT_EQ(epochs.published(), 0u);
  EXPECT_EQ(epochs.write_epoch(), 1u);
  EXPECT_EQ(epochs.pinned_count(), 0u);
  EXPECT_EQ(epochs.OldestPinned(), 0u);

  epochs.Publish(MakeState(1));
  EXPECT_EQ(epochs.published(), 1u);
  EXPECT_EQ(epochs.write_epoch(), 2u);

  EpochPin p1 = epochs.Pin();
  ASSERT_TRUE(p1.pinned());
  EXPECT_EQ(p1.epoch(), 1u);
  ASSERT_NE(p1.state(), nullptr);
  EXPECT_EQ(p1.state()->epoch, 1u);
  EXPECT_EQ(epochs.pinned_count(), 1u);
  EXPECT_EQ(epochs.OldestPinned(), 1u);

  epochs.Publish(MakeState(2));
  EpochPin p2 = epochs.Pin();
  EXPECT_EQ(p2.epoch(), 2u);
  // The oldest pin holds the floor.
  EXPECT_EQ(epochs.OldestPinned(), 1u);
  EXPECT_EQ(epochs.pinned_count(), 2u);

  p1.Release();
  EXPECT_FALSE(p1.pinned());
  EXPECT_EQ(epochs.OldestPinned(), 2u);
  EXPECT_EQ(epochs.pinned_count(), 1u);

  p2.Release();
  EXPECT_EQ(epochs.pinned_count(), 0u);
  // Nothing pinned: the floor is the published epoch itself.
  EXPECT_EQ(epochs.OldestPinned(), 2u);
}

TEST(EpochManagerTest, PinIsMoveOnlyAndIdempotentOnRelease) {
  EpochManager epochs;
  epochs.Publish(MakeState(1));
  EpochPin a = epochs.Pin();
  EpochPin b = std::move(a);
  EXPECT_FALSE(a.pinned());
  EXPECT_TRUE(b.pinned());
  EXPECT_EQ(epochs.pinned_count(), 1u);
  b.Release();
  b.Release();  // idempotent
  EXPECT_EQ(epochs.pinned_count(), 0u);
}

TEST(EpochManagerTest, PinEpochAlwaysMatchesPinnedState) {
  // The (epoch, state) pair returned by Pin must be consistent even while
  // publishes interleave — the manager hands both out under one mutex.
  EpochManager epochs;
  for (uint64_t e = 1; e <= 32; ++e) {
    epochs.Publish(MakeState(e));
    EpochPin pin = epochs.Pin();
    ASSERT_EQ(pin.epoch(), e);
    ASSERT_EQ(pin.state()->epoch, e);
  }
}

TEST(EpochManagerTest, ShutdownIsIdempotent) {
  EpochManager epochs;
  epochs.Publish(MakeState(1));
  epochs.Shutdown();
  epochs.Shutdown();
}

// ---------------------------------------------------------------------------
// VersionedPageFile: chains, reclaim floor, flush-through
// ---------------------------------------------------------------------------

Page FilledPage(uint8_t byte) {
  Page page;
  std::memset(page.data(), byte, kPageSize);
  return page;
}

class VersionedPageFileTest : public ::testing::Test {
 protected:
  // A private epoch cell stands in for the EpochManager so reclamation is
  // fully deterministic (no background thread).
  std::atomic<uint64_t> published_{0};
  InMemoryPageFile base_{"base"};
};

TEST_F(VersionedPageFileTest, AdoptsBasePagesAndVersionsWrites) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  auto wrapped = VersionedPageFile::Wrap(&base_, &published_);
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile& file = **wrapped;
  // Adoption: one epoch-0 node per base page, charged as a CoW copy.
  EXPECT_EQ(file.resident_versions(), 1u);
  EXPECT_EQ(base_.stats().cows(), 1u);

  // Write at write-epoch 1 (published = 0): a second version node.
  ASSERT_TRUE(file.Write(0, FilledPage('B')).ok());
  EXPECT_EQ(file.resident_versions(), 2u);
  EXPECT_EQ(base_.stats().cows(), 2u);

  Page out;
  // A reader pinned at 0 sees the adopted image; the writer sees its own.
  ASSERT_TRUE(file.ReadAtEpoch(0, 0, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'A');
  ASSERT_TRUE(file.ReadAtEpoch(0, kLatestEpoch, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'B');

  // Second write in the same (unpublished) mutation updates in place.
  ASSERT_TRUE(file.Write(0, FilledPage('C')).ok());
  EXPECT_EQ(file.resident_versions(), 2u);
  ASSERT_TRUE(file.ReadAtEpoch(0, 0, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'A');
  ASSERT_TRUE(file.ReadAtEpoch(0, 1, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'C');

  // CoW copies are bookkeeping, not logical I/O: total() excludes them, and
  // logical writes through the wrapper still count one each (1 pre-wrap
  // base write + 2 wrapper writes), keeping paper page counts unchanged.
  EXPECT_EQ(base_.stats().cows(), 2u);
  EXPECT_EQ(base_.stats().writes(), 3u);
  EXPECT_EQ(base_.stats().total(),
            base_.stats().reads() + base_.stats().writes());
}

TEST_F(VersionedPageFileTest, ReclaimKeepsTheNewestVersionAtOrBelowTheFloor) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  auto wrapped = VersionedPageFile::Wrap(&base_, &published_);
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile& file = **wrapped;

  // Build a chain with epochs {0, 1, 2, 3}.
  ASSERT_TRUE(file.Write(0, FilledPage('B')).ok());  // epoch 1
  published_.store(1);
  ASSERT_TRUE(file.Write(0, FilledPage('C')).ok());  // epoch 2
  published_.store(2);
  ASSERT_TRUE(file.Write(0, FilledPage('D')).ok());  // epoch 3
  published_.store(3);
  ASSERT_EQ(file.resident_versions(), 4u);

  // Oldest pin at 1: the epoch-1 node is K; only epoch 0 is reclaimable.
  EXPECT_EQ(file.Reclaim(1), 1u);
  EXPECT_EQ(file.resident_versions(), 3u);
  EXPECT_EQ(file.reclaimed_versions(), 1u);
  Page out;
  ASSERT_TRUE(file.ReadAtEpoch(0, 1, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'B');  // the pinned epoch's image survived
  ASSERT_TRUE(file.ReadAtEpoch(0, 2, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'C');

  // Floor raised to 3 (nothing pinned): only the head remains.
  EXPECT_EQ(file.Reclaim(3), 2u);
  EXPECT_EQ(file.resident_versions(), 1u);
  ASSERT_TRUE(file.ReadAtEpoch(0, 3, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'D');
  // Reclaim at the same floor again frees nothing (the head is never freed).
  EXPECT_EQ(file.Reclaim(3), 0u);
}

TEST_F(VersionedPageFileTest, PagesAllocatedAfterTheEpochReadAsZeroes) {
  auto wrapped = VersionedPageFile::Wrap(&base_, &published_);
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile& file = **wrapped;
  ASSERT_TRUE(file.Allocate().ok());  // at write epoch 1
  ASSERT_TRUE(file.Write(0, FilledPage('X')).ok());
  Page out;
  // Pinned at 0, the page "does not exist yet": zeroes, not 'X'.
  ASSERT_TRUE(file.ReadAtEpoch(0, 0, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 0);
  ASSERT_TRUE(file.ReadAtEpoch(0, 1, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'X');
}

TEST_F(VersionedPageFileTest, FlushToBaseWritesNewestVersionsThrough) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  auto wrapped = VersionedPageFile::Wrap(&base_, &published_);
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile& file = **wrapped;
  ASSERT_TRUE(file.Write(0, FilledPage('B')).ok());
  // Base still holds the old image until the flush.
  Page out;
  IoStats scratch;
  ASSERT_TRUE(base_.Read(0, &out, &scratch).ok());
  EXPECT_EQ(out.data()[0], 'A');
  ASSERT_TRUE(file.FlushToBase().ok());
  ASSERT_TRUE(base_.Read(0, &out, &scratch).ok());
  EXPECT_EQ(out.data()[0], 'B');
}

TEST_F(VersionedPageFileTest, ManagerDrivenReclaimRespectsPins) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  EpochManager epochs;
  auto wrapped = VersionedPageFile::Wrap(&base_, epochs.published_cell());
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile* file = wrapped->get();
  epochs.RegisterReclaimer(
      [file](uint64_t oldest) { return file->Reclaim(oldest); });

  ASSERT_TRUE(file->Write(0, FilledPage('B')).ok());
  epochs.Publish(MakeState(1));
  EpochPin pin = epochs.Pin();  // holds epoch 1

  ASSERT_TRUE(file->Write(0, FilledPage('C')).ok());
  epochs.Publish(MakeState(2));
  ASSERT_TRUE(file->Write(0, FilledPage('D')).ok());
  epochs.Publish(MakeState(3));

  // The pin at 1 keeps the 'B' node alive through any number of passes.
  epochs.ReclaimNow();
  Page out;
  ASSERT_TRUE(file->ReadAtEpoch(0, pin.epoch(), &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'B');

  // Releasing the pin raises the floor to published (3): everything below
  // the head goes.
  pin.Release();
  epochs.ReclaimNow();
  EXPECT_EQ(file->resident_versions(), 1u);
  EXPECT_GE(epochs.total_reclaimed(), 3u);
  ASSERT_TRUE(file->ReadAtEpoch(0, 3, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'D');
  epochs.Shutdown();
}

// ---------------------------------------------------------------------------
// SetIndex snapshots end to end
// ---------------------------------------------------------------------------

SetIndex::Options SnapshotOptions(bool wal = false) {
  SetIndex::Options options;
  options.maintain_ssf = true;
  options.maintain_bssf = true;
  options.maintain_nix = true;
  options.sig = {120, 3};
  options.capacity = 4096;
  options.enable_snapshots = true;
  options.enable_wal = wal;
  return options;
}

std::vector<uint64_t> SortedValues(const std::vector<Oid>& oids) {
  std::vector<uint64_t> out;
  for (Oid oid : oids) out.push_back(oid.value());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SetIndexSnapshotTest, DisabledByDefault) {
  StorageManager storage;
  SetIndex::Options options;
  options.maintain_ssf = true;
  auto index = SetIndex::Create(&storage, "t", options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->current_epoch(), 0u);
  auto snap = (*index)->GetSnapshot();
  EXPECT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SetIndexSnapshotTest, ReaderPinnedAcrossChurnSeesTheOldEpoch) {
  StorageManager storage;
  auto created = SetIndex::Create(&storage, "t", SnapshotOptions());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SetIndex> index = std::move(*created);
  EXPECT_EQ(index->current_epoch(), 1u);  // Create publishes the empty index

  std::vector<Oid> oids;
  std::map<uint64_t, ElementSet> oracle;
  for (uint64_t i = 0; i < 10; ++i) {
    ElementSet set{i, i + 1, i + 2, 100 + i};
    auto oid = index->Insert(set);
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
    oracle[oid->value()] = set;
  }

  auto pinned = index->GetSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  std::unique_ptr<Snapshot> snap = std::move(*pinned);
  EXPECT_EQ(snap->epoch(), index->current_epoch());
  EXPECT_EQ(snap->num_objects(), 10u);

  // Churn the live index hard: deletes, inserts, a compaction.
  for (size_t i = 0; i < oids.size(); i += 2) {
    ASSERT_TRUE(index->Delete(oids[i]).ok());
  }
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(index->Insert({i * 3, i * 3 + 1, 200 + i}).ok());
  }
  // The pinned tree stays structurally sound through every step of it (the
  // walk snapshot open no longer does).
  ASSERT_NE(snap->nix_tree_for_testing(), nullptr);
  EXPECT_TRUE(snap->nix_tree_for_testing()->ValidateStructure().ok());
  ASSERT_TRUE(index->Compact().ok());
  EXPECT_TRUE(snap->nix_tree_for_testing()->ValidateStructure().ok());

  // The pinned reader still sees all ten original objects, bit for bit.
  for (const auto& [value, set] : oracle) {
    auto got = snap->Get(Oid{value});
    ASSERT_TRUE(got.ok()) << "oid " << value;
    EXPECT_EQ(got->set_value, set);
  }
  const ElementSet probe{3, 4};
  for (PlanMode mode :
       {PlanMode::kForceSsf, PlanMode::kForceBssf, PlanMode::kForceNix}) {
    auto result = snap->Query(QueryKind::kSuperset, probe, mode);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<uint64_t> expected;
    for (const auto& [value, set] : oracle) {
      if (std::includes(set.begin(), set.end(), probe.begin(), probe.end())) {
        expected.push_back(value);
      }
    }
    EXPECT_EQ(SortedValues(result->result.oids), expected)
        << "plan=" << result->plan;
  }
  // Equals pins the exact old image (the live index deleted this object).
  auto equals = snap->Query(QueryKind::kEquals, oracle.begin()->second);
  ASSERT_TRUE(equals.ok());
  EXPECT_EQ(SortedValues(equals->result.oids),
            std::vector<uint64_t>{oracle.begin()->first});

  // A NEW snapshot sees the post-churn, post-compaction state.
  auto fresh = index->GetSnapshot();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT((*fresh)->epoch(), snap->epoch());
  EXPECT_TRUE((*fresh)->nix_tree_for_testing()->ValidateStructure().ok());
  EXPECT_EQ((*fresh)->num_objects(), index->num_objects());
  auto live = index->Query(QueryKind::kSuperset, {3, 4});
  auto snap_now = (*fresh)->Query(QueryKind::kSuperset, {3, 4});
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(snap_now.ok());
  EXPECT_EQ(SortedValues(snap_now->result.oids),
            SortedValues(live->result.oids));

  // Writer outlives reader: release the old pin, reclaim, and the fresh
  // snapshot (and the live index) keep answering.
  snap.reset();
  ASSERT_NE(index->epochs(), nullptr);
  index->epochs()->ReclaimNow();
  snap_now = (*fresh)->Query(QueryKind::kSuperset, {3, 4});
  ASSERT_TRUE(snap_now.ok());
  EXPECT_EQ(SortedValues(snap_now->result.oids),
            SortedValues(live->result.oids));
}

TEST(SetIndexSnapshotTest, SnapshotChargesItsOwnPageAccesses) {
  StorageManager storage;
  auto created = SetIndex::Create(&storage, "t", SnapshotOptions());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SetIndex> index = std::move(*created);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index->Insert({i, i + 1, i + 2}).ok());
  }
  auto snap = index->GetSnapshot();
  ASSERT_TRUE(snap.ok());
  const IoStats before_live = storage.TotalStats();
  auto result = (*snap)->Query(QueryKind::kSuperset, {2, 3});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->page_accesses, 0u);
  // Snapshot reads never touch the live files' counters.
  const IoStats after_live = storage.TotalStats();
  EXPECT_EQ(after_live.reads(), before_live.reads());
  EXPECT_EQ((*snap)->TotalStats().reads(), result->page_accesses);
}

// ---------------------------------------------------------------------------
// Crash mid-CoW-publish: every versioned write of one mutation fails in
// turn; the published epoch must never move, a pre-crash pin must keep
// answering, and recovery must roll the unacknowledged mutation back.
// ---------------------------------------------------------------------------

TEST(SetIndexSnapshotCrashTest, CrashAtEveryCowWriteRecoversToPrePublishEpoch) {
  for (uint64_t countdown = 1;; ++countdown) {
    StorageManager storage;
    auto created = SetIndex::Create(&storage, "t", SnapshotOptions(true));
    ASSERT_TRUE(created.ok());
    std::unique_ptr<SetIndex> index = std::move(*created);

    std::map<uint64_t, ElementSet> oracle;
    for (uint64_t i = 0; i < 6; ++i) {
      ElementSet set{i, i + 7, i + 20};
      auto oid = index->Insert(set);
      ASSERT_TRUE(oid.ok());
      oracle[oid->value()] = set;
    }
    auto pinned = index->GetSnapshot();
    ASSERT_TRUE(pinned.ok());
    std::unique_ptr<Snapshot> snap = std::move(*pinned);
    const uint64_t pre_crash_epoch = index->current_epoch();

    FailpointRegistry::Instance().ArmCountdown("versioned.write", countdown);
    auto status = index->Insert({1, 2, 3}).status();
    FailpointRegistry::Instance().DisarmAll();

    if (status.ok()) {
      // The mutation touches fewer than `countdown` versioned writes: the
      // failpoint never fired and the schedule space is exhausted.
      ASSERT_GT(countdown, 1u);
      break;
    }

    // The failed mutation never published: pre-crash epoch intact.
    EXPECT_EQ(index->current_epoch(), pre_crash_epoch)
        << "countdown=" << countdown;

    // The pinned reader is unperturbed by the torn mutation.
    for (const auto& [value, set] : oracle) {
      auto got = snap->Get(Oid{value});
      ASSERT_TRUE(got.ok()) << "countdown=" << countdown;
      EXPECT_EQ(got->set_value, set);
    }
    auto q = snap->Query(QueryKind::kSuperset, {7});
    ASSERT_TRUE(q.ok()) << "countdown=" << countdown;
    std::vector<uint64_t> expected;
    for (const auto& [value, set] : oracle) {
      if (std::binary_search(set.begin(), set.end(), 7u)) {
        expected.push_back(value);
      }
    }
    EXPECT_EQ(SortedValues(q->result.oids), expected)
        << "countdown=" << countdown;

    // Recovery: the unacknowledged insert is rolled back; the acked six
    // survive.  (The pin must be released before the index dies.)
    snap.reset();
    index.reset();
    auto reopened = SetIndex::Open(&storage, "t", SnapshotOptions(true));
    ASSERT_TRUE(reopened.ok())
        << "countdown=" << countdown << ": " << reopened.status().ToString();
    index = std::move(*reopened);
    EXPECT_EQ(index->num_objects(), oracle.size()) << "countdown=" << countdown;
    auto recovered = index->GetSnapshot();
    ASSERT_TRUE(recovered.ok());
    auto rq = (*recovered)->Query(QueryKind::kSuperset, {7});
    ASSERT_TRUE(rq.ok());
    EXPECT_EQ(SortedValues(rq->result.oids), expected)
        << "countdown=" << countdown;
  }
}

// ---------------------------------------------------------------------------
// DatabaseSnapshot: pinned conjunction evaluation
// ---------------------------------------------------------------------------

TEST(DatabaseSnapshotTest, PinnedConjunctionSeesTheOldEpoch) {
  StorageManager storage;
  Database::Options options;
  Database::AttributeOptions courses;
  courses.name = "courses";
  courses.maintain_ssf = true;
  courses.maintain_bssf = true;
  courses.maintain_nix = true;
  courses.sig = {120, 3};
  Database::AttributeOptions hobbies = courses;
  hobbies.name = "hobbies";
  options.attributes = {courses, hobbies};
  options.capacity = 4096;
  options.enable_snapshots = true;
  auto created = Database::Create(&storage, "db", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(*created);

  std::vector<Oid> oids;
  for (uint64_t i = 0; i < 8; ++i) {
    auto oid = db->Insert({{i, i + 1, 50}, {i + 10, 90}});
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  auto pinned = db->GetSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  std::unique_ptr<DatabaseSnapshot> snap = std::move(*pinned);
  EXPECT_EQ(snap->num_objects(), 8u);

  // Churn: delete every object the pinned conjunction will match.
  std::vector<SetPredicate> conj{{"courses", QueryKind::kSuperset, {3, 50}},
                                 {"hobbies", QueryKind::kSuperset, {90}}};
  auto live_before = db->Query(conj);
  ASSERT_TRUE(live_before.ok());
  ASSERT_FALSE(live_before->oids.empty());
  for (Oid oid : live_before->oids) ASSERT_TRUE(db->Delete(oid).ok());
  for (size_t attr = 0; attr < 2; ++attr) {
    ASSERT_NE(snap->nix_tree_for_testing(attr), nullptr);
    EXPECT_TRUE(snap->nix_tree_for_testing(attr)->ValidateStructure().ok())
        << "attr " << attr;
  }
  auto live_after = db->Query(conj);
  ASSERT_TRUE(live_after.ok());
  EXPECT_TRUE(live_after->oids.empty());

  // The snapshot still returns the pre-delete answer.
  auto snap_result = snap->Query(conj);
  ASSERT_TRUE(snap_result.ok()) << snap_result.status().ToString();
  EXPECT_EQ(SortedValues(snap_result->oids),
            SortedValues(live_before->oids));
  // And per-object fetches serve the deleted objects' old values.
  for (Oid oid : live_before->oids) {
    auto got = snap->Get(oid);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->attrs.size(), 2u);
    EXPECT_TRUE(std::binary_search(got->attrs[0].begin(),
                                   got->attrs[0].end(), 50u));
  }
  // Unknown attributes still fail cleanly at the snapshot layer.
  auto bad = snap->Query({{"nope", QueryKind::kSuperset, {1}}});
  EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------------------------------
// Snapshot open cost: O(1) in the size of the index.  The views trust the
// published state, so GetSnapshot() reads the NIX root page and nothing
// else; the structural walk belongs to recovery and to the tests below.
// ---------------------------------------------------------------------------

// Page reads every versioned file serves while `open` runs.  Open-time
// reads are charged to no IoStats (a snapshot's counters start at zero), so
// they are counted where no reset can hide them: the failpoint registry's
// evaluation count of the version-chain read site, armed never to fire.
// The NIX root is the only page an open reads, so this bounds the NIX
// file's count.
template <typename Fn>
uint64_t VersionedReadsDuring(Fn open) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.ArmCountdown("versioned.read",
                        std::numeric_limits<uint64_t>::max());
  const uint64_t before = registry.HitCount("versioned.read");
  open();
  const uint64_t reads = registry.HitCount("versioned.read") - before;
  registry.DisarmAll();
  return reads;
}

std::vector<ElementSet> OpenCostSets(uint64_t n) {
  return MakeDatabase(WorkloadConfig{static_cast<int64_t>(n), 13000,
                                     CardinalitySpec::Fixed(10),
                                     SkewKind::kUniform, 0.99, n});
}

constexpr uint64_t kOpenCostSizes[] = {1000, 20000};

TEST(SetIndexSnapshotTest, OpenCostIsIndependentOfIndexSize) {
  std::vector<uint64_t> reads;
  for (uint64_t n : kOpenCostSizes) {
    StorageManager storage;
    SetIndex::Options options;
    options.maintain_bssf = true;
    options.maintain_nix = true;
    options.capacity = 32768;
    options.enable_snapshots = true;
    auto created = SetIndex::Create(&storage, "t", options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<SetIndex> index = std::move(*created);
    const std::vector<ElementSet> sets = OpenCostSets(n);
    for (size_t i = 0; i < sets.size(); i += 64) {
      WriteBatch batch;
      for (size_t j = i; j < std::min(sets.size(), i + 64); ++j) {
        batch.Insert(sets[j]);
      }
      ASSERT_TRUE(index->ApplyBatch(batch).ok());
    }

    std::unique_ptr<Snapshot> snap;
    reads.push_back(VersionedReadsDuring([&] {
      auto pinned = index->GetSnapshot();
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      snap = std::move(*pinned);
    }));
    ASSERT_NE(snap, nullptr);
    const BTree* tree = snap->nix_tree_for_testing();
    ASSERT_NE(tree, nullptr);
    // A walk-at-open would have read every one of these pages.
    EXPECT_GT(tree->total_pages(), n / 100) << "n=" << n;
    EXPECT_EQ(snap->TotalStats().reads(), 0u) << "open charges no query";
    EXPECT_TRUE(tree->ValidateStructure().ok()) << "n=" << n;
  }
  EXPECT_EQ(reads[0], reads[1]);
  EXPECT_LE(reads[1], 1u);
}

TEST(DatabaseSnapshotTest, OpenCostIsIndependentOfDatabaseSize) {
  std::vector<uint64_t> reads;
  for (uint64_t n : kOpenCostSizes) {
    StorageManager storage;
    Database::Options options;
    Database::AttributeOptions courses;
    courses.name = "courses";
    courses.maintain_bssf = true;
    courses.maintain_nix = true;
    Database::AttributeOptions hobbies = courses;
    hobbies.name = "hobbies";
    options.attributes = {courses, hobbies};
    options.capacity = 32768;
    options.enable_snapshots = true;
    auto created = Database::Create(&storage, "db", options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<Database> db = std::move(*created);
    const std::vector<ElementSet> sets = OpenCostSets(n);
    for (size_t i = 0; i < sets.size(); i += 64) {
      MultiWriteBatch batch;
      for (size_t j = i; j < std::min(sets.size(), i + 64); ++j) {
        batch.Insert({sets[j], sets[sets.size() - 1 - j]});
      }
      ASSERT_TRUE(db->ApplyBatch(batch).ok());
    }

    std::unique_ptr<DatabaseSnapshot> snap;
    const uint64_t open_reads = VersionedReadsDuring([&] {
      auto pinned = db->GetSnapshot();
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      snap = std::move(*pinned);
    });
    ASSERT_NE(snap, nullptr);
    // One root read per attribute's NIX: report it per tree.
    reads.push_back(open_reads / 2);
    EXPECT_EQ(open_reads % 2, 0u);
    EXPECT_EQ(snap->TotalStats().reads(), 0u) << "open charges no query";
    for (size_t attr = 0; attr < 2; ++attr) {
      const BTree* tree = snap->nix_tree_for_testing(attr);
      ASSERT_NE(tree, nullptr);
      EXPECT_GT(tree->total_pages(), n / 100) << "n=" << n;
      EXPECT_TRUE(tree->ValidateStructure().ok()) << "n=" << n;
    }
  }
  EXPECT_EQ(reads[0], reads[1]);
  EXPECT_LE(reads[1], 1u);
}

// ---------------------------------------------------------------------------
// The ∅ roster is published with the epoch: a pinned snapshot's subset
// answers keep exactly the empty-set objects of its epoch, whatever the
// writer inserts, deletes or batches afterwards.
// ---------------------------------------------------------------------------

using Oracle = std::map<uint64_t, ElementSet>;

std::vector<uint64_t> SubsetAnswer(const Oracle& oracle, QueryKind kind,
                                   const ElementSet& query) {
  std::vector<uint64_t> out;
  for (const auto& [value, set] : oracle) {
    const bool subset =
        std::includes(query.begin(), query.end(), set.begin(), set.end());
    if (subset && (kind == QueryKind::kSubset || set.size() < query.size())) {
      out.push_back(value);
    }
  }
  return out;
}

const ElementSet kRosterQueries[] = {{1, 2, 3, 4}, {2, 9}, {50}};

// Checks every subset-side answer of `snap` against `oracle`, through each
// facility, and the pinned tree's structure.
void ExpectSnapshotMatches(Snapshot* snap, const Oracle& oracle,
                           const std::string& label) {
  for (const ElementSet& q : kRosterQueries) {
    for (QueryKind kind : {QueryKind::kSubset, QueryKind::kProperSubset}) {
      for (PlanMode mode : {PlanMode::kAuto, PlanMode::kForceSsf,
                            PlanMode::kForceBssf, PlanMode::kForceNix}) {
        auto result = snap->Query(kind, q, mode);
        ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
        EXPECT_EQ(SortedValues(result->result.oids),
                  SubsetAnswer(oracle, kind, q))
            << label << " kind=" << QueryKindName(kind)
            << " plan=" << result->plan;
      }
    }
  }
  EXPECT_TRUE(snap->nix_tree_for_testing()->ValidateStructure().ok())
      << label;
}

TEST(SetIndexSnapshotTest, EmptySetRosterIsIsolatedAcrossEpochs) {
  StorageManager storage;
  auto created = SetIndex::Create(&storage, "t", SnapshotOptions());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SetIndex> index = std::move(*created);

  Oracle oracle;
  auto insert = [&](const ElementSet& set) {
    auto oid = index->Insert(set);
    EXPECT_TRUE(oid.ok());
    oracle[oid->value()] = set;
    return *oid;
  };
  for (uint64_t i = 0; i < 6; ++i) insert({i + 1, i + 2});
  const Oid empty_a = insert({});
  const Oid empty_b = insert({});

  struct Pinned {
    std::string label;
    std::unique_ptr<Snapshot> snap;
    Oracle oracle;
  };
  std::vector<Pinned> pinned;
  auto pin = [&](const std::string& label) {
    auto snap = index->GetSnapshot();
    ASSERT_TRUE(snap.ok());
    pinned.push_back({label, std::move(*snap), oracle});
  };

  pin("two empties");
  insert({});  // a third ∅ object
  pin("after empty insert");
  ASSERT_TRUE(index->Delete(empty_a).ok());
  oracle.erase(empty_a.value());
  pin("after empty delete");
  WriteBatch batch;
  batch.Insert({});
  batch.Insert({2, 3});
  batch.Delete(empty_b);
  auto batch_oids = index->ApplyBatch(batch);
  ASSERT_TRUE(batch_oids.ok());
  oracle.erase(empty_b.value());
  oracle[(*batch_oids)[0].value()] = {};
  oracle[(*batch_oids)[1].value()] = {2, 3};
  pin("after batch");

  for (Pinned& p : pinned) {
    ExpectSnapshotMatches(p.snap.get(), p.oracle, p.label);
  }
  // Compaction rebuilds the roster from the store; earlier pins keep theirs.
  ASSERT_TRUE(index->Compact().ok());
  pin("after compact");
  for (Pinned& p : pinned) {
    ExpectSnapshotMatches(p.snap.get(), p.oracle, p.label);
  }
}

TEST(DatabaseSnapshotTest, EmptySetRosterIsIsolatedAcrossEpochs) {
  StorageManager storage;
  Database::Options options;
  Database::AttributeOptions courses;
  courses.name = "courses";
  courses.maintain_bssf = false;  // NIX only: every courses plan runs on it
  Database::AttributeOptions hobbies;
  hobbies.name = "hobbies";
  hobbies.maintain_bssf = true;
  hobbies.maintain_nix = false;
  hobbies.sig = {120, 3};
  options.attributes = {courses, hobbies};
  options.capacity = 4096;
  options.enable_snapshots = true;
  auto created = Database::Create(&storage, "db", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(*created);

  Oracle oracle;  // the courses attribute
  auto insert = [&](const ElementSet& set) {
    auto oid = db->Insert({set, {7}});
    EXPECT_TRUE(oid.ok());
    oracle[oid->value()] = set;
    return *oid;
  };
  for (uint64_t i = 0; i < 6; ++i) insert({i + 1, i + 2});
  const Oid empty_a = insert({});
  const Oid empty_b = insert({});

  struct Pinned {
    std::string label;
    std::unique_ptr<DatabaseSnapshot> snap;
    Oracle oracle;
  };
  std::vector<Pinned> pinned;
  auto pin = [&](const std::string& label) {
    auto snap = db->GetSnapshot();
    ASSERT_TRUE(snap.ok());
    pinned.push_back({label, std::move(*snap), oracle});
  };
  auto check_all = [&] {
    for (Pinned& p : pinned) {
      for (const ElementSet& q : kRosterQueries) {
        for (QueryKind kind :
             {QueryKind::kSubset, QueryKind::kProperSubset}) {
          auto result = p.snap->Query({{"courses", kind, q}});
          ASSERT_TRUE(result.ok()) << p.label;
          EXPECT_EQ(SortedValues(result->oids), SubsetAnswer(p.oracle, kind, q))
              << p.label << " kind=" << QueryKindName(kind)
              << " driver=" << result->driver;
        }
      }
      EXPECT_TRUE(p.snap->nix_tree_for_testing(0)->ValidateStructure().ok())
          << p.label;
    }
  };

  pin("two empties");
  insert({});
  pin("after empty insert");
  ASSERT_TRUE(db->Delete(empty_a).ok());
  oracle.erase(empty_a.value());
  pin("after empty delete");
  MultiWriteBatch batch;
  batch.Insert({{}, {7}});
  batch.Insert({{2, 3}, {7}});
  batch.Delete(empty_b);
  auto batch_oids = db->ApplyBatch(batch);
  ASSERT_TRUE(batch_oids.ok());
  oracle.erase(empty_b.value());
  oracle[(*batch_oids)[0].value()] = {};
  oracle[(*batch_oids)[1].value()] = {2, 3};
  pin("after batch");
  check_all();
  ASSERT_TRUE(db->Compact().ok());
  pin("after compact");
  check_all();
}

// The roster pointer crosses from the writer to lock-free readers: readers
// pin epochs while the writer toggles ∅ objects singly and in batches, and
// every pinned subset answer must equal the oracle at its epoch.  Run under
// TSan by tools/run_sanitizers.sh snapshots and the CI snapshot step.
TEST(SetIndexSnapshotTest, EmptySetRosterIsolatedUnderConcurrentReaders) {
  StorageManager storage;
  auto created = SynchronizedSetIndex::Create(&storage, "t", SnapshotOptions());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SynchronizedSetIndex> index = std::move(*created);

  std::mutex history_mu;
  std::vector<Oracle> history{Oracle{}};  // history[e - 1] = epoch e
  std::atomic<bool> done{false};
  std::atomic<uint64_t> checks{0};
  std::mutex errors_mu;
  std::vector<std::string> errors;

  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      auto snap = index->GetSnapshot();
      if (!snap.ok()) {
        std::lock_guard<std::mutex> lock(errors_mu);
        errors.push_back("GetSnapshot: " + snap.status().ToString());
        return;
      }
      const uint64_t epoch = (*snap)->epoch();
      Oracle oracle;
      while (true) {
        {
          std::lock_guard<std::mutex> lock(history_mu);
          if (history.size() >= epoch) {
            oracle = history[epoch - 1];
            break;
          }
        }
        if (done.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      for (const ElementSet& q : kRosterQueries) {
        for (PlanMode mode : {PlanMode::kForceNix, PlanMode::kForceBssf}) {
          auto result = (*snap)->Query(QueryKind::kSubset, q, mode);
          if (!result.ok() ||
              SortedValues(result->result.oids) !=
                  SubsetAnswer(oracle, QueryKind::kSubset, q)) {
            std::lock_guard<std::mutex> lock(errors_mu);
            errors.push_back("epoch " + std::to_string(epoch) + " plan " +
                             (result.ok() ? result->plan : "failed"));
            return;
          }
        }
      }
      checks.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  Oracle oracle;
  std::vector<Oid> empties;
  auto publish = [&] {
    std::lock_guard<std::mutex> lock(history_mu);
    history.push_back(oracle);
  };
  // The writer runs in a lambda so a failed ASSERT still joins the readers.
  auto write = [&] {
    for (int round = 0; round < 40; ++round) {
      auto oid = index->Insert({});
      ASSERT_TRUE(oid.ok());
      oracle[oid->value()] = {};
      empties.push_back(*oid);
      publish();
      auto filler = index->Insert({static_cast<uint64_t>(round % 9) + 1, 50});
      ASSERT_TRUE(filler.ok());
      oracle[filler->value()] = {static_cast<uint64_t>(round % 9) + 1, 50};
      publish();
      if (round % 3 == 1) {
        ASSERT_TRUE(index->Delete(empties.front()).ok());
        oracle.erase(empties.front().value());
        empties.erase(empties.begin());
        publish();
      }
      if (round % 5 == 4) {
        WriteBatch batch;
        batch.Insert({});
        batch.Delete(empties.back());
        auto oids = index->ApplyBatch(batch);
        ASSERT_TRUE(oids.ok());
        oracle.erase(empties.back().value());
        empties.pop_back();
        oracle[(*oids)[0].value()] = {};
        empties.push_back((*oids)[0]);
        publish();
      }
    }
  };
  write();
  // Let the readers see the final epochs too before stopping them.
  for (int spin = 0; spin < 2000 && checks.load() < 20; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const std::string& e : errors) ADD_FAILURE() << e;
  EXPECT_GT(checks.load(), 0u);
}

}  // namespace
}  // namespace sigsetdb
