// Snapshot reads (MVCC-lite): fixed-epoch read-only views over an index.
//
// The writer publishes an immutable SnapshotState with every successful
// mutation (see EpochManager); a Snapshot pins that epoch and materializes
// lightweight read-only facility views (SSF/BSSF/NIX CreateReadView,
// ObjectStore over an EpochReadView) that answer queries without ever
// taking the index's lock.  The views trust the published state — the
// writer built or validated every structure in process — so opening one
// checks O(1) bounds and reads at most the NIX root page, whatever the
// index's size; the full B-tree walk is recovery's (SetIndex/Database::Open).
// The page images the views read come from each VersionedPageFile's
// lock-free version chains, so concurrent writers never perturb a pinned
// reader's answers — queries at epoch E see exactly the database as of E,
// bit for bit.
//
// Concurrency contract: a Snapshot instance belongs to ONE reader thread
// (its views keep per-snapshot IoStats and are not internally synchronized);
// pin as many snapshots as you have readers.  A Snapshot must not outlive
// the index it came from.

#ifndef SIGSET_DB_SNAPSHOT_H_
#define SIGSET_DB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/epoch.h"
#include "db/set_index.h"
#include "nix/nested_index.h"
#include "obj/multi_object_store.h"
#include "obj/object_store.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "query/advisor.h"
#include "query/executor.h"
#include "sig/bssf.h"
#include "sig/ssf.h"
#include "storage/versioned_page_file.h"

namespace sigsetdb {

// Frozen statistics and file pointers for one indexed set attribute, as of
// the published epoch.  The VersionedPageFile pointers are owned by the
// index and stay valid (including across Compact, which retires generations
// only through the epoch reclaimer) for the index's lifetime.
struct SnapshotAttributeState {
  std::string name;  // attribute name ("" for the single-attribute SetIndex)

  bool maintain_ssf = false;
  bool maintain_bssf = false;
  bool maintain_nix = false;
  SignatureConfig sig{250, 2};
  uint32_t nix_fanout = 0;
  uint64_t capacity = 0;

  // Model inputs frozen at publish time.
  int64_t domain_estimate = 2;   // resolved V (option or sketch estimate)
  uint64_t total_elements = 0;   // Σ|set| over live objects

  // Facility counters (manifest-equivalent state).
  uint64_t num_signatures = 0;  // slots appended (incl. tombstones)
  uint64_t num_live = 0;        // slots not tombstoned

  // NIX tree shape (same fields Checkpoint persists).
  PageId nix_root = kInvalidPage;
  uint32_t nix_height = 0;
  uint64_t nix_leaves = 0;
  uint64_t nix_internal = 0;
  uint64_t nix_overflow = 0;
  // The NIX ∅ roster as of the epoch (ascending, never modified: the
  // writer installs a new vector on every roster change).
  std::shared_ptr<const std::vector<Oid>> nix_empty_oids;

  // Versioned files backing the facilities (null when not maintained).
  VersionedPageFile* ssf_sig = nullptr;
  VersionedPageFile* ssf_oid = nullptr;
  VersionedPageFile* bssf_slices = nullptr;
  VersionedPageFile* bssf_oid = nullptr;
  VersionedPageFile* nix = nullptr;
};

// The immutable state published with each epoch.  SetIndex publishes one
// attribute; Database publishes one per indexed attribute.
struct SnapshotState {
  uint64_t epoch = 0;       // the epoch this state was published as
  uint64_t generation = 0;  // compaction generation at publish time
  uint64_t num_objects = 0;
  uint16_t num_attributes = 1;  // MultiObjectStore record layout
  VersionedPageFile* objects = nullptr;
  std::vector<SnapshotAttributeState> attrs;
};

// A pinned, fixed-epoch, read-only view of a SetIndex.  Obtained from
// SetIndex::GetSnapshot() / SynchronizedSetIndex::GetSnapshot(); queries run
// without taking the index mutex.
class Snapshot {
 public:
  // Materializes views over the state carried by `pin`.  `metrics` may be
  // null; when set, snapshot queries bump `query.snapshot.*` counters (the
  // registry is thread-safe, so concurrent readers may share it).
  // `recorder` (optional, also thread-safe) additionally receives a
  // kSnapshotQuery flight event per query and arms the snapshot latency
  // histogram.
  static StatusOr<std::unique_ptr<Snapshot>> Create(
      EpochPin pin, MetricsRegistry* metrics,
      FlightRecorder* recorder = nullptr);

  uint64_t epoch() const { return pin_.epoch(); }
  uint64_t generation() const { return state_->generation; }
  uint64_t num_objects() const { return state_->num_objects; }

  // Fetches one object as of the pinned epoch (one page read).
  StatusOr<StoredObject> Get(Oid oid) const;

  // Runs a set query against the pinned epoch.  Mirrors SetIndex::Query —
  // same planner, same executor entry points, same result shape — but reads
  // only snapshot pages and charges I/O to per-snapshot counters, so
  // `page_accesses` is exact for this query alone.
  StatusOr<SetIndexResult> Query(QueryKind kind, const ElementSet& query,
                                 PlanMode mode = PlanMode::kAuto);

  // Set-containment join R ⋈⊆ S at the pinned epochs, with this snapshot as
  // R and `s_side` as S (pass `this` for a self-join).  Mirrors
  // SetIndex::ExecuteSetJoin — same strategies, same pair set — but plans
  // from the frozen model and runs serially (one snapshot, one reader
  // thread), charging I/O to the snapshots' own counters.
  StatusOr<SetIndexJoinResult> ExecuteSetJoin(Snapshot* s_side,
                                              const JoinSpec& spec = {});

  // Pages read by this snapshot so far (per-snapshot accounting; includes
  // no other reader's or the writer's I/O).
  IoStats TotalStats() const;

  // The pinned NIX tree (null without NIX), so tests can run the structural
  // walk open no longer does.  Its reads charge this snapshot's counters.
  const BTree* nix_tree_for_testing() const {
    return nix_ != nullptr ? &nix_->tree() : nullptr;
  }

 private:
  Snapshot(EpochPin pin, MetricsRegistry* metrics, FlightRecorder* recorder);

  Status Init();
  StatusOr<AccessPathChoice> Plan(QueryKind kind, int64_t dq) const;
  StatusOr<QueryResult> RunPlan(const AccessPathChoice& plan, QueryKind kind,
                                const ElementSet& query);

  EpochPin pin_;
  std::shared_ptr<const SnapshotState> state_;
  const SnapshotAttributeState* attr_ = nullptr;  // &state_->attrs[0]
  MetricsRegistry* metrics_ = nullptr;
  FlightRecorder* recorder_ = nullptr;

  // Fixed-epoch adapters over the versioned files (own IoStats each).
  std::unique_ptr<EpochReadView> objects_view_;
  std::unique_ptr<EpochReadView> ssf_sig_view_;
  std::unique_ptr<EpochReadView> ssf_oid_view_;
  std::unique_ptr<EpochReadView> bssf_slices_view_;
  std::unique_ptr<EpochReadView> bssf_oid_view_;
  std::unique_ptr<EpochReadView> nix_view_;

  // Read-only facility views over the adapters.
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<SequentialSignatureFile> ssf_;
  std::unique_ptr<BitSlicedSignatureFile> bssf_;
  std::unique_ptr<NestedIndex> nix_;
};

// A pinned, fixed-epoch, read-only view of a multi-attribute Database.
// Evaluates conjunctions of per-attribute set predicates exactly as
// Database::Query does (cheapest driver predicate, serial resolution,
// residual predicates checked on the fetched object).
class DatabaseSnapshot {
 public:
  static StatusOr<std::unique_ptr<DatabaseSnapshot>> Create(
      EpochPin pin, MetricsRegistry* metrics,
      FlightRecorder* recorder = nullptr);

  uint64_t epoch() const { return pin_.epoch(); }
  uint64_t num_objects() const { return state_->num_objects; }

  // Fetches one multi-attribute object as of the pinned epoch.
  StatusOr<MultiSetObject> Get(Oid oid) const;

  // Conjunction query at the pinned epoch; same contract as
  // Database::Query.
  StatusOr<DatabaseQueryResult> Query(
      const std::vector<SetPredicate>& predicates);

  // Set-containment join between two indexed attributes at the pinned
  // epoch; same contract as Database::ExecuteSetJoin, frozen-model planning
  // and serial execution (one snapshot, one reader thread).
  StatusOr<DatabaseJoinResult> ExecuteSetJoin(const std::string& r_attribute,
                                              const std::string& s_attribute,
                                              const JoinSpec& spec = {});

  IoStats TotalStats() const;

  // The pinned NIX tree of attribute `attr` (null without NIX); see
  // Snapshot::nix_tree_for_testing.
  const BTree* nix_tree_for_testing(size_t attr) const {
    const std::unique_ptr<NestedIndex>& nix = attrs_[attr].nix;
    return nix != nullptr ? &nix->tree() : nullptr;
  }

 private:
  // Per-attribute facility views (mirrors Database::AttributeState).
  struct AttrViews {
    std::unique_ptr<EpochReadView> ssf_sig_view;
    std::unique_ptr<EpochReadView> ssf_oid_view;
    std::unique_ptr<EpochReadView> bssf_slices_view;
    std::unique_ptr<EpochReadView> bssf_oid_view;
    std::unique_ptr<EpochReadView> nix_view;
    std::unique_ptr<SequentialSignatureFile> ssf;
    std::unique_ptr<BitSlicedSignatureFile> bssf;
    std::unique_ptr<NestedIndex> nix;
  };

  DatabaseSnapshot(EpochPin pin, MetricsRegistry* metrics,
                   FlightRecorder* recorder);

  Status Init();
  StatusOr<size_t> AttributeIndex(const std::string& name) const;
  StatusOr<AccessPathChoice> PlanPredicate(size_t attr,
                                           const SetPredicate& pred) const;
  StatusOr<std::vector<Oid>> DriverCandidates(size_t attr,
                                              const AccessPathChoice& plan,
                                              const SetPredicate& pred);

  EpochPin pin_;
  std::shared_ptr<const SnapshotState> state_;
  MetricsRegistry* metrics_ = nullptr;
  FlightRecorder* recorder_ = nullptr;

  std::unique_ptr<EpochReadView> objects_view_;
  std::unique_ptr<MultiObjectStore> store_;
  std::vector<AttrViews> attrs_;
};

}  // namespace sigsetdb

#endif  // SIGSET_DB_SNAPSHOT_H_
