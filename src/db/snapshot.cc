#include "db/snapshot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obj/object.h"
#include "sig/facility.h"
#include "sig/signature.h"

namespace sigsetdb {

namespace {

// Predicate check on an in-memory set value (same helper Database keeps
// file-locally; snapshots resolve candidates the same way).
bool SatisfiesValue(const ElementSet& value, QueryKind kind,
                    const ElementSet& query) {
  StoredObject probe;
  probe.set_value = value;
  switch (kind) {
    case QueryKind::kSuperset:
      return SatisfiesSuperset(probe, query);
    case QueryKind::kSubset:
      return SatisfiesSubset(probe, query);
    case QueryKind::kProperSuperset:
      return SatisfiesProperSuperset(probe, query);
    case QueryKind::kProperSubset:
      return SatisfiesProperSubset(probe, query);
    case QueryKind::kEquals:
      return SatisfiesEquals(probe, query);
    case QueryKind::kOverlaps:
      return SatisfiesOverlap(probe, query);
  }
  return false;
}

// Frozen model inputs for one attribute (mirrors SetIndex::LiveDbParams /
// Database::ModelFor, computed from the published scalars instead of live
// member state).
struct FrozenModel {
  DatabaseParams db;
  SignatureParams sig;
  NixParams nix;
  int64_t dt;
};

FrozenModel ModelFromState(const SnapshotState& state,
                           const SnapshotAttributeState& attr) {
  FrozenModel mv{DatabaseParams{}, SignatureParams{attr.sig.f, attr.sig.m},
                 NixParams{}, 1};
  mv.db.n = std::max<int64_t>(1, static_cast<int64_t>(state.num_objects));
  mv.db.v = attr.domain_estimate;
  mv.nix.fanout = attr.nix_fanout;
  mv.dt = state.num_objects == 0
              ? 1
              : std::max<int64_t>(
                    1, static_cast<int64_t>(std::llround(
                           static_cast<double>(attr.total_elements) /
                           static_cast<double>(state.num_objects))));
  if (mv.db.v < mv.dt + 1) mv.db.v = mv.dt + 1;  // combinatorics need V >= Dt
  return mv;
}

// Builds the read-only facility views for one attribute over fixed-epoch
// adapters.  Each out-param is filled only when the facility is maintained.
Status BuildAttrViews(const SnapshotAttributeState& attr, uint64_t epoch,
                      std::unique_ptr<EpochReadView>* ssf_sig_view,
                      std::unique_ptr<EpochReadView>* ssf_oid_view,
                      std::unique_ptr<EpochReadView>* bssf_slices_view,
                      std::unique_ptr<EpochReadView>* bssf_oid_view,
                      std::unique_ptr<EpochReadView>* nix_view,
                      std::unique_ptr<SequentialSignatureFile>* ssf,
                      std::unique_ptr<BitSlicedSignatureFile>* bssf,
                      std::unique_ptr<NestedIndex>* nix) {
  if (attr.maintain_ssf) {
    if (attr.ssf_sig == nullptr || attr.ssf_oid == nullptr) {
      return Status::Internal("snapshot state missing ssf files");
    }
    *ssf_sig_view = std::make_unique<EpochReadView>(attr.ssf_sig, epoch);
    *ssf_oid_view = std::make_unique<EpochReadView>(attr.ssf_oid, epoch);
    SIGSET_ASSIGN_OR_RETURN(
        *ssf, SequentialSignatureFile::CreateReadView(
                  attr.sig, ssf_sig_view->get(), ssf_oid_view->get(),
                  attr.num_signatures, attr.num_live));
  }
  if (attr.maintain_bssf) {
    if (attr.bssf_slices == nullptr || attr.bssf_oid == nullptr) {
      return Status::Internal("snapshot state missing bssf files");
    }
    *bssf_slices_view =
        std::make_unique<EpochReadView>(attr.bssf_slices, epoch);
    *bssf_oid_view = std::make_unique<EpochReadView>(attr.bssf_oid, epoch);
    SIGSET_ASSIGN_OR_RETURN(
        *bssf, BitSlicedSignatureFile::CreateReadView(
                   attr.sig, attr.capacity, bssf_slices_view->get(),
                   bssf_oid_view->get(), attr.num_signatures, attr.num_live));
  }
  if (attr.maintain_nix) {
    if (attr.nix == nullptr) {
      return Status::Internal("snapshot state missing nix file");
    }
    *nix_view = std::make_unique<EpochReadView>(attr.nix, epoch);
    SIGSET_ASSIGN_OR_RETURN(
        *nix, NestedIndex::CreateReadView(
                  nix_view->get(), attr.nix_fanout, attr.nix_root,
                  attr.nix_height, attr.nix_leaves, attr.nix_internal,
                  attr.nix_overflow, attr.nix_empty_oids));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot (single-attribute SetIndex view)
// ---------------------------------------------------------------------------

Snapshot::Snapshot(EpochPin pin, MetricsRegistry* metrics,
                   FlightRecorder* recorder)
    : pin_(std::move(pin)),
      state_(pin_.state()),
      metrics_(metrics),
      recorder_(recorder) {}

StatusOr<std::unique_ptr<Snapshot>> Snapshot::Create(
    EpochPin pin, MetricsRegistry* metrics, FlightRecorder* recorder) {
  if (!pin.pinned() || pin.state() == nullptr) {
    return Status::FailedPrecondition("no published snapshot state to pin");
  }
  std::unique_ptr<Snapshot> snap(
      new Snapshot(std::move(pin), metrics, recorder));
  SIGSET_RETURN_IF_ERROR(snap->Init());
  return snap;
}

Status Snapshot::Init() {
  if (state_->attrs.size() != 1 || state_->objects == nullptr) {
    return Status::Internal("snapshot state is not a SetIndex state");
  }
  attr_ = &state_->attrs[0];
  const uint64_t at = pin_.epoch();
  objects_view_ = std::make_unique<EpochReadView>(state_->objects, at);
  store_ = std::make_unique<ObjectStore>(objects_view_.get());
  store_->RecoverCount(state_->num_objects);
  return BuildAttrViews(*attr_, at, &ssf_sig_view_, &ssf_oid_view_,
                        &bssf_slices_view_, &bssf_oid_view_, &nix_view_,
                        &ssf_, &bssf_, &nix_);
}

StatusOr<StoredObject> Snapshot::Get(Oid oid) const {
  return store_->Get(oid);
}

IoStats Snapshot::TotalStats() const {
  IoStats total = objects_view_->stats();
  for (const EpochReadView* v :
       {ssf_sig_view_.get(), ssf_oid_view_.get(), bssf_slices_view_.get(),
        bssf_oid_view_.get(), nix_view_.get()}) {
    if (v != nullptr) total += v->stats();
  }
  return total;
}

StatusOr<AccessPathChoice> Snapshot::Plan(QueryKind kind, int64_t dq) const {
  // Snapshot planning uses the pure model (no live advisor feedback): the
  // plan must depend only on published state so identical epochs plan
  // identically regardless of what other readers have observed since.
  const FrozenModel mv = ModelFromState(*state_, *attr_);
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<AccessPathChoice> choices,
      AdviseAccessPaths(mv.db, mv.sig, mv.nix, mv.dt, dq, kind,
                        /*allow_smart=*/true));
  for (const AccessPathChoice& choice : choices) {
    if (choice.facility == "ssf" && ssf_ == nullptr) continue;
    if (choice.facility == "bssf" && bssf_ == nullptr) continue;
    if (choice.facility == "nix" && nix_ == nullptr) continue;
    return choice;
  }
  return Status::Internal("no maintained facility matched the plan");
}

StatusOr<QueryResult> Snapshot::RunPlan(const AccessPathChoice& plan,
                                        QueryKind kind,
                                        const ElementSet& query) {
  // Serial execution (ctx = nullptr): one snapshot, one reader thread.
  if (plan.facility == "ssf") {
    return ExecuteSetQuery(ssf_.get(), *store_, kind, query);
  }
  QueryKind ck = CandidateKind(kind);
  if (plan.facility == "nix") {
    if (plan.param > 0 && ck == QueryKind::kSuperset) {
      return ExecuteSmartSupersetNix(nix_.get(), *store_, query,
                                     static_cast<size_t>(plan.param), kind);
    }
    return ExecuteSetQuery(nix_.get(), *store_, kind, query);
  }
  if (plan.param > 0 && ck == QueryKind::kSuperset) {
    return ExecuteSmartSupersetBssf(bssf_.get(), *store_, query,
                                    static_cast<size_t>(plan.param), kind);
  }
  if (plan.param > 0 && ck == QueryKind::kSubset) {
    return ExecuteSmartSubsetBssf(bssf_.get(), *store_, query,
                                  static_cast<size_t>(plan.param), kind);
  }
  return ExecuteSetQuery(bssf_.get(), *store_, kind, query);
}

StatusOr<SetIndexResult> Snapshot::Query(QueryKind kind,
                                         const ElementSet& query,
                                         PlanMode mode) {
  ElementSet normalized = query;
  NormalizeSet(&normalized);
  if (normalized.empty()) {
    return Status::InvalidArgument("query set must not be empty");
  }

  AccessPathChoice plan;
  switch (mode) {
    case PlanMode::kForceSsf:
      if (ssf_ == nullptr) return Status::FailedPrecondition("no ssf");
      plan = {"ssf", "plain", 0.0, 0};
      break;
    case PlanMode::kForceBssf:
      if (bssf_ == nullptr) return Status::FailedPrecondition("no bssf");
      plan = {"bssf", "plain", 0.0, 0};
      break;
    case PlanMode::kForceNix:
      if (nix_ == nullptr) return Status::FailedPrecondition("no nix");
      plan = {"nix", "plain", 0.0, 0};
      break;
    case PlanMode::kAuto: {
      SIGSET_ASSIGN_OR_RETURN(
          plan, Plan(CandidateKind(kind),
                     static_cast<int64_t>(normalized.size())));
      break;
    }
  }

  // The timer is armed only when a flight recorder rides along (plain
  // snapshot reads stay clock-free).
  TraceTimer timer(recorder_ != nullptr);
  IoStats before = TotalStats();
  SIGSET_ASSIGN_OR_RETURN(QueryResult result,
                          RunPlan(plan, kind, normalized));
  IoStats delta = TotalStats() - before;

  if (metrics_ != nullptr) {
    // The registry is thread-safe; concurrent snapshot readers may share
    // one.  Distinct names keep lock-free reader traffic separable from
    // the writer-side query.* series.
    metrics_->counter("query.snapshot.count")->Increment();
    metrics_->histogram("query.snapshot.pages")->Record(delta.total());
  }

  SetIndexResult out;
  out.result = std::move(result);
  out.plan = plan.facility + " " + plan.strategy;
  out.page_accesses = delta.total();

  if (recorder_ != nullptr) {
    if (metrics_ != nullptr) {
      metrics_->histogram("query.snapshot.latency_us")
          ->Record(static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));
    }
    FlightEvent event;
    event.op = FlightOp::kSnapshotQuery;
    event.fingerprint =
        FlightRecorder::Fingerprint(static_cast<int>(kind), normalized);
    event.epoch = pin_.epoch();
    event.SetDelta(delta);
    event.SetDetail(out.plan);
    recorder_->Record(event);
  }
  return out;
}

StatusOr<SetIndexJoinResult> Snapshot::ExecuteSetJoin(Snapshot* s_side,
                                                      const JoinSpec& spec) {
  if (s_side == nullptr) {
    return Status::InvalidArgument("join S side must not be null");
  }

  // Frozen-model planning (no live feedback): identical epochs join
  // identically, same rule as Plan().
  const FrozenModel mv_r = ModelFromState(*state_, *attr_);
  const FrozenModel mv_s = ModelFromState(*s_side->state_, *s_side->attr_);

  JoinSpec resolved = spec;
  if (resolved.strategy == JoinStrategy::kAuto) {
    SIGSET_ASSIGN_OR_RETURN(JoinStrategyChoice best,
                            BestJoinStrategy(mv_r.db, mv_r.dt, mv_s.db,
                                             mv_s.dt, mv_r.sig, mv_s.nix));
    resolved.strategy = best.strategy;
  }

  double probe_cost_pages = 0.0;
  {
    StatusOr<AccessPathChoice> probe =
        BestAccessPath(mv_s.db, mv_s.sig, mv_s.nix, mv_s.dt, mv_r.dt,
                       QueryKind::kSuperset, /*allow_smart=*/true);
    if (probe.ok()) probe_cost_pages = probe->cost_pages;
  }

  JoinSideAccess r_acc;
  r_acc.num_live = num_objects();
  r_acc.scan =
      [this](const std::function<Status(Oid, const ElementSet&)>& fn) {
        return store_->ForEachLive(fn);
      };

  JoinSideAccess s_acc;
  s_acc.num_live = s_side->num_objects();
  s_acc.scan =
      [s_side](const std::function<Status(Oid, const ElementSet&)>& fn) {
        return s_side->store_->ForEachLive(fn);
      };
  s_acc.probe_cost_pages = probe_cost_pages;
  s_acc.probe_superset =
      [s_side](const ElementSet& query) -> StatusOr<QueryResult> {
    SIGSET_ASSIGN_OR_RETURN(
        AccessPathChoice plan,
        s_side->Plan(QueryKind::kSuperset,
                     static_cast<int64_t>(query.size())));
    return s_side->RunPlan(plan, QueryKind::kSuperset, query);
  };

  Snapshot* self = this;
  const std::function<IoStats()> total_stats = [self, s_side]() {
    IoStats total = self->TotalStats();
    if (s_side != self) total += s_side->TotalStats();
    return total;
  };

  TraceTimer timer(recorder_ != nullptr);
  IoStats before = total_stats();
  SIGSET_ASSIGN_OR_RETURN(
      JoinResult result,
      sigsetdb::ExecuteSetJoin(r_acc, s_acc, attr_->sig, resolved,
                               /*ctx=*/nullptr, /*trace=*/nullptr,
                               total_stats));
  IoStats delta = total_stats() - before;

  if (metrics_ != nullptr) {
    metrics_->counter("join.snapshot.count")->Increment();
    metrics_->histogram("join.snapshot.pages")->Record(delta.total());
  }

  SetIndexJoinResult out;
  out.plan = JoinStrategyName(resolved.strategy);
  out.page_accesses = delta.total();
  out.join = std::move(result);

  if (recorder_ != nullptr) {
    if (metrics_ != nullptr) {
      metrics_->histogram("join.snapshot.latency_us")
          ->Record(static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));
    }
    FlightEvent event;
    event.op = FlightOp::kJoin;
    event.epoch = pin_.epoch();
    event.SetDelta(delta);
    event.SetDetail(out.plan);
    recorder_->Record(event);
  }
  return out;
}

// ---------------------------------------------------------------------------
// DatabaseSnapshot (multi-attribute conjunction view)
// ---------------------------------------------------------------------------

DatabaseSnapshot::DatabaseSnapshot(EpochPin pin, MetricsRegistry* metrics,
                                   FlightRecorder* recorder)
    : pin_(std::move(pin)),
      state_(pin_.state()),
      metrics_(metrics),
      recorder_(recorder) {}

StatusOr<std::unique_ptr<DatabaseSnapshot>> DatabaseSnapshot::Create(
    EpochPin pin, MetricsRegistry* metrics, FlightRecorder* recorder) {
  if (!pin.pinned() || pin.state() == nullptr) {
    return Status::FailedPrecondition("no published snapshot state to pin");
  }
  std::unique_ptr<DatabaseSnapshot> snap(
      new DatabaseSnapshot(std::move(pin), metrics, recorder));
  SIGSET_RETURN_IF_ERROR(snap->Init());
  return snap;
}

Status DatabaseSnapshot::Init() {
  if (state_->objects == nullptr || state_->attrs.empty()) {
    return Status::Internal("snapshot state is not a Database state");
  }
  const uint64_t at = pin_.epoch();
  objects_view_ = std::make_unique<EpochReadView>(state_->objects, at);
  store_ = std::make_unique<MultiObjectStore>(objects_view_.get(),
                                              state_->num_attributes);
  store_->RecoverCount(state_->num_objects);
  attrs_.resize(state_->attrs.size());
  for (size_t i = 0; i < state_->attrs.size(); ++i) {
    AttrViews& v = attrs_[i];
    SIGSET_RETURN_IF_ERROR(BuildAttrViews(
        state_->attrs[i], at, &v.ssf_sig_view, &v.ssf_oid_view,
        &v.bssf_slices_view, &v.bssf_oid_view, &v.nix_view, &v.ssf, &v.bssf,
        &v.nix));
  }
  return Status::OK();
}

StatusOr<MultiSetObject> DatabaseSnapshot::Get(Oid oid) const {
  return store_->Get(oid);
}

IoStats DatabaseSnapshot::TotalStats() const {
  IoStats total = objects_view_->stats();
  for (const AttrViews& v : attrs_) {
    for (const EpochReadView* f :
         {v.ssf_sig_view.get(), v.ssf_oid_view.get(),
          v.bssf_slices_view.get(), v.bssf_oid_view.get(),
          v.nix_view.get()}) {
      if (f != nullptr) total += f->stats();
    }
  }
  return total;
}

StatusOr<size_t> DatabaseSnapshot::AttributeIndex(
    const std::string& name) const {
  for (size_t i = 0; i < state_->attrs.size(); ++i) {
    if (state_->attrs[i].name == name) return i;
  }
  return Status::InvalidArgument("unknown attribute: " + name);
}

StatusOr<AccessPathChoice> DatabaseSnapshot::PlanPredicate(
    size_t attr, const SetPredicate& pred) const {
  const AttrViews& views = attrs_[attr];
  const FrozenModel mv = ModelFromState(*state_, state_->attrs[attr]);
  QueryKind ck = CandidateKind(pred.kind);
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<AccessPathChoice> choices,
      AdviseAccessPaths(mv.db, mv.sig, mv.nix, mv.dt,
                        static_cast<int64_t>(pred.query.size()), ck,
                        /*allow_smart=*/true));
  for (const AccessPathChoice& choice : choices) {
    if (choice.facility == "ssf" && views.ssf == nullptr) continue;
    if (choice.facility == "bssf" && views.bssf == nullptr) continue;
    if (choice.facility == "nix" && views.nix == nullptr) continue;
    return choice;
  }
  return Status::Internal("no maintained facility for attribute");
}

StatusOr<std::vector<Oid>> DatabaseSnapshot::DriverCandidates(
    size_t attr, const AccessPathChoice& plan, const SetPredicate& pred) {
  AttrViews& views = attrs_[attr];
  QueryKind ck = CandidateKind(pred.kind);
  const ElementSet& query = pred.query;
  if (plan.facility == "ssf") {
    SIGSET_ASSIGN_OR_RETURN(CandidateResult result,
                            views.ssf->Candidates(ck, query));
    return result.oids;
  }
  if (plan.facility == "nix") {
    if (plan.param > 0 && ck == QueryKind::kSuperset) {
      SIGSET_ASSIGN_OR_RETURN(
          CandidateResult result,
          views.nix->CandidatesSmartSuperset(query,
                                             static_cast<size_t>(plan.param)));
      return result.oids;
    }
    SIGSET_ASSIGN_OR_RETURN(CandidateResult result,
                            views.nix->Candidates(ck, query));
    return result.oids;
  }
  // bssf (serial: one snapshot, one reader thread).
  if (plan.param > 0 && ck == QueryKind::kSuperset) {
    BitVector sig = MakePartialQuerySignature(
        query, static_cast<size_t>(plan.param), views.bssf->config());
    SIGSET_ASSIGN_OR_RETURN(std::vector<uint64_t> slots,
                            views.bssf->SupersetCandidateSlots(sig));
    return views.bssf->ResolveSlots(slots);
  }
  if (plan.param > 0 && ck == QueryKind::kSubset) {
    BitVector sig = MakeSetSignature(query, views.bssf->config());
    SIGSET_ASSIGN_OR_RETURN(
        std::vector<uint64_t> slots,
        views.bssf->SubsetCandidateSlots(sig,
                                         static_cast<size_t>(plan.param)));
    return views.bssf->ResolveSlots(slots);
  }
  SIGSET_ASSIGN_OR_RETURN(CandidateResult result,
                          views.bssf->Candidates(ck, query));
  return result.oids;
}

StatusOr<DatabaseQueryResult> DatabaseSnapshot::Query(
    const std::vector<SetPredicate>& predicates) {
  if (predicates.empty()) {
    return Status::InvalidArgument("at least one predicate required");
  }
  std::vector<SetPredicate> preds = predicates;
  std::vector<size_t> attr_index(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    NormalizeSet(&preds[i].query);
    if (preds[i].query.empty()) {
      return Status::InvalidArgument("query set must not be empty");
    }
    SIGSET_ASSIGN_OR_RETURN(attr_index[i],
                            AttributeIndex(preds[i].attribute));
  }

  // Cheapest predicate drives candidate selection (same rule as the live
  // Database, priced from the frozen model).
  size_t driver = 0;
  double best_cost = 0;
  AccessPathChoice driver_plan;
  for (size_t i = 0; i < preds.size(); ++i) {
    SIGSET_ASSIGN_OR_RETURN(AccessPathChoice plan,
                            PlanPredicate(attr_index[i], preds[i]));
    if (i == 0 || plan.cost_pages < best_cost) {
      best_cost = plan.cost_pages;
      driver = i;
      driver_plan = plan;
    }
  }

  IoStats before = TotalStats();
  TraceTimer timer(recorder_ != nullptr);
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<Oid> candidates,
      DriverCandidates(attr_index[driver], driver_plan, preds[driver]));

  DatabaseQueryResult out;
  out.num_candidates = candidates.size();
  for (Oid oid : candidates) {
    StatusOr<MultiSetObject> obj = store_->Get(oid);
    if (!obj.ok()) {
      // Same tolerance as the live resolver: a store-missing candidate is
      // a false drop, not an error.
      if (obj.status().code() == StatusCode::kNotFound) {
        ++out.num_false_drops;
        continue;
      }
      return obj.status();
    }
    bool keep = true;
    for (size_t i = 0; i < preds.size(); ++i) {
      if (!SatisfiesValue(obj->attrs[attr_index[i]], preds[i].kind,
                          preds[i].query)) {
        keep = false;
        break;
      }
    }
    if (keep) {
      out.oids.push_back(oid);
    } else {
      ++out.num_false_drops;
    }
  }
  out.driver = preds[driver].attribute + " via " + driver_plan.facility +
               " " + driver_plan.strategy;
  out.page_accesses = (TotalStats() - before).total();

  if (metrics_ != nullptr) {
    metrics_->counter("query.snapshot.count")->Increment();
    metrics_->histogram("query.snapshot.pages")->Record(out.page_accesses);
  }
  if (recorder_ != nullptr) {
    if (metrics_ != nullptr) {
      metrics_->histogram("query.snapshot.latency_us")
          ->Record(static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));
    }
    FlightEvent event;
    event.op = FlightOp::kSnapshotQuery;
    event.fingerprint = FlightRecorder::Fingerprint(
        static_cast<int>(preds[driver].kind), preds[driver].query);
    event.epoch = pin_.epoch();
    event.SetDelta(TotalStats() - before);
    event.SetDetail(out.driver);
    recorder_->Record(event);
  }
  return out;
}

StatusOr<DatabaseJoinResult> DatabaseSnapshot::ExecuteSetJoin(
    const std::string& r_attribute, const std::string& s_attribute,
    const JoinSpec& spec) {
  SIGSET_ASSIGN_OR_RETURN(size_t r_attr, AttributeIndex(r_attribute));
  SIGSET_ASSIGN_OR_RETURN(size_t s_attr, AttributeIndex(s_attribute));

  const FrozenModel mv_r = ModelFromState(*state_, state_->attrs[r_attr]);
  const FrozenModel mv_s = ModelFromState(*state_, state_->attrs[s_attr]);

  JoinSpec resolved = spec;
  if (resolved.strategy == JoinStrategy::kAuto) {
    SIGSET_ASSIGN_OR_RETURN(JoinStrategyChoice best,
                            BestJoinStrategy(mv_r.db, mv_r.dt, mv_s.db,
                                             mv_s.dt, mv_r.sig, mv_s.nix));
    resolved.strategy = best.strategy;
  }

  double probe_cost_pages = 0.0;
  {
    StatusOr<AccessPathChoice> probe =
        BestAccessPath(mv_s.db, mv_s.sig, mv_s.nix, mv_s.dt, mv_r.dt,
                       QueryKind::kSuperset, /*allow_smart=*/true);
    if (probe.ok()) probe_cost_pages = probe->cost_pages;
  }

  JoinSideAccess r_acc;
  r_acc.num_live = num_objects();
  r_acc.scan =
      [this, r_attr](const std::function<Status(Oid, const ElementSet&)>& fn) {
        return store_->ForEachLive(
            [&fn, r_attr](Oid oid, const std::vector<ElementSet>& attrs) {
              return fn(oid, attrs[r_attr]);
            });
      };

  JoinSideAccess s_acc;
  s_acc.num_live = num_objects();
  s_acc.scan =
      [this, s_attr](const std::function<Status(Oid, const ElementSet&)>& fn) {
        return store_->ForEachLive(
            [&fn, s_attr](Oid oid, const std::vector<ElementSet>& attrs) {
              return fn(oid, attrs[s_attr]);
            });
      };
  s_acc.probe_cost_pages = probe_cost_pages;
  s_acc.probe_superset =
      [this, s_attr](const ElementSet& query) -> StatusOr<QueryResult> {
    SetPredicate pred{state_->attrs[s_attr].name, QueryKind::kSuperset,
                      query};
    SIGSET_ASSIGN_OR_RETURN(AccessPathChoice plan,
                            PlanPredicate(s_attr, pred));
    SIGSET_ASSIGN_OR_RETURN(std::vector<Oid> candidates,
                            DriverCandidates(s_attr, plan, pred));
    QueryResult qr;
    qr.num_candidates = candidates.size();
    for (Oid oid : candidates) {
      StatusOr<MultiSetObject> obj = store_->Get(oid);
      if (!obj.ok()) {
        if (obj.status().code() == StatusCode::kNotFound) {
          ++qr.num_false_drops;
          continue;
        }
        return obj.status();
      }
      if (SatisfiesValue(obj->attrs[s_attr], QueryKind::kSuperset, query)) {
        qr.oids.push_back(oid);
      } else {
        ++qr.num_false_drops;
      }
    }
    return qr;
  };

  DatabaseSnapshot* self = this;
  const std::function<IoStats()> total_stats = [self]() {
    return self->TotalStats();
  };

  TraceTimer timer(recorder_ != nullptr);
  IoStats before = TotalStats();
  SIGSET_ASSIGN_OR_RETURN(
      JoinResult result,
      sigsetdb::ExecuteSetJoin(r_acc, s_acc, state_->attrs[r_attr].sig,
                               resolved, /*ctx=*/nullptr, /*trace=*/nullptr,
                               total_stats));
  IoStats delta = TotalStats() - before;

  if (metrics_ != nullptr) {
    metrics_->counter("join.snapshot.count")->Increment();
    metrics_->histogram("join.snapshot.pages")->Record(delta.total());
  }

  DatabaseJoinResult out;
  out.plan = state_->attrs[r_attr].name + " in-subset " +
             state_->attrs[s_attr].name + " via " +
             JoinStrategyName(resolved.strategy);
  out.page_accesses = delta.total();
  out.join = std::move(result);

  if (recorder_ != nullptr) {
    if (metrics_ != nullptr) {
      metrics_->histogram("join.snapshot.latency_us")
          ->Record(static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));
    }
    FlightEvent event;
    event.op = FlightOp::kJoin;
    event.epoch = pin_.epoch();
    event.SetDelta(delta);
    event.SetDetail(out.plan);
    recorder_->Record(event);
  }
  return out;
}

}  // namespace sigsetdb
