#include "db/database.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "db/epoch.h"
#include "db/snapshot.h"
#include "obs/explain.h"
#include "storage/versioned_page_file.h"

namespace sigsetdb {

namespace {

constexpr char kKeyObjects[] = "num_objects";
constexpr char kKeyAttrs[] = "num_attributes";
constexpr char kKeyGeneration[] = "compact_generation";
constexpr char kKeyWal[] = "config_wal";
// Every log record with lsn <= this value is reflected in the checkpoint;
// replay applies only records beyond it.  Missing (pre-WAL manifest) = 0.
constexpr char kKeyWalLsn[] = "wal_lsn";

std::string AttrKey(size_t i, const char* suffix) {
  return "attr" + std::to_string(i) + "." + suffix;
}

// Compaction writes into generation-suffixed files ("<base>.g<N>"); the
// original name is generation 0.  All attributes share one generation.
std::string GenName(const std::string& base, uint64_t generation) {
  if (generation == 0) return base;
  return base + ".g" + std::to_string(generation);
}

bool Satisfies(const ElementSet& value, QueryKind kind,
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

}  // namespace

Database::Database(StorageManager* storage, Options options)
    : storage_(storage), options_(std::move(options)) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    ctx_.pool = pool_.get();
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options_.enable_snapshots) {
    epochs_ = std::make_unique<EpochManager>();
  }
  if (options_.enable_telemetry) {
    recorder_ =
        std::make_unique<FlightRecorder>(options_.flight_recorder_capacity);
    watchdog_ = std::make_unique<DriftWatchdog>(metrics_, recorder_.get(),
                                                options_.drift);
    if (epochs_ != nullptr) epochs_->SetMetrics(metrics_);
  }
}

namespace {
// Statuses after which the instance's state can no longer be trusted (see
// SetIndex's IsFatalStatus; kept local to each TU on purpose).
bool FatalStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIoError:
    case StatusCode::kCorruption:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}
}  // namespace

void Database::RecordOpTelemetry(FlightOp op, const char* metric,
                                 const TraceTimer& timer,
                                 const IoStats& before, const Status& status,
                                 uint64_t fingerprint, const char* detail) {
  metrics_->histogram(metric)->Record(
      static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));
  FlightEvent event;
  event.op = op;
  event.status_code = static_cast<int32_t>(status.code());
  event.fingerprint = fingerprint;
  event.epoch = current_epoch();
  event.wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
  event.SetDelta(storage_->TotalStats() - before);
  if (detail != nullptr) {
    event.SetDetail(detail);
  } else if (!status.ok()) {
    event.SetDetail(status.message());
  }
  recorder_->Record(event);
  if (!status.ok() && FatalStatus(status)) NoteFatal(status);
}

void Database::NoteFatal(const Status& cause) {
  if (postmortem_written_) return;
  postmortem_written_ = true;
  FlightEvent event;
  event.op = FlightOp::kFatal;
  event.status_code = static_cast<int32_t>(cause.code());
  event.epoch = current_epoch();
  event.wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
  event.SetDetail(cause.message());
  recorder_->Record(event);
  const std::string reason = "fatal status: " + cause.ToString();
  last_postmortem_json_ = recorder_->PostmortemJson(reason);
  if (!options_.postmortem_dir.empty()) {
    (void)recorder_->WritePostmortem(
        options_.postmortem_dir + "/" + name_ + ".postmortem", reason);
  }
}

Status Database::Checkpoint() {
  if (recorder_ == nullptr) return CheckpointImpl();
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  Status status = CheckpointImpl();
  RecordOpTelemetry(FlightOp::kCheckpoint, "op.checkpoint.latency_us", timer,
                    before, status);
  return status;
}

StatusOr<Oid> Database::Insert(std::vector<ElementSet> attr_values) {
  if (recorder_ == nullptr) return InsertImpl(std::move(attr_values));
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  StatusOr<Oid> out = InsertImpl(std::move(attr_values));
  RecordOpTelemetry(FlightOp::kInsert, "op.insert.latency_us", timer, before,
                    out.status());
  return out;
}

Status Database::Delete(Oid oid) {
  if (recorder_ == nullptr) return DeleteImpl(oid);
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  Status status = DeleteImpl(oid);
  RecordOpTelemetry(FlightOp::kDelete, "op.delete.latency_us", timer, before,
                    status);
  return status;
}

StatusOr<std::vector<Oid>> Database::ApplyBatch(const MultiWriteBatch& batch) {
  if (recorder_ == nullptr) return ApplyBatchImpl(batch);
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  StatusOr<std::vector<Oid>> out = ApplyBatchImpl(batch);
  RecordOpTelemetry(FlightOp::kBatch, "op.batch.latency_us", timer, before,
                    out.status());
  return out;
}

Status Database::Compact() {
  if (recorder_ == nullptr) return CompactImpl();
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  Status status = CompactImpl();
  RecordOpTelemetry(FlightOp::kCompact, "op.compact.latency_us", timer,
                    before, status);
  return status;
}

Database::~Database() {
  // Stop the reclaimer before the wrappers it calls into are destroyed.
  // Pinned snapshots must already be gone (documented contract).
  if (epochs_ != nullptr) epochs_->Shutdown();
}

StatusOr<PageFile*> Database::OpenVersioned(const std::string& file_name,
                                            VersionedPageFile** slot) {
  SIGSET_ASSIGN_OR_RETURN(PageFile * base, storage_->OpenOrCreate(file_name));
  if (epochs_ == nullptr) {
    if (slot != nullptr) *slot = nullptr;
    return base;
  }
  SIGSET_ASSIGN_OR_RETURN(
      std::unique_ptr<VersionedPageFile> wrapper,
      VersionedPageFile::Wrap(base, epochs_->published_cell()));
  VersionedPageFile* raw = wrapper.get();
  epochs_->RegisterReclaimer(
      [raw](uint64_t oldest_pinned) { return raw->Reclaim(oldest_pinned); });
  versioned_all_.push_back(std::move(wrapper));
  if (slot != nullptr) *slot = raw;
  return raw;
}

Status Database::FlushCurrentVersions() {
  // Only the CURRENT slots: a superseded wrapper (from an earlier
  // generation) flushing over a shared base file would resurrect stale
  // heads.
  if (v_objects_ != nullptr) SIGSET_RETURN_IF_ERROR(v_objects_->FlushToBase());
  for (AttributeState& state : attrs_) {
    for (VersionedPageFile* v :
         {state.v_ssf_sig, state.v_ssf_oid, state.v_bssf_slices,
          state.v_bssf_oid, state.v_nix}) {
      if (v != nullptr) SIGSET_RETURN_IF_ERROR(v->FlushToBase());
    }
  }
  return Status::OK();
}

void Database::PublishSnapshot() {
  if (epochs_ == nullptr) return;
  auto snap = std::make_shared<SnapshotState>();
  snap->epoch = epochs_->write_epoch();
  snap->generation = generation_;
  snap->num_objects = num_objects();
  snap->num_attributes = static_cast<uint16_t>(attrs_.size());
  snap->objects = v_objects_;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    const AttributeOptions& spec = options_.attributes[i];
    const AttributeState& state = attrs_[i];
    SnapshotAttributeState attr;
    attr.name = spec.name;
    attr.maintain_ssf = state.ssf != nullptr;
    attr.maintain_bssf = state.bssf != nullptr;
    attr.maintain_nix = state.nix != nullptr;
    attr.sig = spec.sig;
    attr.nix_fanout = spec.nix_fanout;
    attr.capacity = options_.capacity;
    attr.domain_estimate = DomainEstimate(i);
    attr.total_elements = state.total_elements;
    if (state.ssf != nullptr) {
      attr.num_signatures = state.ssf->num_signatures();
      attr.num_live = state.ssf->num_live();
    } else if (state.bssf != nullptr) {
      attr.num_signatures = state.bssf->num_signatures();
      attr.num_live = state.bssf->num_live();
    }
    if (state.nix != nullptr) {
      const BTree& tree = state.nix->tree();
      attr.nix_root = tree.root();
      attr.nix_height = tree.height();
      attr.nix_leaves = tree.leaf_pages();
      attr.nix_internal = tree.internal_pages();
      attr.nix_overflow = tree.overflow_pages();
      attr.nix_empty_oids = state.nix->empty_set_roster();
    }
    attr.ssf_sig = state.v_ssf_sig;
    attr.ssf_oid = state.v_ssf_oid;
    attr.bssf_slices = state.v_bssf_slices;
    attr.bssf_oid = state.v_bssf_oid;
    attr.nix = state.v_nix;
    snap->attrs.push_back(std::move(attr));
  }
  epochs_->Publish(std::move(snap));
}

StatusOr<std::unique_ptr<DatabaseSnapshot>> Database::GetSnapshot() {
  if (!poison_.ok()) return poison_;
  if (epochs_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshots disabled (Options::enable_snapshots)");
  }
  return DatabaseSnapshot::Create(epochs_->Pin(), metrics_, recorder_.get());
}

uint64_t Database::current_epoch() const {
  return epochs_ != nullptr ? epochs_->published() : 0;
}

Status Database::ValidateOptions(const Options& options) {
  if (options.attributes.empty()) {
    return Status::InvalidArgument("at least one attribute required");
  }
  for (const AttributeOptions& attr : options.attributes) {
    if (attr.name.empty()) {
      return Status::InvalidArgument("attribute name must not be empty");
    }
    if (!attr.maintain_ssf && !attr.maintain_bssf && !attr.maintain_nix) {
      return Status::InvalidArgument("attribute " + attr.name +
                                     ": enable at least one facility");
    }
  }
  return Status::OK();
}

Status Database::InitFacilities(const std::string& name,
                                const Manifest::Values* recovered) {
  attrs_.resize(options_.attributes.size());
  dictionaries_.resize(options_.attributes.size());
  for (size_t i = 0; i < options_.attributes.size(); ++i) {
    const AttributeOptions& spec = options_.attributes[i];
    AttributeState& state = attrs_[i];
    std::string prefix = name + "." + spec.name;
    uint64_t sigs = 0;
    if (recovered != nullptr) {
      SIGSET_ASSIGN_OR_RETURN(
          sigs, Manifest::Get(*recovered, AttrKey(i, "signatures")));
      SIGSET_ASSIGN_OR_RETURN(
          state.total_elements,
          Manifest::Get(*recovered, AttrKey(i, "elements")));
    }
    if (spec.maintain_ssf) {
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * sig_file,
          OpenVersioned(GenName(prefix + ".sig", generation_),
                        &state.v_ssf_sig));
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * oid_file,
          OpenVersioned(GenName(prefix + ".sig.oid", generation_),
                        &state.v_ssf_oid));
      if (recovered == nullptr) {
        SIGSET_ASSIGN_OR_RETURN(state.ssf, SequentialSignatureFile::Create(
                                               spec.sig, sig_file, oid_file));
      } else {
        SIGSET_ASSIGN_OR_RETURN(state.ssf,
                                SequentialSignatureFile::CreateFromExisting(
                                    spec.sig, sig_file, oid_file, sigs));
      }
    }
    if (spec.maintain_bssf) {
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * slice_file,
          OpenVersioned(GenName(prefix + ".slices", generation_),
                        &state.v_bssf_slices));
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * oid_file,
          OpenVersioned(GenName(prefix + ".slices.oid", generation_),
                        &state.v_bssf_oid));
      if (recovered == nullptr) {
        SIGSET_ASSIGN_OR_RETURN(
            state.bssf,
            BitSlicedSignatureFile::Create(spec.sig, options_.capacity,
                                           slice_file, oid_file,
                                           spec.bssf_mode));
      } else {
        SIGSET_ASSIGN_OR_RETURN(
            state.bssf, BitSlicedSignatureFile::CreateFromExisting(
                            spec.sig, options_.capacity, slice_file, oid_file,
                            spec.bssf_mode, sigs));
      }
    }
    if (spec.maintain_nix) {
      SIGSET_ASSIGN_OR_RETURN(PageFile * nix_file,
                              OpenVersioned(prefix + ".nix", &state.v_nix));
      if (recovered == nullptr) {
        SIGSET_ASSIGN_OR_RETURN(
            state.nix, NestedIndex::Create(nix_file, spec.nix_fanout));
      } else {
        SIGSET_ASSIGN_OR_RETURN(
            uint64_t root, Manifest::Get(*recovered, AttrKey(i, "nix_root")));
        SIGSET_ASSIGN_OR_RETURN(
            uint64_t height,
            Manifest::Get(*recovered, AttrKey(i, "nix_height")));
        SIGSET_ASSIGN_OR_RETURN(
            uint64_t leaves,
            Manifest::Get(*recovered, AttrKey(i, "nix_leaves")));
        SIGSET_ASSIGN_OR_RETURN(
            uint64_t internal,
            Manifest::Get(*recovered, AttrKey(i, "nix_internal")));
        SIGSET_ASSIGN_OR_RETURN(
            uint64_t overflow,
            Manifest::Get(*recovered, AttrKey(i, "nix_overflow")));
        SIGSET_ASSIGN_OR_RETURN(
            state.nix,
            NestedIndex::CreateFromExisting(
                nix_file, spec.nix_fanout, static_cast<PageId>(root),
                static_cast<uint32_t>(height), leaves, internal, overflow));
        auto free_head = Manifest::Get(*recovered, AttrKey(i, "nix_free_head"));
        auto free_pages =
            Manifest::Get(*recovered, AttrKey(i, "nix_free_pages"));
        if (free_head.ok() && free_pages.ok()) {
          state.nix->mutable_tree().RestoreFreeList(
              static_cast<PageId>(*free_head), *free_pages);
        }
      }
    }
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Database>> Database::Create(StorageManager* storage,
                                                     const std::string& name,
                                                     const Options& options) {
  SIGSET_RETURN_IF_ERROR(ValidateOptions(options));
  std::unique_ptr<Database> db(new Database(storage, options));
  db->name_ = name;
  SIGSET_ASSIGN_OR_RETURN(db->manifest_file_,
                          storage->OpenOrCreate(name + ".manifest"));
  SIGSET_ASSIGN_OR_RETURN(db->sketch_file_,
                          storage->OpenOrCreate(name + ".sketch"));
  SIGSET_ASSIGN_OR_RETURN(
      PageFile * objects,
      db->OpenVersioned(name + ".objects", &db->v_objects_));
  db->store_ = std::make_unique<MultiObjectStore>(
      objects, static_cast<uint16_t>(options.attributes.size()));
  SIGSET_RETURN_IF_ERROR(db->InitFacilities(name, nullptr));
  if (options.enable_wal) {
    SIGSET_ASSIGN_OR_RETURN(PageFile * wal_file,
                            storage->OpenOrCreate(name + ".wal"));
    SIGSET_ASSIGN_OR_RETURN(db->wal_,
                            WriteAheadLog::Create(wal_file, 0, db->metrics_));
    db->wal_->set_group_commit_window(options.group_commit_window_us);
    // Checkpoint immediately so a crash before the first user checkpoint
    // still reopens: the manifest anchors replay at lsn 0.
    SIGSET_RETURN_IF_ERROR(db->Checkpoint());
  }
  db->PublishSnapshot();  // epoch 1: the empty database
  return db;
}

StatusOr<std::unique_ptr<Database>> Database::Open(StorageManager* storage,
                                                   const std::string& name,
                                                   const Options& options) {
  SIGSET_RETURN_IF_ERROR(ValidateOptions(options));
  std::unique_ptr<Database> db(new Database(storage, options));
  db->name_ = name;
  SIGSET_ASSIGN_OR_RETURN(db->manifest_file_,
                          storage->OpenOrCreate(name + ".manifest"));
  SIGSET_ASSIGN_OR_RETURN(db->sketch_file_,
                          storage->OpenOrCreate(name + ".sketch"));
  SIGSET_ASSIGN_OR_RETURN(Manifest::Values values,
                          Manifest::Read(db->manifest_file_));
  // Pre-compaction manifests have no generation key; that means gen 0.
  auto generation = Manifest::Get(values, kKeyGeneration);
  if (generation.ok()) db->generation_ = *generation;
  SIGSET_ASSIGN_OR_RETURN(uint64_t attrs, Manifest::Get(values, kKeyAttrs));
  if (attrs != options.attributes.size()) {
    return Status::FailedPrecondition(
        "attribute count does not match the checkpoint");
  }
  // Pre-WAL manifests have no config_wal key; they are WAL-off databases.
  auto wal_flag = Manifest::Get(values, kKeyWal);
  const uint64_t checkpointed_wal = wal_flag.ok() ? *wal_flag : 0;
  if (checkpointed_wal != (options.enable_wal ? 1u : 0u)) {
    return Status::FailedPrecondition(
        "options do not match the checkpointed configuration");
  }
  SIGSET_ASSIGN_OR_RETURN(uint64_t objects,
                          Manifest::Get(values, kKeyObjects));
  SIGSET_ASSIGN_OR_RETURN(
      PageFile * object_file,
      db->OpenVersioned(name + ".objects", &db->v_objects_));
  db->store_ = std::make_unique<MultiObjectStore>(
      object_file, static_cast<uint16_t>(options.attributes.size()));
  db->store_->RecoverCount(objects);

  if (options.enable_wal) {
    auto ckpt_lsn = Manifest::Get(values, kKeyWalLsn);
    const uint64_t wal_lsn = ckpt_lsn.ok() ? *ckpt_lsn : 0;
    SIGSET_ASSIGN_OR_RETURN(PageFile * wal_file,
                            storage->OpenOrCreate(name + ".wal"));
    SIGSET_ASSIGN_OR_RETURN(
        WriteAheadLog::OpenResult scan,
        WriteAheadLog::Open(wal_file, wal_lsn, db->metrics_));
    db->wal_ = std::move(scan.log);
    db->wal_->set_group_commit_window(options.group_commit_window_us);
    std::vector<LogRecord> to_replay;
    for (LogRecord& rec : scan.records) {
      if (rec.lsn > wal_lsn) to_replay.push_back(std::move(rec));
    }
    if (!to_replay.empty()) {
      // Acknowledged writes past the checkpoint: redo them against the
      // store, then rebuild every attribute's facilities from the store.
      // The facilities' own files may be arbitrarily stale or torn — they
      // are never opened through the normal path here.  The checkpointed
      // sketches load first so the rebuild's re-adds merge into them.
      db->attrs_.resize(options.attributes.size());
      db->dictionaries_.resize(options.attributes.size());
      if (db->sketch_file_->num_pages() >=
          static_cast<PageId>(db->attrs_.size())) {
        Page page;
        for (size_t i = 0; i < db->attrs_.size(); ++i) {
          SIGSET_RETURN_IF_ERROR(
              db->sketch_file_->Read(static_cast<PageId>(i), &page));
          if (!db->attrs_[i].domain_sketch.LoadRegisters(
                  page.data(), db->attrs_[i].domain_sketch.num_registers())) {
            return Status::Corruption("domain sketch size mismatch");
          }
        }
      }
      SIGSET_RETURN_IF_ERROR(db->ReplayLog(to_replay));
      SIGSET_RETURN_IF_ERROR(db->RebuildFacilitiesFromStore());
      if (db->metrics_ != nullptr) {
        db->metrics_->counter("wal.replayed_records")
            ->Increment(to_replay.size());
      }
      // Deliberately NO checkpoint here: recovery is read-only w.r.t. the
      // log, so replaying twice equals replaying once.  The next explicit
      // Checkpoint() or Compact() truncates the log.
      object_file->stats().Reset();
      db->PublishSnapshot();
      return db;
    }
  }
  SIGSET_RETURN_IF_ERROR(db->InitFacilities(name, &values));
  // Restore the per-attribute domain sketches (page i = attribute i).
  if (db->sketch_file_->num_pages() >=
      static_cast<PageId>(db->attrs_.size())) {
    Page page;
    for (size_t i = 0; i < db->attrs_.size(); ++i) {
      SIGSET_RETURN_IF_ERROR(
          db->sketch_file_->Read(static_cast<PageId>(i), &page));
      if (!db->attrs_[i].domain_sketch.LoadRegisters(
              page.data(), db->attrs_[i].domain_sketch.num_registers())) {
        return Status::Corruption("domain sketch size mismatch");
      }
    }
  }
  db->PublishSnapshot();
  return db;
}

Status Database::CheckpointImpl() {
  if (!poison_.ok()) return poison_;
  // Quiescent invariant: every appended record has been committed (each
  // mutation commits before returning), so last_lsn() covers everything the
  // counters below reflect.
  const uint64_t wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
  Manifest::Values values;
  values[kKeyObjects] = num_objects();
  values[kKeyAttrs] = attrs_.size();
  values[kKeyGeneration] = generation_;
  values[kKeyWal] = wal_ != nullptr ? 1 : 0;
  values[kKeyWalLsn] = wal_lsn;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    const AttributeState& state = attrs_[i];
    uint64_t sigs = 0;
    if (state.ssf != nullptr) {
      sigs = state.ssf->num_signatures();
    } else if (state.bssf != nullptr) {
      sigs = state.bssf->num_signatures();
    }
    values[AttrKey(i, "signatures")] = sigs;
    values[AttrKey(i, "elements")] = state.total_elements;
    if (state.nix != nullptr) {
      const BTree& tree = state.nix->tree();
      values[AttrKey(i, "nix_root")] = tree.root();
      values[AttrKey(i, "nix_height")] = tree.height();
      values[AttrKey(i, "nix_leaves")] = tree.leaf_pages();
      values[AttrKey(i, "nix_internal")] = tree.internal_pages();
      values[AttrKey(i, "nix_overflow")] = tree.overflow_pages();
      values[AttrKey(i, "nix_free_head")] = tree.free_list_head();
      values[AttrKey(i, "nix_free_pages")] = tree.free_pages();
    }
  }
  // Persist the per-attribute domain sketches (one page each).
  while (sketch_file_->num_pages() < attrs_.size()) {
    SIGSET_ASSIGN_OR_RETURN(PageId id, sketch_file_->Allocate());
    (void)id;
  }
  Page page;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    page.Zero();
    std::memcpy(page.data(), attrs_[i].domain_sketch.registers().data(),
                attrs_[i].domain_sketch.num_registers());
    SIGSET_RETURN_IF_ERROR(
        sketch_file_->Write(static_cast<PageId>(i), page));
  }
  // With snapshots on, writes land in in-memory version chains; push the
  // newest versions down to the base files before the manifest points at
  // them (the manifest must never be ahead of the data it describes).
  SIGSET_RETURN_IF_ERROR(FlushCurrentVersions());
  SIGSET_RETURN_IF_ERROR(Manifest::Write(manifest_file_, values));
  // Manifest first, then log truncation: a crash between the two leaves
  // records <= wal_lsn in the log, and replay filters them out by lsn.
  if (wal_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(wal_->Truncate(wal_lsn));
  }
  return Status::OK();
}

Status Database::ApplyInsert(const std::vector<ElementSet>& normalized,
                             Oid expected_oid) {
  SIGSET_ASSIGN_OR_RETURN(Oid oid, store_->Insert(normalized));
  if (expected_oid.valid() && oid != expected_oid) {
    return Status::Internal("store assigned " + oid.ToString() +
                            " but the log predicted " +
                            expected_oid.ToString());
  }
  for (size_t i = 0; i < attrs_.size(); ++i) {
    AttributeState& state = attrs_[i];
    if (state.ssf != nullptr) {
      SIGSET_RETURN_IF_ERROR(state.ssf->Insert(oid, normalized[i]));
    }
    if (state.bssf != nullptr) {
      SIGSET_RETURN_IF_ERROR(state.bssf->Insert(oid, normalized[i]));
    }
    if (state.nix != nullptr) {
      SIGSET_RETURN_IF_ERROR(state.nix->Insert(oid, normalized[i]));
    }
    state.total_elements += normalized[i].size();
    for (uint64_t element : normalized[i]) state.domain_sketch.Add(element);
  }
  return Status::OK();
}

StatusOr<Oid> Database::InsertImpl(std::vector<ElementSet> attr_values) {
  if (!poison_.ok()) return poison_;
  if (attr_values.size() != attrs_.size()) {
    return Status::InvalidArgument("attribute count mismatch");
  }
  for (ElementSet& set : attr_values) NormalizeSet(&set);
  if (wal_ == nullptr) {
    SIGSET_ASSIGN_OR_RETURN(Oid oid, store_->Insert(attr_values));
    for (size_t i = 0; i < attrs_.size(); ++i) {
      AttributeState& state = attrs_[i];
      if (state.ssf != nullptr) {
        SIGSET_RETURN_IF_ERROR(state.ssf->Insert(oid, attr_values[i]));
      }
      if (state.bssf != nullptr) {
        SIGSET_RETURN_IF_ERROR(state.bssf->Insert(oid, attr_values[i]));
      }
      if (state.nix != nullptr) {
        SIGSET_RETURN_IF_ERROR(state.nix->Insert(oid, attr_values[i]));
      }
      state.total_elements += attr_values[i].size();
      for (uint64_t element : attr_values[i]) state.domain_sketch.Add(element);
    }
    PublishSnapshot();
    return oid;
  }
  // Log-before-apply: predict the physical OID, commit the record, then
  // mutate.  The insert is acknowledged by the commit; the apply (or, after
  // a crash, replay) realizes it.
  SIGSET_ASSIGN_OR_RETURN(Oid predicted, store_->PeekNextOid(attr_values));
  SIGSET_ASSIGN_OR_RETURN(
      uint64_t lsn,
      wal_->AppendAndCommit(LogRecord::SingleInsert(predicted, attr_values)));
  Status applied = ApplyInsert(attr_values, predicted);
  if (!applied.ok()) return AbortAndPoison(lsn, applied);
  PublishSnapshot();
  return predicted;
}

Status Database::ApplyDelete(Oid oid, const MultiSetObject& obj) {
  // De-index every attribute first, store delete LAST (see
  // SetIndex::Delete for the crash-ordering argument).
  for (size_t i = 0; i < attrs_.size(); ++i) {
    AttributeState& state = attrs_[i];
    if (state.ssf != nullptr) {
      SIGSET_RETURN_IF_ERROR(state.ssf->Remove(oid, obj.attrs[i]));
    }
    if (state.bssf != nullptr) {
      SIGSET_RETURN_IF_ERROR(state.bssf->Remove(oid, obj.attrs[i]));
    }
    if (state.nix != nullptr) {
      SIGSET_RETURN_IF_ERROR(state.nix->Remove(oid, obj.attrs[i]));
    }
  }
  SIGSET_RETURN_IF_ERROR(store_->Delete(oid));
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].total_elements >= obj.attrs[i].size()) {
      attrs_[i].total_elements -= obj.attrs[i].size();
    }
  }
  return Status::OK();
}

Status Database::DeleteImpl(Oid oid) {
  if (!poison_.ok()) return poison_;
  SIGSET_ASSIGN_OR_RETURN(MultiSetObject obj, store_->Get(oid));
  if (wal_ == nullptr) {
    SIGSET_RETURN_IF_ERROR(ApplyDelete(oid, obj));
    PublishSnapshot();
    return Status::OK();
  }
  // The record carries the victim's preimage (all attribute sets) so an
  // aborted delete can be resurrected at recovery.
  SIGSET_ASSIGN_OR_RETURN(
      uint64_t lsn,
      wal_->AppendAndCommit(LogRecord::SingleDelete(oid, obj.attrs)));
  Status applied = ApplyDelete(oid, obj);
  if (!applied.ok()) return AbortAndPoison(lsn, applied);
  PublishSnapshot();
  return Status::OK();
}

Status Database::AbortAndPoison(uint64_t lsn, const Status& cause) {
  // Same contract as SetIndex::AbortAndPoison: the record at `lsn` is
  // durable but its apply failed partway.  Log an Abort so recovery rolls
  // the record back (or, if the Abort itself cannot commit, recovery
  // completes the record instead — either end state is consistent), and
  // poison this instance until it is reopened.
  (void)wal_->AppendAndCommit(LogRecord::Abort(lsn));
  poison_ = Status::FailedPrecondition(
      "database poisoned: apply of log record " + std::to_string(lsn) +
      " failed (" + cause.message() + "); reopen to recover");
  return cause;
}

StatusOr<std::vector<Oid>> Database::ApplyBatchImpl(const MultiWriteBatch& batch) {
  if (!poison_.ok()) return poison_;
  for (const std::vector<ElementSet>& attr_values : batch.inserts()) {
    if (attr_values.size() != attrs_.size()) {
      return Status::InvalidArgument("attribute count mismatch");
    }
  }
  // Fetch delete victims up front; this is why deleting a same-batch
  // insert is unsupported (victims resolve against the pre-batch store).
  std::vector<MultiSetObject> victims;
  victims.reserve(batch.deletes().size());
  for (Oid oid : batch.deletes()) {
    SIGSET_ASSIGN_OR_RETURN(MultiSetObject obj, store_->Get(oid));
    victims.push_back(std::move(obj));
  }

  std::vector<std::vector<ElementSet>> normalized;
  normalized.reserve(batch.inserts().size());
  for (const std::vector<ElementSet>& attr_values : batch.inserts()) {
    std::vector<ElementSet> n = attr_values;
    for (ElementSet& set : n) NormalizeSet(&set);
    normalized.push_back(std::move(n));
  }

  // One record covers the whole batch: it commits (and is acknowledged)
  // atomically — recovery applies all of it or, when aborted, none.
  uint64_t batch_lsn = 0;
  std::vector<Oid> predicted;
  if (wal_ != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(predicted, store_->PeekOids(normalized));
    std::vector<LogEntry> del_entries;
    del_entries.reserve(victims.size());
    for (size_t i = 0; i < victims.size(); ++i) {
      del_entries.push_back(LogEntry{batch.deletes()[i], victims[i].attrs});
    }
    std::vector<LogEntry> ins_entries;
    ins_entries.reserve(predicted.size());
    for (size_t i = 0; i < predicted.size(); ++i) {
      ins_entries.push_back(LogEntry{predicted[i], normalized[i]});
    }
    SIGSET_ASSIGN_OR_RETURN(
        batch_lsn,
        wal_->AppendAndCommit(LogRecord::Batch(std::move(del_entries),
                                               std::move(ins_entries))));
  }

  std::vector<Oid> new_oids;
  Status applied =
      ApplyBatchBody(batch, victims, normalized, predicted, &new_oids);
  if (!applied.ok()) {
    if (wal_ != nullptr) return AbortAndPoison(batch_lsn, applied);
    return applied;
  }
  PublishSnapshot();
  return new_oids;
}

Status Database::ApplyBatchBody(
    const MultiWriteBatch& batch, const std::vector<MultiSetObject>& victims,
    const std::vector<std::vector<ElementSet>>& normalized,
    const std::vector<Oid>& predicted, std::vector<Oid>* out_oids) {
  // Store inserts first: they assign the OIDs the facility ops index.
  std::vector<Oid>& new_oids = *out_oids;
  new_oids.reserve(normalized.size());
  for (size_t i = 0; i < normalized.size(); ++i) {
    SIGSET_ASSIGN_OR_RETURN(Oid oid, store_->Insert(normalized[i]));
    if (!predicted.empty() && oid != predicted[i]) {
      return Status::Internal("store assigned " + oid.ToString() +
                              " but the log predicted " +
                              predicted[i].ToString());
    }
    new_oids.push_back(oid);
  }

  // One grouped application per (attribute, facility): removes first so
  // freed slots are reused by this batch's inserts.
  for (size_t i = 0; i < attrs_.size(); ++i) {
    AttributeState& state = attrs_[i];
    std::vector<BatchOp> ops;
    ops.reserve(batch.size());
    for (size_t v = 0; v < victims.size(); ++v) {
      ops.push_back(BatchOp{BatchOp::Kind::kRemove, batch.deletes()[v],
                            victims[v].attrs[i]});
    }
    for (size_t v = 0; v < new_oids.size(); ++v) {
      ops.push_back(
          BatchOp{BatchOp::Kind::kInsert, new_oids[v], normalized[v][i]});
    }
    if (state.ssf != nullptr) SIGSET_RETURN_IF_ERROR(state.ssf->ApplyBatch(ops));
    if (state.bssf != nullptr) {
      SIGSET_RETURN_IF_ERROR(state.bssf->ApplyBatch(ops));
    }
    if (state.nix != nullptr) SIGSET_RETURN_IF_ERROR(state.nix->ApplyBatch(ops));
  }

  // Store deletes LAST — same crash ordering as Delete().
  for (Oid oid : batch.deletes()) {
    SIGSET_RETURN_IF_ERROR(store_->Delete(oid));
  }

  for (size_t i = 0; i < attrs_.size(); ++i) {
    AttributeState& state = attrs_[i];
    for (const MultiSetObject& victim : victims) {
      if (state.total_elements >= victim.attrs[i].size()) {
        state.total_elements -= victim.attrs[i].size();
      }
    }
    for (const std::vector<ElementSet>& n : normalized) {
      state.total_elements += n[i].size();
      for (uint64_t element : n[i]) state.domain_sketch.Add(element);
    }
  }
  return Status::OK();
}

Status Database::CompactImpl() {
  if (!poison_.ok()) return poison_;
  bool any_sig = false;
  for (const AttributeState& state : attrs_) {
    if (state.ssf != nullptr || state.bssf != nullptr) any_sig = true;
  }
  if (!any_sig) return CheckpointImpl();
  const uint64_t next_gen = generation_ + 1;

  // Build every attribute's next-generation files before swapping anything:
  // the manifest's generation key (written by the final Checkpoint) is the
  // single commit point for all attributes.
  struct Replacement {
    std::unique_ptr<SequentialSignatureFile> ssf;
    std::unique_ptr<BitSlicedSignatureFile> bssf;
    // Next-generation wrappers stay in these local slots until the swap
    // succeeds, so a failed CompactTo leaves the current slots intact.
    VersionedPageFile* v_ssf_sig = nullptr;
    VersionedPageFile* v_ssf_oid = nullptr;
    VersionedPageFile* v_bssf_slices = nullptr;
    VersionedPageFile* v_bssf_oid = nullptr;
  };
  std::vector<Replacement> replacements(attrs_.size());
  for (size_t i = 0; i < attrs_.size(); ++i) {
    const AttributeOptions& spec = options_.attributes[i];
    AttributeState& state = attrs_[i];
    const std::string prefix = name_ + "." + spec.name;
    uint64_t ssf_live = 0, bssf_live = 0;
    if (state.ssf != nullptr) {
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * sig,
          OpenVersioned(GenName(prefix + ".sig", next_gen),
                        &replacements[i].v_ssf_sig));
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * oid,
          OpenVersioned(GenName(prefix + ".sig.oid", next_gen),
                        &replacements[i].v_ssf_oid));
      SIGSET_ASSIGN_OR_RETURN(ssf_live, state.ssf->CompactTo(sig, oid));
      SIGSET_ASSIGN_OR_RETURN(replacements[i].ssf,
                              SequentialSignatureFile::CreateFromExisting(
                                  spec.sig, sig, oid, ssf_live));
    }
    if (state.bssf != nullptr) {
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * slices,
          OpenVersioned(GenName(prefix + ".slices", next_gen),
                        &replacements[i].v_bssf_slices));
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * oid,
          OpenVersioned(GenName(prefix + ".slices.oid", next_gen),
                        &replacements[i].v_bssf_oid));
      SIGSET_ASSIGN_OR_RETURN(bssf_live, state.bssf->CompactTo(slices, oid));
      SIGSET_ASSIGN_OR_RETURN(replacements[i].bssf,
                              BitSlicedSignatureFile::CreateFromExisting(
                                  spec.sig, options_.capacity, slices, oid,
                                  spec.bssf_mode, bssf_live));
    }
    if (state.ssf != nullptr && state.bssf != nullptr &&
        ssf_live != bssf_live) {
      return Status::Internal(
          "compaction live-count mismatch between facilities");
    }
  }
  // With a WAL, note the compaction in the log before swapping: replay
  // treats the record as a no-op (recovery rebuilds facilities from the
  // store, which is compaction-order independent), but it keeps the strict
  // lsn sequence aligned with the operations the checkpoint below covers.
  if (wal_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(
        wal_->AppendAndCommit(LogRecord::CompactCommit(next_gen)).status());
  }
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (replacements[i].ssf != nullptr) {
      attrs_[i].ssf = std::move(replacements[i].ssf);
      attrs_[i].v_ssf_sig = replacements[i].v_ssf_sig;
      attrs_[i].v_ssf_oid = replacements[i].v_ssf_oid;
    }
    if (replacements[i].bssf != nullptr) {
      attrs_[i].bssf = std::move(replacements[i].bssf);
      attrs_[i].v_bssf_slices = replacements[i].v_bssf_slices;
      attrs_[i].v_bssf_oid = replacements[i].v_bssf_oid;
    }
  }
  generation_ = next_gen;
  // Publish the new generation before checkpointing: pinned readers keep
  // the old generation's wrappers (still alive in versioned_all_); new
  // snapshots see the compacted files.
  PublishSnapshot();
  return Checkpoint();
}

Status Database::ReplayLog(const std::vector<LogRecord>& records) {
  // Pass 1: an Abort marks its target record as rolled back.  The engine
  // poisons itself after the first failed apply, so any log tail carries at
  // most one aborted record — but the set keeps this general.
  std::vector<uint64_t> aborted;
  for (const LogRecord& rec : records) {
    if (rec.type == LogRecordType::kAbort) aborted.push_back(rec.ref_lsn);
  }
  auto is_aborted = [&aborted](uint64_t lsn) {
    for (uint64_t a : aborted) {
      if (a == lsn) return true;
    }
    return false;
  };
  // Pass 2: store-level redo in lsn order (see SetIndex::ReplayLog);
  // entries carry one ElementSet per attribute.
  for (const LogRecord& rec : records) {
    const bool rolled_back = is_aborted(rec.lsn);
    switch (rec.type) {
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kBatch:
        for (const LogEntry& e : rec.inserts) {
          SIGSET_RETURN_IF_ERROR(
              rolled_back ? store_->ReplayEnsureAbsent(e.oid)
                          : store_->ReplayEnsurePresent(e.oid, e.sets));
        }
        for (const LogEntry& e : rec.deletes) {
          SIGSET_RETURN_IF_ERROR(
              rolled_back ? store_->ReplayEnsurePresent(e.oid, e.sets)
                          : store_->ReplayEnsureAbsent(e.oid));
        }
        break;
      case LogRecordType::kCompactCommit:
        // Facilities are rebuilt from the store below; whether the crashed
        // run compacted first cannot change the rebuilt state.
        break;
      case LogRecordType::kAbort:
        break;
    }
  }
  return Status::OK();
}

Status Database::RebuildFacilitiesFromStore() {
  // The recovered store is the single source of truth: recount everything
  // and rebuild each attribute's facilities from one live scan.
  std::vector<Oid> oids;
  std::vector<std::vector<ElementSet>> per_attr_sets(attrs_.size());
  for (AttributeState& state : attrs_) state.total_elements = 0;
  SIGSET_RETURN_IF_ERROR(store_->ForEachLive(
      [&](Oid oid, const std::vector<ElementSet>& sets) {
        oids.push_back(oid);
        for (size_t i = 0; i < attrs_.size(); ++i) {
          per_attr_sets[i].push_back(sets[i]);
          attrs_[i].total_elements += sets[i].size();
          for (uint64_t element : sets[i]) {
            attrs_[i].domain_sketch.Add(element);
          }
        }
        return Status::OK();
      }));
  store_->RecoverCount(oids.size());
  const uint64_t live = oids.size();

  for (size_t i = 0; i < attrs_.size(); ++i) {
    const AttributeOptions& spec = options_.attributes[i];
    AttributeState& state = attrs_[i];
    const std::string prefix = name_ + "." + spec.name;
    // SSF/BSSF: build pristine copies in memory, then CompactTo the real
    // generation files, wiping whatever stale or torn state the crashed run
    // left there (see SetIndex::RebuildFacilitiesFromStore for why
    // rebuilding in place via Insert would be wrong).
    if (spec.maintain_ssf) {
      InMemoryPageFile tmp_sig("recover." + spec.name + ".sig");
      InMemoryPageFile tmp_oid("recover." + spec.name + ".sig.oid");
      SIGSET_ASSIGN_OR_RETURN(
          std::unique_ptr<SequentialSignatureFile> tmp,
          SequentialSignatureFile::Create(spec.sig, &tmp_sig, &tmp_oid));
      for (size_t v = 0; v < live; ++v) {
        SIGSET_RETURN_IF_ERROR(tmp->Insert(oids[v], per_attr_sets[i][v]));
      }
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * sig,
          OpenVersioned(GenName(prefix + ".sig", generation_),
                        &state.v_ssf_sig));
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * oid,
          OpenVersioned(GenName(prefix + ".sig.oid", generation_),
                        &state.v_ssf_oid));
      SIGSET_ASSIGN_OR_RETURN(uint64_t packed, tmp->CompactTo(sig, oid));
      if (packed != live) {
        return Status::Internal("ssf rebuild count mismatch");
      }
      SIGSET_ASSIGN_OR_RETURN(state.ssf,
                              SequentialSignatureFile::CreateFromExisting(
                                  spec.sig, sig, oid, live));
    }
    if (spec.maintain_bssf) {
      InMemoryPageFile tmp_slices("recover." + spec.name + ".slices");
      InMemoryPageFile tmp_oid("recover." + spec.name + ".slices.oid");
      SIGSET_ASSIGN_OR_RETURN(
          std::unique_ptr<BitSlicedSignatureFile> tmp,
          BitSlicedSignatureFile::Create(spec.sig, options_.capacity,
                                         &tmp_slices, &tmp_oid,
                                         spec.bssf_mode));
      for (size_t v = 0; v < live; ++v) {
        SIGSET_RETURN_IF_ERROR(tmp->Insert(oids[v], per_attr_sets[i][v]));
      }
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * slices,
          OpenVersioned(GenName(prefix + ".slices", generation_),
                        &state.v_bssf_slices));
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * oid,
          OpenVersioned(GenName(prefix + ".slices.oid", generation_),
                        &state.v_bssf_oid));
      SIGSET_ASSIGN_OR_RETURN(uint64_t packed, tmp->CompactTo(slices, oid));
      if (packed != live) {
        return Status::Internal("bssf rebuild count mismatch");
      }
      SIGSET_ASSIGN_OR_RETURN(
          state.bssf, BitSlicedSignatureFile::CreateFromExisting(
                          spec.sig, options_.capacity, slices, oid,
                          spec.bssf_mode, live));
    }
    if (spec.maintain_nix) {
      // Reset to an empty tree (orphaning whatever pages the crashed run
      // left) and bulk-build from the live scan.
      SIGSET_ASSIGN_OR_RETURN(PageFile * nix_file,
                              OpenVersioned(prefix + ".nix", &state.v_nix));
      SIGSET_ASSIGN_OR_RETURN(
          state.nix, NestedIndex::CreateResetting(nix_file, spec.nix_fanout));
      SIGSET_RETURN_IF_ERROR(state.nix->BulkBuild(oids, per_attr_sets[i]));
    }
  }
  return Status::OK();
}

StatusOr<size_t> Database::AttributeIndex(const std::string& attribute) const {
  for (size_t i = 0; i < options_.attributes.size(); ++i) {
    if (options_.attributes[i].name == attribute) return i;
  }
  return Status::NotFound("no such attribute: " + attribute);
}

int64_t Database::DomainEstimate(size_t attr) const {
  if (options_.attributes[attr].domain_estimate > 0) {
    return options_.attributes[attr].domain_estimate;
  }
  int64_t estimate = static_cast<int64_t>(
      std::llround(attrs_[attr].domain_sketch.Estimate()));
  return std::max<int64_t>(estimate, 2);
}

Database::ModelView Database::ModelFor(size_t attr) const {
  const AttributeOptions& spec = options_.attributes[attr];
  const AttributeState& state = attrs_[attr];
  ModelView mv{DatabaseParams{}, SignatureParams{spec.sig.f, spec.sig.m},
               NixParams{}, 1};
  mv.db.n = std::max<int64_t>(1, static_cast<int64_t>(num_objects()));
  mv.db.v = DomainEstimate(attr);
  mv.nix.fanout = spec.nix_fanout;
  mv.dt = num_objects() == 0
              ? 1
              : std::max<int64_t>(
                    1, static_cast<int64_t>(std::llround(
                           static_cast<double>(state.total_elements) /
                           static_cast<double>(num_objects()))));
  if (mv.db.v < mv.dt + 1) mv.db.v = mv.dt + 1;  // combinatorics need V >= Dt
  return mv;
}

StatusOr<AccessPathChoice> Database::PlanPredicate(
    size_t attr, const SetPredicate& predicate, double* cost) const {
  const AttributeState& state = attrs_[attr];
  const ModelView mv = ModelFor(attr);
  QueryKind ck = CandidateKind(predicate.kind);
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<AccessPathChoice> choices,
      AdviseAccessPaths(mv.db, mv.sig, mv.nix, mv.dt,
                        static_cast<int64_t>(predicate.query.size()), ck,
                        /*allow_smart=*/true));
  for (const AccessPathChoice& choice : choices) {
    if (choice.facility == "ssf" && state.ssf == nullptr) continue;
    if (choice.facility == "bssf" && state.bssf == nullptr) continue;
    if (choice.facility == "nix" && state.nix == nullptr) continue;
    *cost = choice.cost_pages;
    return choice;
  }
  return Status::Internal("no maintained facility for attribute");
}

StatusOr<std::vector<Oid>> Database::DriverCandidates(
    size_t attr, const AccessPathChoice& plan, QueryKind candidate_kind,
    const ElementSet& query) {
  AttributeState& state = attrs_[attr];
  const ParallelExecutionContext* ctx = execution_context();
  if (plan.facility == "ssf") {
    SIGSET_ASSIGN_OR_RETURN(CandidateResult result,
                            state.ssf->Candidates(candidate_kind, query));
    return result.oids;
  }
  if (plan.facility == "nix") {
    if (plan.param > 0 && candidate_kind == QueryKind::kSuperset) {
      SIGSET_ASSIGN_OR_RETURN(
          CandidateResult result,
          state.nix->CandidatesSmartSuperset(
              query, static_cast<size_t>(plan.param)));
      return result.oids;
    }
    SIGSET_ASSIGN_OR_RETURN(CandidateResult result,
                            state.nix->Candidates(candidate_kind, query));
    return result.oids;
  }
  // bssf — slice scans fan out over the pool.
  if (plan.param > 0 && candidate_kind == QueryKind::kSuperset) {
    BitVector sig = MakePartialQuerySignature(
        query, static_cast<size_t>(plan.param), state.bssf->config());
    SIGSET_ASSIGN_OR_RETURN(std::vector<uint64_t> slots,
                            state.bssf->SupersetCandidateSlots(sig, ctx));
    return state.bssf->ResolveSlots(slots);
  }
  if (plan.param > 0 && candidate_kind == QueryKind::kSubset) {
    BitVector sig = MakeSetSignature(query, state.bssf->config());
    SIGSET_ASSIGN_OR_RETURN(
        std::vector<uint64_t> slots,
        state.bssf->SubsetCandidateSlots(
            sig, static_cast<size_t>(plan.param), ctx));
    return state.bssf->ResolveSlots(slots);
  }
  SIGSET_ASSIGN_OR_RETURN(CandidateResult result,
                          state.bssf->Candidates(candidate_kind, query, ctx));
  return result.oids;
}

StatusOr<DatabaseQueryResult> Database::Query(
    const std::vector<SetPredicate>& predicates) {
  return QueryInternal(predicates, nullptr, nullptr, nullptr, nullptr);
}

StatusOr<DatabaseQueryResult> Database::QueryInternal(
    const std::vector<SetPredicate>& predicates, QueryTrace* trace,
    AccessPathChoice* chosen_plan, size_t* chosen_attr,
    SetPredicate* chosen_pred) {
  // A poisoned database may hold partially applied facility state; refuse
  // to serve queries from it.
  if (!poison_.ok()) return poison_;
  if (predicates.empty()) {
    return Status::InvalidArgument("at least one predicate required");
  }
  // Normalize queries and resolve attribute indexes.
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

  // With telemetry on, plain queries run with an internal trace feeding the
  // drift watchdog (tracing only snapshots IoStats; page counts are
  // identical either way).
  QueryTrace telemetry_trace;
  if (recorder_ != nullptr && trace == nullptr) trace = &telemetry_trace;

  // Pick the cheapest predicate as the candidate driver.
  size_t driver = 0;
  double best_cost = 0;
  AccessPathChoice driver_plan;
  for (size_t i = 0; i < preds.size(); ++i) {
    double cost = 0;
    SIGSET_ASSIGN_OR_RETURN(AccessPathChoice plan,
                            PlanPredicate(attr_index[i], preds[i], &cost));
    if (i == 0 || cost < best_cost) {
      best_cost = cost;
      driver = i;
      driver_plan = plan;
    }
  }

  if (chosen_plan != nullptr) *chosen_plan = driver_plan;
  if (chosen_attr != nullptr) *chosen_attr = attr_index[driver];
  if (chosen_pred != nullptr) *chosen_pred = preds[driver];
  SetAccessFacility* driver_facility = nullptr;
  if (trace != nullptr) {
    AttributeState& ds = attrs_[attr_index[driver]];
    driver_facility = driver_plan.facility == "ssf"
                          ? static_cast<SetAccessFacility*>(ds.ssf.get())
                          : driver_plan.facility == "bssf"
                                ? static_cast<SetAccessFacility*>(ds.bssf.get())
                                : static_cast<SetAccessFacility*>(ds.nix.get());
    trace->plan = preds[driver].attribute + " via " + driver_plan.facility +
                  " " + driver_plan.strategy;
    trace->kind = QueryKindName(preds[driver].kind);
    trace->dq = static_cast<int64_t>(preds[driver].query.size());
  }

  TraceTimer query_timer;  // feeds the latency histogram
  IoSnapshots sel_before;
  TraceTimer sel_timer(trace != nullptr);
  if (trace != nullptr) sel_before = driver_facility->StageStats();
  IoStats before = storage_->TotalStats();
  StatusOr<std::vector<Oid>> selected =
      DriverCandidates(attr_index[driver], driver_plan,
                       CandidateKind(preds[driver].kind),
                       preds[driver].query);
  if (!selected.ok()) {
    if (recorder_ != nullptr) {
      RecordOpTelemetry(FlightOp::kQuery, "query.latency_us", query_timer,
                        before, selected.status(),
                        FlightRecorder::Fingerprint(
                            static_cast<int>(preds[driver].kind),
                            preds[driver].query));
    }
    return selected.status();
  }
  std::vector<Oid> candidates = std::move(selected).value();
  IoStats resolve_before;
  TraceTimer resolve_timer(trace != nullptr);
  if (trace != nullptr) {
    TraceSpan* span = AddSnapshotStage(trace, "candidate selection",
                                       sel_before,
                                       driver_facility->StageStats());
    span->wall_ms = sel_timer.ElapsedMs();
    span->candidates = static_cast<int64_t>(candidates.size());
    resolve_before = store_->stats();
  }

  // Resolution: one fetch per candidate, all predicates checked.  With a
  // pool, contiguous candidate ranges are resolved concurrently through
  // thread-local IoStats (merged below), so the kept-OID order and the
  // page-access total match the serial loop.
  DatabaseQueryResult out;
  out.num_candidates = candidates.size();
  auto check_all = [&](const MultiSetObject& obj) {
    for (size_t i = 0; i < preds.size(); ++i) {
      if (!Satisfies(obj.attrs[attr_index[i]], preds[i].kind,
                     preds[i].query)) {
        return false;
      }
    }
    return true;
  };
  const ParallelExecutionContext* ctx = execution_context();
  const size_t workers =
      ctx == nullptr ? 1 : ctx->WorkersFor(candidates.size());
  if (workers <= 1) {
    for (Oid oid : candidates) {
      StatusOr<MultiSetObject> obj = store_->Get(oid);
      if (!obj.ok()) {
        // A candidate with no stored object is a false drop, not an error:
        // crash recovery rolls the indexes back to a checkpoint that can
        // still reference objects whose store delete already committed.
        if (obj.status().code() == StatusCode::kNotFound) {
          ++out.num_false_drops;
          continue;
        }
        if (recorder_ != nullptr) {
          RecordOpTelemetry(FlightOp::kQuery, "query.latency_us", query_timer,
                            before, obj.status(),
                            FlightRecorder::Fingerprint(
                                static_cast<int>(preds[driver].kind),
                                preds[driver].query));
        }
        return obj.status();
      }
      if (check_all(*obj)) {
        out.oids.push_back(oid);
      } else {
        ++out.num_false_drops;
      }
    }
  } else {
    struct WorkerState {
      std::vector<Oid> kept;
      uint64_t false_drops = 0;
      uint64_t processed = 0;
      double wall_ms = 0.0;
      IoStats io;
      Status status;
    };
    std::vector<WorkerState> states(workers);
    ctx->pool->ParallelFor(
        candidates.size(), workers, [&](size_t w, size_t begin, size_t end) {
          WorkerState& ws = states[w];
          TraceTimer worker_timer(trace != nullptr);
          ws.processed = end - begin;
          for (size_t i = begin; i < end; ++i) {
            StatusOr<MultiSetObject> obj = store_->Get(candidates[i], &ws.io);
            if (!obj.ok()) {
              // Same tolerance as the serial loop: a store-missing
              // candidate counts as a false drop.
              if (obj.status().code() == StatusCode::kNotFound) {
                ++ws.false_drops;
                continue;
              }
              ws.status = obj.status();
              return;
            }
            if (check_all(*obj)) {
              ws.kept.push_back(candidates[i]);
            } else {
              ++ws.false_drops;
            }
          }
          if (trace != nullptr) ws.wall_ms = worker_timer.ElapsedMs();
        });
    for (const WorkerState& ws : states) store_->stats() += ws.io;
    std::vector<Status> statuses;
    statuses.reserve(states.size());
    for (const WorkerState& ws : states) statuses.push_back(ws.status);
    const Status merged = MergeWorkerStatuses(statuses);
    if (!merged.ok()) {
      if (recorder_ != nullptr) {
        RecordOpTelemetry(FlightOp::kQuery, "query.latency_us", query_timer,
                          before, merged,
                          FlightRecorder::Fingerprint(
                              static_cast<int>(preds[driver].kind),
                              preds[driver].query));
      }
      return merged;
    }
    for (WorkerState& ws : states) {
      out.oids.insert(out.oids.end(), ws.kept.begin(), ws.kept.end());
      out.num_false_drops += ws.false_drops;
    }
    if (trace != nullptr) {
      const IoStats delta = store_->stats() - resolve_before;
      TraceSpan* span = trace->AddStage("resolution");
      span->page_reads = delta.reads();
      span->page_writes = delta.writes();
      span->wall_ms = resolve_timer.ElapsedMs();
      span->candidates = static_cast<int64_t>(out.num_candidates);
      span->false_drops = static_cast<int64_t>(out.num_false_drops);
      // One timed child per worker: the Perfetto exporter renders these as
      // parallel tracks, making resolve skew visible.
      for (size_t w = 0; w < states.size(); ++w) {
        TraceSpan child;
        child.name = "worker " + std::to_string(w);
        child.page_reads = states[w].io.reads();
        child.page_writes = states[w].io.writes();
        child.pages_skipped = states[w].io.skips();
        child.pages_cow = states[w].io.cows();
        child.pages_hot = states[w].io.hots();
        child.wall_ms = states[w].wall_ms;
        child.candidates = static_cast<int64_t>(states[w].processed);
        child.false_drops = static_cast<int64_t>(states[w].false_drops);
        span->children.push_back(std::move(child));
      }
    }
  }
  if (workers <= 1 && trace != nullptr) {
    const IoStats delta = store_->stats() - resolve_before;
    TraceSpan* span = trace->AddStage("resolution");
    span->page_reads = delta.reads();
    span->page_writes = delta.writes();
    span->wall_ms = resolve_timer.ElapsedMs();
    span->candidates = static_cast<int64_t>(out.num_candidates);
    span->false_drops = static_cast<int64_t>(out.num_false_drops);
  }
  out.driver = preds[driver].attribute + " via " + driver_plan.facility +
               " " + driver_plan.strategy;
  out.page_accesses = (storage_->TotalStats() - before).total();

  // Registry bookkeeping (memory-only; page counts unaffected).
  const std::string prefix = "query." + driver_plan.facility;
  metrics_->counter("query.count")->Increment();
  metrics_->counter(prefix + ".count")->Increment();
  metrics_->counter(prefix + ".candidates")->Increment(out.num_candidates);
  metrics_->counter(prefix + ".false_drops")->Increment(out.num_false_drops);
  metrics_->histogram("query.pages")->Record(out.page_accesses);
  metrics_->histogram("query.latency_us")
      ->Record(static_cast<uint64_t>(query_timer.ElapsedMs() * 1000.0));

  if (recorder_ != nullptr) {
    metrics_
        ->histogram("query." +
                    std::string(QueryKindName(preds[driver].kind)) +
                    ".latency_us")
        ->Record(static_cast<uint64_t>(query_timer.ElapsedMs() * 1000.0));
    FlightEvent event;
    event.op = FlightOp::kQuery;
    event.fingerprint = FlightRecorder::Fingerprint(
        static_cast<int>(preds[driver].kind), preds[driver].query);
    event.epoch = current_epoch();
    event.wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
    event.SetDelta(storage_->TotalStats() - before);
    event.SetDetail(out.driver);
    recorder_->Record(event);
  }
  if (trace != nullptr) {
    AttachPredictions(trace, driver_plan, attr_index[driver], preds[driver]);
    if (watchdog_ != nullptr) watchdog_->ObserveTrace(*trace);
  }
  return out;
}

void Database::AttachPredictions(QueryTrace* trace,
                                 const AccessPathChoice& chosen, size_t attr,
                                 const SetPredicate& pred) const {
  // Predictions cover the driver predicate: candidate selection is priced
  // exactly; the resolution prediction assumes the driver alone (the other
  // conjuncts are checked in memory on the already-fetched object).
  const ModelView mv = ModelFor(attr);
  const CostBreakdown bd =
      BreakdownForChoice(mv.db, mv.sig, mv.nix, mv.dt,
                         static_cast<int64_t>(pred.query.size()), pred.kind,
                         chosen);
  if (bd.total() <= 0) return;
  trace->predicted_total = bd.total();
  for (TraceSpan& stage : trace->mutable_stages()) {
    if (stage.name == "candidate selection") {
      stage.predicted_pages = bd.candidate_selection + bd.oid_lookup;
      for (TraceSpan& child : stage.children) {
        child.predicted_pages = child.name == "oid lookup"
                                    ? bd.oid_lookup
                                    : bd.candidate_selection;
      }
    } else if (stage.name == "resolution") {
      stage.predicted_pages = bd.resolution;
    }
  }
}

StatusOr<DatabaseExplainResult> Database::Explain(
    const std::vector<SetPredicate>& predicates) {
  DatabaseExplainResult out;
  AccessPathChoice plan;
  size_t attr = 0;
  SetPredicate pred;
  SIGSET_ASSIGN_OR_RETURN(
      out.result, QueryInternal(predicates, &out.trace, &plan, &attr, &pred));
  // Per-stage model predictions are attached inside QueryInternal (shared
  // with the telemetry-internal traces feeding the drift watchdog).
  out.text = RenderExplain(out.trace);
  out.json = out.trace.ToJson();
  return out;
}

// --- set-containment joins (R ⋈⊆ S) ---------------------------------------

StatusOr<DatabaseJoinResult> Database::JoinInternal(size_t r_attr,
                                                    size_t s_attr,
                                                    const JoinSpec& spec,
                                                    QueryTrace* trace) {
  if (!poison_.ok()) return poison_;

  QueryTrace telemetry_trace;
  if (recorder_ != nullptr && trace == nullptr) trace = &telemetry_trace;

  const ModelView mv_r = ModelFor(r_attr);
  const ModelView mv_s = ModelFor(s_attr);

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

  // Both sides project their attribute out of the shared object store; a
  // join scans its live objects at most twice (once per side).
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
    // One nested-loop probe = the single-predicate superset selection the
    // conjunction evaluator would run, resolved against the store.
    SetPredicate pred{options_.attributes[s_attr].name, QueryKind::kSuperset,
                      query};
    double cost = 0;
    SIGSET_ASSIGN_OR_RETURN(AccessPathChoice plan,
                            PlanPredicate(s_attr, pred, &cost));
    SIGSET_ASSIGN_OR_RETURN(
        std::vector<Oid> candidates,
        DriverCandidates(s_attr, plan, QueryKind::kSuperset, query));
    QueryResult qr;
    qr.num_candidates = candidates.size();
    for (Oid oid : candidates) {
      StatusOr<MultiSetObject> obj = store_->Get(oid);
      if (!obj.ok()) {
        if (obj.status().code() == StatusCode::kNotFound) {
          ++qr.num_false_drops;  // same tolerance as the resolver
          continue;
        }
        return obj.status();
      }
      if (Satisfies(obj->attrs[s_attr], QueryKind::kSuperset, query)) {
        qr.oids.push_back(oid);
      } else {
        ++qr.num_false_drops;
      }
    }
    return qr;
  };

  const std::function<IoStats()> total_stats = [this]() {
    return storage_->TotalStats();
  };

  const std::string plan_name =
      options_.attributes[r_attr].name + " in-subset " +
      options_.attributes[s_attr].name + " via " +
      JoinStrategyName(resolved.strategy);
  if (trace != nullptr) {
    trace->plan = plan_name;
    trace->kind = "join-subset";
    trace->dq = mv_r.dt;
  }

  TraceTimer timer;
  IoStats before = storage_->TotalStats();
  StatusOr<JoinResult> ran = sigsetdb::ExecuteSetJoin(
      r_acc, s_acc, options_.attributes[r_attr].sig, resolved,
      execution_context(), trace, total_stats);
  if (!ran.ok()) {
    if (recorder_ != nullptr) {
      RecordOpTelemetry(FlightOp::kJoin, "join.latency_us", timer, before,
                        ran.status());
    }
    return ran.status();
  }
  JoinResult result = std::move(ran).value();
  IoStats delta = storage_->TotalStats() - before;

  metrics_->counter("join.count")->Increment();
  metrics_->counter("join.pairs")->Increment(result.pairs.size());
  metrics_->counter("join.candidate_pairs")
      ->Increment(result.num_candidate_pairs);
  metrics_->counter("join.false_drop_pairs")
      ->Increment(result.num_false_drop_pairs);
  metrics_->counter("join.probes")->Increment(result.num_probes);
  metrics_->histogram("join.pages")->Record(delta.total());
  metrics_->histogram("join.latency_us")
      ->Record(static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));

  DatabaseJoinResult out;
  out.plan = plan_name;
  out.page_accesses = delta.total();
  out.join = std::move(result);

  if (recorder_ != nullptr) {
    FlightEvent event;
    event.op = FlightOp::kJoin;
    event.epoch = current_epoch();
    event.wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
    event.SetDelta(delta);
    event.SetDetail(out.plan);
    recorder_->Record(event);
  }
  if (trace != nullptr) {
    // Per-stage predictions from the join cost model (stage names are the
    // executor's).  The drift watchdog stays selection-only.
    StatusOr<JoinCostBreakdown> bd = BreakdownForJoinStrategy(
        mv_r.db, mv_r.dt, mv_s.db, mv_s.dt, mv_r.sig, mv_s.nix,
        resolved.strategy);
    if (bd.ok() && bd->total() > 0) {
      trace->predicted_total = bd->total();
      for (TraceSpan& stage : trace->mutable_stages()) {
        if (stage.name == "r scan") {
          stage.predicted_pages = bd->r_scan;
        } else if (stage.name == "s scan") {
          stage.predicted_pages = bd->s_scan;
        } else if (stage.name == "probe loop") {
          stage.predicted_pages = bd->probe;
        }
      }
    }
  }
  return out;
}

StatusOr<DatabaseJoinResult> Database::ExecuteSetJoin(
    const std::string& r_attribute, const std::string& s_attribute,
    const JoinSpec& spec) {
  SIGSET_ASSIGN_OR_RETURN(size_t r_attr, AttributeIndex(r_attribute));
  SIGSET_ASSIGN_OR_RETURN(size_t s_attr, AttributeIndex(s_attribute));
  return JoinInternal(r_attr, s_attr, spec, nullptr);
}

StatusOr<DatabaseJoinExplainResult> Database::ExplainSetJoin(
    const std::string& r_attribute, const std::string& s_attribute,
    const JoinSpec& spec) {
  SIGSET_ASSIGN_OR_RETURN(size_t r_attr, AttributeIndex(r_attribute));
  SIGSET_ASSIGN_OR_RETURN(size_t s_attr, AttributeIndex(s_attribute));
  DatabaseJoinExplainResult out;
  SIGSET_ASSIGN_OR_RETURN(out.result,
                          JoinInternal(r_attr, s_attr, spec, &out.trace));
  out.text = RenderExplain(out.trace);
  out.json = out.trace.ToJson();
  return out;
}

}  // namespace sigsetdb
