#include "db/set_index.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "db/epoch.h"
#include "db/snapshot.h"
#include "obs/explain.h"
#include "storage/versioned_page_file.h"
#include "util/failpoint.h"

namespace sigsetdb {

SetIndex::SetIndex(StorageManager* storage, Options options)
    : storage_(storage), options_(options) {
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
// Statuses after which the instance's state can no longer be trusted; the
// first one triggers the one-shot flight-recorder postmortem.
bool IsFatalStatus(const Status& status) {
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

void SetIndex::RecordOpTelemetry(FlightOp op, const char* metric,
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
  if (!status.ok() && IsFatalStatus(status)) NoteFatal(status);
}

void SetIndex::NoteFatal(const Status& cause) {
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
    // Plain stdio, never the page layer: the fatal status may mean the page
    // layer itself is what failed.
    (void)recorder_->WritePostmortem(
        options_.postmortem_dir + "/" + name_ + ".postmortem", reason);
  }
}

Status SetIndex::Checkpoint() {
  if (recorder_ == nullptr) return CheckpointImpl();
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  Status status = CheckpointImpl();
  RecordOpTelemetry(FlightOp::kCheckpoint, "op.checkpoint.latency_us", timer,
                    before, status);
  return status;
}

StatusOr<Oid> SetIndex::Insert(const ElementSet& set_value) {
  if (recorder_ == nullptr) return InsertImpl(set_value);
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  StatusOr<Oid> out = InsertImpl(set_value);
  RecordOpTelemetry(FlightOp::kInsert, "op.insert.latency_us", timer, before,
                    out.status());
  return out;
}

Status SetIndex::Delete(Oid oid) {
  if (recorder_ == nullptr) return DeleteImpl(oid);
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  Status status = DeleteImpl(oid);
  RecordOpTelemetry(FlightOp::kDelete, "op.delete.latency_us", timer, before,
                    status);
  return status;
}

StatusOr<std::vector<Oid>> SetIndex::ApplyBatch(const WriteBatch& batch) {
  if (recorder_ == nullptr) return ApplyBatchImpl(batch);
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  StatusOr<std::vector<Oid>> out = ApplyBatchImpl(batch);
  RecordOpTelemetry(FlightOp::kBatch, "op.batch.latency_us", timer, before,
                    out.status());
  return out;
}

Status SetIndex::Compact() {
  if (recorder_ == nullptr) return CompactImpl();
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  Status status = CompactImpl();
  RecordOpTelemetry(FlightOp::kCompact, "op.compact.latency_us", timer,
                    before, status);
  return status;
}

SetIndex::~SetIndex() {
  // Stop the reclaimer before the wrappers it calls into are destroyed.
  // Pinned snapshots must already be gone (documented contract).
  if (epochs_ != nullptr) epochs_->Shutdown();
}

StatusOr<PageFile*> SetIndex::OpenVersioned(const std::string& file_name,
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

Status SetIndex::FlushCurrentVersions() {
  for (VersionedPageFile* v : {v_objects_, v_ssf_sig_, v_ssf_oid_,
                               v_bssf_slices_, v_bssf_oid_, v_nix_}) {
    if (v != nullptr) SIGSET_RETURN_IF_ERROR(v->FlushToBase());
  }
  return Status::OK();
}

void SetIndex::PublishSnapshot() {
  if (epochs_ == nullptr) return;
  auto state = std::make_shared<SnapshotState>();
  state->epoch = epochs_->write_epoch();
  state->generation = generation_;
  state->num_objects = num_objects();
  state->num_attributes = 1;
  state->objects = v_objects_;
  SnapshotAttributeState attr;
  attr.maintain_ssf = ssf_ != nullptr;
  attr.maintain_bssf = bssf_ != nullptr;
  attr.maintain_nix = nix_ != nullptr;
  attr.sig = options_.sig;
  attr.nix_fanout = options_.nix_fanout;
  attr.capacity = options_.capacity;
  attr.domain_estimate = DomainEstimate();
  attr.total_elements = total_elements_;
  if (ssf_ != nullptr) {
    attr.num_signatures = ssf_->num_signatures();
    attr.num_live = ssf_->num_live();
  } else if (bssf_ != nullptr) {
    attr.num_signatures = bssf_->num_signatures();
    attr.num_live = bssf_->num_live();
  }
  if (nix_ != nullptr) {
    const BTree& tree = nix_->tree();
    attr.nix_root = tree.root();
    attr.nix_height = tree.height();
    attr.nix_leaves = tree.leaf_pages();
    attr.nix_internal = tree.internal_pages();
    attr.nix_overflow = tree.overflow_pages();
    attr.nix_empty_oids = nix_->empty_set_roster();
  }
  attr.ssf_sig = v_ssf_sig_;
  attr.ssf_oid = v_ssf_oid_;
  attr.bssf_slices = v_bssf_slices_;
  attr.bssf_oid = v_bssf_oid_;
  attr.nix = v_nix_;
  state->attrs.push_back(std::move(attr));
  epochs_->Publish(std::move(state));
}

StatusOr<std::unique_ptr<Snapshot>> SetIndex::GetSnapshot() {
  if (!poison_.ok()) return poison_;
  if (epochs_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshots disabled (Options::enable_snapshots)");
  }
  return Snapshot::Create(epochs_->Pin(), metrics_, recorder_.get());
}

uint64_t SetIndex::current_epoch() const {
  return epochs_ != nullptr ? epochs_->published() : 0;
}

StatusOr<std::unique_ptr<SetIndex>> SetIndex::Create(StorageManager* storage,
                                                     const std::string& name,
                                                     const Options& options) {
  if (!options.maintain_ssf && !options.maintain_bssf &&
      !options.maintain_nix) {
    return Status::InvalidArgument("enable at least one facility");
  }
  std::unique_ptr<SetIndex> index(new SetIndex(storage, options));
  index->name_ = name;
  SIGSET_ASSIGN_OR_RETURN(index->manifest_file_,
                          storage->OpenOrCreate(name + ".manifest"));
  SIGSET_ASSIGN_OR_RETURN(index->sketch_file_,
                          storage->OpenOrCreate(name + ".sketch"));
  SIGSET_ASSIGN_OR_RETURN(
      PageFile * objects,
      index->OpenVersioned(name + ".objects", &index->v_objects_));
  index->store_ = std::make_unique<ObjectStore>(objects);
  if (options.maintain_ssf) {
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * sig,
        index->OpenVersioned(name + ".ssf.sig", &index->v_ssf_sig_));
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * oid,
        index->OpenVersioned(name + ".ssf.oid", &index->v_ssf_oid_));
    SIGSET_ASSIGN_OR_RETURN(
        index->ssf_, SequentialSignatureFile::Create(options.sig, sig, oid));
    index->ssf_->set_skip_index_enabled(options.enable_skip_index);
  }
  if (options.maintain_bssf) {
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * slices,
        index->OpenVersioned(name + ".bssf.slices",
                             &index->v_bssf_slices_));
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * oid,
        index->OpenVersioned(name + ".bssf.oid", &index->v_bssf_oid_));
    SIGSET_ASSIGN_OR_RETURN(
        index->bssf_,
        BitSlicedSignatureFile::Create(options.sig, options.capacity, slices,
                                       oid, options.bssf_mode));
    index->bssf_->set_skip_index_enabled(options.enable_skip_index);
    index->bssf_->set_hot_tier_capacity(options.hot_tier_capacity);
    index->bssf_->set_hot_tier_enabled(options.enable_hot_tier);
  }
  if (options.maintain_nix) {
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * nix_file,
        index->OpenVersioned(name + ".nix", &index->v_nix_));
    SIGSET_ASSIGN_OR_RETURN(index->nix_,
                            NestedIndex::Create(nix_file, options.nix_fanout));
  }
  if (options.enable_wal) {
    SIGSET_ASSIGN_OR_RETURN(PageFile * wal_file,
                            storage->OpenOrCreate(name + ".wal"));
    SIGSET_ASSIGN_OR_RETURN(
        index->wal_, WriteAheadLog::Create(wal_file, 0, index->metrics_));
    index->wal_->set_group_commit_window(options.group_commit_window_us);
    // Checkpoint immediately so a crash before the first user checkpoint
    // still reopens: the manifest anchors replay at lsn 0.
    SIGSET_RETURN_IF_ERROR(index->Checkpoint());
  }
  index->PublishSnapshot();  // epoch 1: the empty index
  return index;
}

namespace {
// Manifest keys.
constexpr char kKeyGeneration[] = "compact_generation";
constexpr char kKeyObjects[] = "num_objects";
constexpr char kKeyElements[] = "total_elements";
constexpr char kKeySignatures[] = "num_signatures";
constexpr char kKeyNixRoot[] = "nix_root";
constexpr char kKeyNixHeight[] = "nix_height";
constexpr char kKeyNixLeaves[] = "nix_leaf_pages";
constexpr char kKeyNixInternal[] = "nix_internal_pages";
constexpr char kKeyNixOverflow[] = "nix_overflow_pages";
constexpr char kKeyNixFreeHead[] = "nix_free_head";
constexpr char kKeyNixFreePages[] = "nix_free_pages";
constexpr char kKeyF[] = "config_f";
constexpr char kKeyM[] = "config_m";
constexpr char kKeyFacilities[] = "config_facilities";
constexpr char kKeyWal[] = "config_wal";
// Every log record with lsn <= this value is reflected in the checkpoint;
// replay applies only records beyond it.  Missing (pre-WAL manifest) = 0.
constexpr char kKeyWalLsn[] = "wal_lsn";

uint64_t FacilityMask(const SetIndex::Options& options) {
  return (options.maintain_ssf ? 1u : 0u) |
         (options.maintain_bssf ? 2u : 0u) |
         (options.maintain_nix ? 4u : 0u);
}

// Compaction writes into generation-suffixed files ("<base>.g<N>"); the
// original name is generation 0.  StorageManager cannot delete files, so
// superseded generations simply stay behind (unreferenced by the manifest).
std::string GenName(const std::string& base, uint64_t generation) {
  if (generation == 0) return base;
  return base + ".g" + std::to_string(generation);
}
}  // namespace

Status SetIndex::CheckpointImpl() {
  SIGSET_FAILPOINT("set_index.checkpoint");
  if (!poison_.ok()) return poison_;
  // Quiescent invariant: every appended record has been committed (each
  // mutation commits before returning), so last_lsn() covers everything the
  // counters below reflect.
  const uint64_t wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
  Manifest::Values values;
  values[kKeyGeneration] = generation_;
  values[kKeyWal] = wal_ != nullptr ? 1 : 0;
  values[kKeyWalLsn] = wal_lsn;
  values[kKeyObjects] = num_objects();
  values[kKeyElements] = total_elements_;
  values[kKeyF] = static_cast<uint64_t>(options_.sig.f);
  values[kKeyM] = static_cast<uint64_t>(options_.sig.m);
  values[kKeyFacilities] = FacilityMask(options_);
  if (ssf_ != nullptr || bssf_ != nullptr) {
    uint64_t sigs = ssf_ != nullptr ? ssf_->num_signatures()
                                    : bssf_->num_signatures();
    values[kKeySignatures] = sigs;
  }
  if (nix_ != nullptr) {
    const BTree& tree = nix_->tree();
    values[kKeyNixRoot] = tree.root();
    values[kKeyNixHeight] = tree.height();
    values[kKeyNixLeaves] = tree.leaf_pages();
    values[kKeyNixInternal] = tree.internal_pages();
    values[kKeyNixOverflow] = tree.overflow_pages();
    values[kKeyNixFreeHead] = tree.free_list_head();
    values[kKeyNixFreePages] = tree.free_pages();
  }
  // The domain sketch's 4 KiB register file is exactly one page.
  if (sketch_file_ != nullptr &&
      domain_sketch_.num_registers() <= kPageSize) {
    if (sketch_file_->num_pages() == 0) {
      SIGSET_ASSIGN_OR_RETURN(PageId id, sketch_file_->Allocate());
      (void)id;
    }
    Page page;
    std::memcpy(page.data(), domain_sketch_.registers().data(),
                domain_sketch_.num_registers());
    SIGSET_RETURN_IF_ERROR(sketch_file_->Write(0, page));
  }
  // With snapshots on, committed page images live in the CoW chains; push
  // them through to the base files BEFORE the manifest commits to them, so
  // a reopen (replay included) never sees a manifest ahead of its data.
  SIGSET_RETURN_IF_ERROR(FlushCurrentVersions());
  SIGSET_RETURN_IF_ERROR(Manifest::Write(manifest_file_, values));
  // Manifest first, then log truncation: a crash between the two leaves
  // records <= wal_lsn in the log, and replay filters them out by lsn.
  if (wal_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(wal_->Truncate(wal_lsn));
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<SetIndex>> SetIndex::Open(StorageManager* storage,
                                                   const std::string& name,
                                                   const Options& options) {
  std::unique_ptr<SetIndex> index(new SetIndex(storage, options));
  index->name_ = name;
  SIGSET_ASSIGN_OR_RETURN(index->manifest_file_,
                          storage->OpenOrCreate(name + ".manifest"));
  SIGSET_ASSIGN_OR_RETURN(index->sketch_file_,
                          storage->OpenOrCreate(name + ".sketch"));
  if (index->sketch_file_->num_pages() > 0) {
    Page page;
    SIGSET_RETURN_IF_ERROR(index->sketch_file_->Read(0, &page));
    if (!index->domain_sketch_.LoadRegisters(
            page.data(), index->domain_sketch_.num_registers())) {
      return Status::Corruption("domain sketch size mismatch");
    }
  }
  SIGSET_ASSIGN_OR_RETURN(Manifest::Values values,
                          Manifest::Read(index->manifest_file_));
  SIGSET_ASSIGN_OR_RETURN(uint64_t f, Manifest::Get(values, kKeyF));
  SIGSET_ASSIGN_OR_RETURN(uint64_t m, Manifest::Get(values, kKeyM));
  SIGSET_ASSIGN_OR_RETURN(uint64_t mask, Manifest::Get(values,
                                                       kKeyFacilities));
  // Pre-WAL manifests have no config_wal key; they are WAL-off indexes.
  auto wal_flag = Manifest::Get(values, kKeyWal);
  const uint64_t checkpointed_wal = wal_flag.ok() ? *wal_flag : 0;
  if (f != options.sig.f || m != options.sig.m ||
      mask != FacilityMask(options) ||
      checkpointed_wal != (options.enable_wal ? 1u : 0u)) {
    return Status::FailedPrecondition(
        "options do not match the checkpointed configuration");
  }
  SIGSET_ASSIGN_OR_RETURN(uint64_t num_objects,
                          Manifest::Get(values, kKeyObjects));
  SIGSET_ASSIGN_OR_RETURN(index->total_elements_,
                          Manifest::Get(values, kKeyElements));
  SIGSET_ASSIGN_OR_RETURN(
      PageFile * objects,
      index->OpenVersioned(name + ".objects", &index->v_objects_));
  index->store_ = std::make_unique<ObjectStore>(objects);
  index->store_->RecoverCount(num_objects);
  // Manifests written before compaction existed have no generation key;
  // those indexes are generation 0 by definition.
  auto generation = Manifest::Get(values, kKeyGeneration);
  if (generation.ok()) index->generation_ = *generation;

  if (options.enable_wal) {
    auto ckpt_lsn = Manifest::Get(values, kKeyWalLsn);
    const uint64_t wal_lsn = ckpt_lsn.ok() ? *ckpt_lsn : 0;
    SIGSET_ASSIGN_OR_RETURN(PageFile * wal_file,
                            storage->OpenOrCreate(name + ".wal"));
    SIGSET_ASSIGN_OR_RETURN(WriteAheadLog::OpenResult scan,
                            WriteAheadLog::Open(wal_file, wal_lsn,
                                                index->metrics_));
    index->wal_ = std::move(scan.log);
    index->wal_->set_group_commit_window(options.group_commit_window_us);
    std::vector<LogRecord> to_replay;
    for (LogRecord& rec : scan.records) {
      if (rec.lsn > wal_lsn) to_replay.push_back(std::move(rec));
    }
    if (!to_replay.empty()) {
      // Acknowledged writes past the checkpoint: redo them against the
      // store, then rebuild every facility and counter from the store.
      // The facilities' own files may be arbitrarily stale or torn — they
      // are never opened through the normal path here.
      SIGSET_RETURN_IF_ERROR(index->ReplayLog(to_replay));
      SIGSET_RETURN_IF_ERROR(index->RebuildFacilitiesFromStore());
      if (index->metrics_ != nullptr) {
        index->metrics_->counter("wal.replayed_records")
            ->Increment(to_replay.size());
      }
      // Deliberately NO checkpoint here: recovery is read-only w.r.t. the
      // log, so replaying twice equals replaying once (idempotence is one
      // of the wal_log_test invariants).  The next explicit Checkpoint()
      // or Compact() truncates the log.
      objects->stats().Reset();
      index->PublishSnapshot();
      return index;
    }
  }
  if (options.maintain_ssf || options.maintain_bssf) {
    SIGSET_ASSIGN_OR_RETURN(uint64_t sigs,
                            Manifest::Get(values, kKeySignatures));
    if (options.maintain_ssf) {
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * sig,
          index->OpenVersioned(GenName(name + ".ssf.sig",
                                       index->generation_),
                               &index->v_ssf_sig_));
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * oid,
          index->OpenVersioned(GenName(name + ".ssf.oid",
                                       index->generation_),
                               &index->v_ssf_oid_));
      SIGSET_ASSIGN_OR_RETURN(index->ssf_,
                              SequentialSignatureFile::CreateFromExisting(
                                  options.sig, sig, oid, sigs));
      index->ssf_->set_skip_index_enabled(options.enable_skip_index);
    }
    if (options.maintain_bssf) {
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * slices,
          index->OpenVersioned(GenName(name + ".bssf.slices",
                                       index->generation_),
                               &index->v_bssf_slices_));
      SIGSET_ASSIGN_OR_RETURN(
          PageFile * oid,
          index->OpenVersioned(GenName(name + ".bssf.oid",
                                       index->generation_),
                               &index->v_bssf_oid_));
      SIGSET_ASSIGN_OR_RETURN(index->bssf_,
                              BitSlicedSignatureFile::CreateFromExisting(
                                  options.sig, options.capacity, slices, oid,
                                  options.bssf_mode, sigs));
      index->bssf_->set_skip_index_enabled(options.enable_skip_index);
      index->bssf_->set_hot_tier_capacity(options.hot_tier_capacity);
      index->bssf_->set_hot_tier_enabled(options.enable_hot_tier);
    }
  }
  if (options.maintain_nix) {
    SIGSET_ASSIGN_OR_RETURN(uint64_t root, Manifest::Get(values, kKeyNixRoot));
    SIGSET_ASSIGN_OR_RETURN(uint64_t height,
                            Manifest::Get(values, kKeyNixHeight));
    SIGSET_ASSIGN_OR_RETURN(uint64_t leaves,
                            Manifest::Get(values, kKeyNixLeaves));
    SIGSET_ASSIGN_OR_RETURN(uint64_t internal,
                            Manifest::Get(values, kKeyNixInternal));
    SIGSET_ASSIGN_OR_RETURN(uint64_t overflow,
                            Manifest::Get(values, kKeyNixOverflow));
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * nix_file,
        index->OpenVersioned(name + ".nix", &index->v_nix_));
    SIGSET_ASSIGN_OR_RETURN(
        index->nix_,
        NestedIndex::CreateFromExisting(
            nix_file, options.nix_fanout, static_cast<PageId>(root),
            static_cast<uint32_t>(height), leaves, internal, overflow));
    auto free_head = Manifest::Get(values, kKeyNixFreeHead);
    auto free_pages = Manifest::Get(values, kKeyNixFreePages);
    if (free_head.ok() && free_pages.ok()) {
      index->nix_->mutable_tree().RestoreFreeList(
          static_cast<PageId>(*free_head), *free_pages);
    }
  }
  index->PublishSnapshot();
  return index;
}

Status SetIndex::ApplyInsert(const ElementSet& normalized, Oid expected_oid) {
  SIGSET_ASSIGN_OR_RETURN(Oid oid, store_->Insert(normalized));
  if (expected_oid.valid() && oid != expected_oid) {
    return Status::Internal("store assigned " + oid.ToString() +
                            " but the log predicted " +
                            expected_oid.ToString());
  }
  if (ssf_ != nullptr) SIGSET_RETURN_IF_ERROR(ssf_->Insert(oid, normalized));
  if (bssf_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(bssf_->Insert(oid, normalized));
  }
  if (nix_ != nullptr) SIGSET_RETURN_IF_ERROR(nix_->Insert(oid, normalized));
  total_elements_ += normalized.size();
  for (uint64_t element : normalized) domain_sketch_.Add(element);
  return Status::OK();
}

Status SetIndex::ApplyDelete(Oid oid, const StoredObject& obj) {
  // De-index first, store delete LAST: a crash mid-delete then leaves the
  // object present in the store but (partially) missing from the indexes —
  // recovery rolls the indexes back to the checkpoint, and any candidate
  // list that still names the OID resolves against a live object.  The old
  // order (store delete first) could leave index entries dangling at a
  // missing object.
  if (ssf_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(ssf_->Remove(oid, obj.set_value));
  }
  if (bssf_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(bssf_->Remove(oid, obj.set_value));
  }
  if (nix_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(nix_->Remove(oid, obj.set_value));
  }
  SIGSET_RETURN_IF_ERROR(store_->Delete(oid));
  if (total_elements_ >= obj.set_value.size()) {
    total_elements_ -= obj.set_value.size();
  }
  return Status::OK();
}

Status SetIndex::AbortAndPoison(uint64_t lsn, const Status& cause) {
  // The record at `lsn` is durable but its apply failed partway: the
  // in-memory index no longer matches "fully applied".  Log an Abort so
  // recovery rolls the record back, and poison this instance — the only way
  // forward is a reopen, which replays the log against the store.  If the
  // Abort itself cannot commit, recovery will instead COMPLETE the record
  // (finishing the partial apply); either end state is consistent, and the
  // poisoned instance can't expose the in-between.
  (void)wal_->AppendAndCommit(LogRecord::Abort(lsn));
  poison_ = Status::FailedPrecondition(
      "index poisoned: apply of log record " + std::to_string(lsn) +
      " failed (" + cause.message() + "); reopen to recover");
  return cause;
}

StatusOr<Oid> SetIndex::InsertImpl(const ElementSet& set_value) {
  if (!poison_.ok()) return poison_;
  ElementSet normalized = set_value;
  NormalizeSet(&normalized);
  if (wal_ == nullptr) {
    SIGSET_ASSIGN_OR_RETURN(Oid oid, store_->Insert(normalized));
    if (ssf_ != nullptr) SIGSET_RETURN_IF_ERROR(ssf_->Insert(oid, normalized));
    if (bssf_ != nullptr) {
      SIGSET_RETURN_IF_ERROR(bssf_->Insert(oid, normalized));
    }
    if (nix_ != nullptr) SIGSET_RETURN_IF_ERROR(nix_->Insert(oid, normalized));
    total_elements_ += normalized.size();
    for (uint64_t element : normalized) domain_sketch_.Add(element);
    PublishSnapshot();
    return oid;
  }
  // Log-before-apply: predict the physical OID, commit the record, then
  // mutate.  The insert is acknowledged by the commit; the apply (or, after
  // a crash, replay) realizes it.
  SIGSET_ASSIGN_OR_RETURN(Oid predicted, store_->PeekNextOid(normalized));
  SIGSET_ASSIGN_OR_RETURN(
      uint64_t lsn,
      wal_->AppendAndCommit(LogRecord::SingleInsert(predicted, {normalized})));
  Status applied = ApplyInsert(normalized, predicted);
  if (!applied.ok()) return AbortAndPoison(lsn, applied);
  PublishSnapshot();
  return predicted;
}

Status SetIndex::DeleteImpl(Oid oid) {
  if (!poison_.ok()) return poison_;
  SIGSET_ASSIGN_OR_RETURN(StoredObject obj, store_->Get(oid));
  if (wal_ == nullptr) {
    SIGSET_RETURN_IF_ERROR(ApplyDelete(oid, obj));
    PublishSnapshot();
    return Status::OK();
  }
  // The record carries the victim's preimage so an aborted delete can be
  // resurrected at recovery.
  SIGSET_ASSIGN_OR_RETURN(
      uint64_t lsn,
      wal_->AppendAndCommit(LogRecord::SingleDelete(oid, {obj.set_value})));
  Status applied = ApplyDelete(oid, obj);
  if (!applied.ok()) return AbortAndPoison(lsn, applied);
  PublishSnapshot();
  return Status::OK();
}

StatusOr<std::vector<Oid>> SetIndex::ApplyBatchImpl(const WriteBatch& batch) {
  if (!poison_.ok()) return poison_;
  // Fetch delete victims up front (their set values drive the de-indexing);
  // this is also why deleting a same-batch insert is unsupported.
  std::vector<StoredObject> victims;
  victims.reserve(batch.deletes().size());
  for (Oid oid : batch.deletes()) {
    SIGSET_ASSIGN_OR_RETURN(StoredObject obj, store_->Get(oid));
    victims.push_back(std::move(obj));
  }

  std::vector<ElementSet> normalized_inserts;
  normalized_inserts.reserve(batch.inserts().size());
  for (const ElementSet& set_value : batch.inserts()) {
    ElementSet n = set_value;
    NormalizeSet(&n);
    normalized_inserts.push_back(std::move(n));
  }

  // One record covers the whole batch: it commits (and is acknowledged)
  // atomically — recovery applies all of it or, when aborted, none.
  uint64_t batch_lsn = 0;
  std::vector<Oid> predicted;
  if (wal_ != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(predicted, store_->PeekOids(normalized_inserts));
    std::vector<LogEntry> del_entries;
    del_entries.reserve(victims.size());
    for (size_t i = 0; i < victims.size(); ++i) {
      del_entries.push_back(
          LogEntry{batch.deletes()[i], {victims[i].set_value}});
    }
    std::vector<LogEntry> ins_entries;
    ins_entries.reserve(predicted.size());
    for (size_t i = 0; i < predicted.size(); ++i) {
      ins_entries.push_back(LogEntry{predicted[i], {normalized_inserts[i]}});
    }
    SIGSET_ASSIGN_OR_RETURN(
        batch_lsn,
        wal_->AppendAndCommit(LogRecord::Batch(std::move(del_entries),
                                               std::move(ins_entries))));
  }

  std::vector<Oid> new_oids;
  Status applied = ApplyBatchBody(batch, victims, normalized_inserts,
                                  predicted, &new_oids);
  if (!applied.ok()) {
    if (wal_ != nullptr) return AbortAndPoison(batch_lsn, applied);
    return applied;
  }
  PublishSnapshot();
  return new_oids;
}

Status SetIndex::ApplyBatchBody(const WriteBatch& batch,
                                const std::vector<StoredObject>& victims,
                                const std::vector<ElementSet>& normalized,
                                const std::vector<Oid>& predicted,
                                std::vector<Oid>* out_oids) {
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

  // One grouped application per facility: removes first so the slots they
  // free are reused by this batch's inserts.
  std::vector<BatchOp> ops;
  ops.reserve(batch.size());
  for (size_t i = 0; i < victims.size(); ++i) {
    ops.push_back(BatchOp{BatchOp::Kind::kRemove, batch.deletes()[i],
                          victims[i].set_value});
  }
  for (size_t i = 0; i < new_oids.size(); ++i) {
    ops.push_back(
        BatchOp{BatchOp::Kind::kInsert, new_oids[i], normalized[i]});
  }
  if (ssf_ != nullptr) SIGSET_RETURN_IF_ERROR(ssf_->ApplyBatch(ops));
  if (bssf_ != nullptr) SIGSET_RETURN_IF_ERROR(bssf_->ApplyBatch(ops));
  if (nix_ != nullptr) SIGSET_RETURN_IF_ERROR(nix_->ApplyBatch(ops));

  // Store deletes LAST — same crash ordering as Delete().
  for (Oid oid : batch.deletes()) {
    SIGSET_RETURN_IF_ERROR(store_->Delete(oid));
  }

  for (const StoredObject& victim : victims) {
    if (total_elements_ >= victim.set_value.size()) {
      total_elements_ -= victim.set_value.size();
    }
  }
  for (const ElementSet& n : normalized) {
    total_elements_ += n.size();
    for (uint64_t element : n) domain_sketch_.Add(element);
  }
  return Status::OK();
}

Status SetIndex::CompactImpl() {
  if (!poison_.ok()) return poison_;
  if (ssf_ == nullptr && bssf_ == nullptr) return CheckpointImpl();
  uint64_t next_gen = generation_ + 1;

  // Write the dense copies into the next generation's files.  CompactTo is
  // retryable: it overwrites from page 0, so a half-written target left by
  // an earlier crashed compaction is simply rewritten.
  std::unique_ptr<SequentialSignatureFile> new_ssf;
  std::unique_ptr<BitSlicedSignatureFile> new_bssf;
  // With snapshots on, the next generation gets its own CoW wrappers; the
  // old generation's wrappers stay alive (and registered) so snapshots
  // pinned before the swap keep reading the superseded files.
  VersionedPageFile* nv_ssf_sig = nullptr;
  VersionedPageFile* nv_ssf_oid = nullptr;
  VersionedPageFile* nv_bssf_slices = nullptr;
  VersionedPageFile* nv_bssf_oid = nullptr;
  uint64_t ssf_live = 0, bssf_live = 0;
  if (ssf_ != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * sig,
        OpenVersioned(GenName(name_ + ".ssf.sig", next_gen), &nv_ssf_sig));
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * oid,
        OpenVersioned(GenName(name_ + ".ssf.oid", next_gen), &nv_ssf_oid));
    SIGSET_ASSIGN_OR_RETURN(ssf_live, ssf_->CompactTo(sig, oid));
    SIGSET_ASSIGN_OR_RETURN(new_ssf,
                            SequentialSignatureFile::CreateFromExisting(
                                options_.sig, sig, oid, ssf_live));
    new_ssf->set_skip_index_enabled(options_.enable_skip_index);
  }
  if (bssf_ != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * slices,
        OpenVersioned(GenName(name_ + ".bssf.slices", next_gen),
                      &nv_bssf_slices));
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * oid,
        OpenVersioned(GenName(name_ + ".bssf.oid", next_gen),
                      &nv_bssf_oid));
    SIGSET_ASSIGN_OR_RETURN(bssf_live, bssf_->CompactTo(slices, oid));
    SIGSET_ASSIGN_OR_RETURN(new_bssf,
                            BitSlicedSignatureFile::CreateFromExisting(
                                options_.sig, options_.capacity, slices, oid,
                                options_.bssf_mode, bssf_live));
    new_bssf->set_skip_index_enabled(options_.enable_skip_index);
    new_bssf->set_hot_tier_capacity(options_.hot_tier_capacity);
    new_bssf->set_hot_tier_enabled(options_.enable_hot_tier);
  }
  if (ssf_ != nullptr && bssf_ != nullptr && ssf_live != bssf_live) {
    return Status::Internal("compaction live-count mismatch between facilities");
  }

  // With a WAL, note the compaction in the log before swapping: replay
  // treats the record as a no-op (recovery rebuilds facilities from the
  // store, which is compaction-order independent), but it keeps the strict
  // lsn sequence aligned with the operations the checkpoint below covers.
  if (wal_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(
        wal_->AppendAndCommit(LogRecord::CompactCommit(next_gen)).status());
  }

  // Swap and flip the manifest: the checkpoint's generation key is the
  // commit point.  A crash before it leaves the old generation (and its
  // files) authoritative; the half-built next generation is garbage that a
  // retried Compact() overwrites.
  ssf_ = std::move(new_ssf);
  bssf_ = std::move(new_bssf);
  if (ssf_ != nullptr) {
    v_ssf_sig_ = nv_ssf_sig;
    v_ssf_oid_ = nv_ssf_oid;
  }
  if (bssf_ != nullptr) {
    v_bssf_slices_ = nv_bssf_slices;
    v_bssf_oid_ = nv_bssf_oid;
  }
  generation_ = next_gen;
  // Readers pinned at pre-compact epochs keep resolving through the old
  // generation's wrappers; epochs published from here on carry the new
  // files.  Publish before the checkpoint so the swap is visible even if
  // the checkpoint write fails (matching the live query path, which already
  // serves the swapped facilities).
  PublishSnapshot();
  return Checkpoint();
}

Status SetIndex::ReplayLog(const std::vector<LogRecord>& records) {
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
  // Pass 2: store-level redo in lsn order.  Committed records are applied
  // at their exact logged locations (verify-or-write, so a record whose
  // apply already ran — fully or partially — converges to the same bytes);
  // aborted records are inverted, restoring delete victims from their
  // logged preimages.
  for (const LogRecord& rec : records) {
    const bool rolled_back = is_aborted(rec.lsn);
    switch (rec.type) {
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kBatch:
        for (const LogEntry& e : rec.inserts) {
          SIGSET_RETURN_IF_ERROR(
              rolled_back
                  ? store_->ReplayEnsureAbsent(e.oid)
                  : store_->ReplayEnsurePresent(e.oid, e.sets.at(0)));
        }
        for (const LogEntry& e : rec.deletes) {
          SIGSET_RETURN_IF_ERROR(
              rolled_back
                  ? store_->ReplayEnsurePresent(e.oid, e.sets.at(0))
                  : store_->ReplayEnsureAbsent(e.oid));
        }
        break;
      case LogRecordType::kCompactCommit:
        // The facilities are rebuilt from the store below; whether the
        // crashed run compacted first cannot change the rebuilt state.
        break;
      case LogRecordType::kAbort:
        break;
    }
  }
  return Status::OK();
}

Status SetIndex::RebuildFacilitiesFromStore() {
  // The recovered store is the single source of truth: recount everything
  // and rebuild each facility from a live scan.  Counters come first so
  // CreateFromExisting sees the right live count.
  std::vector<Oid> oids;
  std::vector<ElementSet> sets;
  total_elements_ = 0;
  SIGSET_RETURN_IF_ERROR(
      store_->ForEachLive([&](Oid oid, const ElementSet& set) {
        oids.push_back(oid);
        sets.push_back(set);
        total_elements_ += set.size();
        for (uint64_t element : set) domain_sketch_.Add(element);
        return Status::OK();
      }));
  store_->RecoverCount(oids.size());
  const uint64_t live = oids.size();

  // SSF/BSSF: build pristine copies in memory, then CompactTo the real
  // generation files — CompactTo overwrites from page 0 (BSSF rewrites
  // every slice page), so whatever stale or torn state the crashed run left
  // there is wiped.  Rebuilding in place via Insert would be wrong: SSF's
  // append path allocates its tail page at the file END, which on a dirty
  // file breaks the slot/page arithmetic reads depend on.
  if (options_.maintain_ssf) {
    InMemoryPageFile tmp_sig("recover.ssf.sig"), tmp_oid("recover.ssf.oid");
    SIGSET_ASSIGN_OR_RETURN(
        std::unique_ptr<SequentialSignatureFile> tmp,
        SequentialSignatureFile::Create(options_.sig, &tmp_sig, &tmp_oid));
    for (size_t i = 0; i < live; ++i) {
      SIGSET_RETURN_IF_ERROR(tmp->Insert(oids[i], sets[i]));
    }
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * sig,
        OpenVersioned(GenName(name_ + ".ssf.sig", generation_),
                      &v_ssf_sig_));
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * oid,
        OpenVersioned(GenName(name_ + ".ssf.oid", generation_),
                      &v_ssf_oid_));
    SIGSET_ASSIGN_OR_RETURN(uint64_t packed, tmp->CompactTo(sig, oid));
    if (packed != live) {
      return Status::Internal("ssf rebuild count mismatch");
    }
    SIGSET_ASSIGN_OR_RETURN(ssf_,
                            SequentialSignatureFile::CreateFromExisting(
                                options_.sig, sig, oid, live));
    ssf_->set_skip_index_enabled(options_.enable_skip_index);
  }
  if (options_.maintain_bssf) {
    InMemoryPageFile tmp_slices("recover.bssf.slices");
    InMemoryPageFile tmp_oid("recover.bssf.oid");
    SIGSET_ASSIGN_OR_RETURN(
        std::unique_ptr<BitSlicedSignatureFile> tmp,
        BitSlicedSignatureFile::Create(options_.sig, options_.capacity,
                                       &tmp_slices, &tmp_oid,
                                       options_.bssf_mode));
    for (size_t i = 0; i < live; ++i) {
      SIGSET_RETURN_IF_ERROR(tmp->Insert(oids[i], sets[i]));
    }
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * slices,
        OpenVersioned(GenName(name_ + ".bssf.slices", generation_),
                      &v_bssf_slices_));
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * oid,
        OpenVersioned(GenName(name_ + ".bssf.oid", generation_),
                      &v_bssf_oid_));
    SIGSET_ASSIGN_OR_RETURN(uint64_t packed, tmp->CompactTo(slices, oid));
    if (packed != live) {
      return Status::Internal("bssf rebuild count mismatch");
    }
    SIGSET_ASSIGN_OR_RETURN(bssf_, BitSlicedSignatureFile::CreateFromExisting(
                                       options_.sig, options_.capacity,
                                       slices, oid, options_.bssf_mode, live));
    bssf_->set_skip_index_enabled(options_.enable_skip_index);
    bssf_->set_hot_tier_capacity(options_.hot_tier_capacity);
    bssf_->set_hot_tier_enabled(options_.enable_hot_tier);
  }
  if (options_.maintain_nix) {
    // Reset to an empty tree (orphaning whatever pages the crashed run
    // left) and bulk-build from the live scan, which is already in
    // ascending physical-OID order.
    SIGSET_ASSIGN_OR_RETURN(PageFile * nix_file,
                            OpenVersioned(name_ + ".nix", &v_nix_));
    SIGSET_ASSIGN_OR_RETURN(
        nix_, NestedIndex::CreateResetting(nix_file, options_.nix_fanout));
    SIGSET_RETURN_IF_ERROR(nix_->BulkBuild(oids, sets));
  }
  return Status::OK();
}

int64_t SetIndex::DomainEstimate() const {
  if (options_.domain_estimate > 0) return options_.domain_estimate;
  int64_t estimate =
      static_cast<int64_t>(std::llround(domain_sketch_.Estimate()));
  return std::max<int64_t>(estimate, 2);
}

DatabaseParams SetIndex::LiveDbParams() const {
  DatabaseParams db;
  db.n = static_cast<int64_t>(num_objects());
  if (db.n < 1) db.n = 1;
  db.v = DomainEstimate();
  // The combinatorial actual-drop formulas need V >= Dt.
  int64_t dt = static_cast<int64_t>(std::llround(mean_cardinality()));
  if (db.v < dt + 1) db.v = dt + 1;
  return db;
}

StatusOr<AccessPathChoice> SetIndex::Plan(QueryKind kind, int64_t dq) const {
  DatabaseParams db = LiveDbParams();
  SignatureParams sig{options_.sig.f, options_.sig.m};
  NixParams nix;
  nix.fanout = options_.nix_fanout;
  int64_t dt = static_cast<int64_t>(std::llround(mean_cardinality()));
  if (dt < 1) dt = 1;
  std::vector<AccessPathChoice> choices;
  if (options_.advisor_feedback) {
    // Fold the registry's observed false-drop and buffer-hit rates into the
    // cost comparison (opt-in: feedback-shifted plans trade reproducible
    // page counts for workload adaptivity).
    SIGSET_ASSIGN_OR_RETURN(
        choices, AdviseAccessPaths(db, sig, nix, dt, dq, kind,
                                   /*allow_smart=*/true,
                                   AdvisorFeedback::FromRegistry(*metrics_)));
  } else {
    SIGSET_ASSIGN_OR_RETURN(
        choices,
        AdviseAccessPaths(db, sig, nix, dt, dq, kind, /*allow_smart=*/true));
  }
  for (const AccessPathChoice& choice : choices) {
    if (choice.facility == "ssf" && ssf_ == nullptr) continue;
    if (choice.facility == "bssf" && bssf_ == nullptr) continue;
    if (choice.facility == "nix" && nix_ == nullptr) continue;
    return choice;
  }
  return Status::Internal("no maintained facility matched the plan");
}

StatusOr<QueryResult> SetIndex::RunPlan(const AccessPathChoice& plan,
                                        QueryKind kind,
                                        const ElementSet& query,
                                        QueryTrace* trace) {
  const ParallelExecutionContext* ctx = execution_context();
  if (plan.facility == "ssf") {
    return ExecuteSetQuery(ssf_.get(), *store_, kind, query, ctx, trace);
  }
  QueryKind ck = CandidateKind(kind);
  if (plan.facility == "nix") {
    if (plan.param > 0 && ck == QueryKind::kSuperset) {
      return ExecuteSmartSupersetNix(nix_.get(), *store_, query,
                                     static_cast<size_t>(plan.param), kind,
                                     ctx, trace);
    }
    return ExecuteSetQuery(nix_.get(), *store_, kind, query, ctx, trace);
  }
  // bssf
  if (plan.param > 0 && ck == QueryKind::kSuperset) {
    return ExecuteSmartSupersetBssf(bssf_.get(), *store_, query,
                                    static_cast<size_t>(plan.param), kind,
                                    ctx, trace);
  }
  if (plan.param > 0 && ck == QueryKind::kSubset) {
    return ExecuteSmartSubsetBssf(bssf_.get(), *store_, query,
                                  static_cast<size_t>(plan.param), kind, ctx,
                                  trace);
  }
  return ExecuteSetQuery(bssf_.get(), *store_, kind, query, ctx, trace);
}

StatusOr<SetIndexResult> SetIndex::QueryInternal(QueryKind kind,
                                                 const ElementSet& query,
                                                 PlanMode mode,
                                                 QueryTrace* trace,
                                                 AccessPathChoice* chosen) {
  // A poisoned index may hold partially applied facility state; refuse to
  // answer from it (reopen to recover).
  if (!poison_.ok()) return poison_;
  ElementSet normalized = query;
  NormalizeSet(&normalized);
  if (normalized.empty()) {
    return Status::InvalidArgument("query set must not be empty");
  }

  // With telemetry on, plain queries run with an internal trace so the
  // drift watchdog can pair measured stage pages with the model's
  // predictions.  Tracing only snapshots IoStats counters — page-access
  // counts are identical with or without it.
  QueryTrace telemetry_trace;
  if (recorder_ != nullptr && trace == nullptr) trace = &telemetry_trace;

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
  if (chosen != nullptr) *chosen = plan;
  if (trace != nullptr) {
    trace->plan = plan.facility + " " + plan.strategy;
    trace->kind = QueryKindName(kind);
    trace->dq = static_cast<int64_t>(normalized.size());
  }

  TraceTimer timer;  // feeds the latency histogram (metrics, not tracing)
  IoStats before = storage_->TotalStats();
  StatusOr<QueryResult> ran = RunPlan(plan, kind, normalized, trace);
  if (!ran.ok()) {
    // Failed queries never reach the success bookkeeping below; hand the
    // failure to the flight recorder (and, for fatal statuses, the
    // postmortem) before propagating it.
    if (recorder_ != nullptr) {
      RecordOpTelemetry(FlightOp::kQuery, "query.latency_us", timer, before,
                        ran.status(),
                        FlightRecorder::Fingerprint(static_cast<int>(kind),
                                                    normalized));
    }
    return ran.status();
  }
  QueryResult result = std::move(ran).value();
  IoStats delta = storage_->TotalStats() - before;

  // Registry bookkeeping: memory-only counter updates, no page I/O, so
  // measured page-access counts are unaffected.
  const std::string prefix = "query." + plan.facility;
  metrics_->counter("query.count")->Increment();
  metrics_->counter(prefix + ".count")->Increment();
  metrics_->counter(prefix + ".candidates")->Increment(result.num_candidates);
  metrics_->counter(prefix + ".false_drops")
      ->Increment(result.num_false_drops);
  metrics_->histogram("query.pages")->Record(delta.total());
  metrics_->histogram("query.latency_us")
      ->Record(static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));
  if (mode == PlanMode::kAuto) {
    metrics_->gauge(prefix + ".predicted_pages")->Add(plan.cost_pages);
  }
  if (bssf_ != nullptr && bssf_->hot_tier_enabled()) {
    bssf_->hot_tier().ExportMetrics(metrics_, "hot_tier");
  }

  SetIndexResult out;
  out.result = std::move(result);
  out.plan = plan.facility + " " + plan.strategy;
  out.page_accesses = delta.total();

  if (recorder_ != nullptr) {
    metrics_
        ->histogram("query." + std::string(QueryKindName(kind)) +
                    ".latency_us")
        ->Record(static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));
    FlightEvent event;
    event.op = FlightOp::kQuery;
    event.fingerprint =
        FlightRecorder::Fingerprint(static_cast<int>(kind), normalized);
    event.epoch = current_epoch();
    event.wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
    event.SetDelta(delta);
    event.SetDetail(out.plan);
    recorder_->Record(event);
  }
  if (trace != nullptr) {
    AttachPredictions(trace, plan, kind);
    if (watchdog_ != nullptr) watchdog_->ObserveTrace(*trace);
  }
  return out;
}

void SetIndex::AttachPredictions(QueryTrace* trace,
                                 const AccessPathChoice& chosen,
                                 QueryKind kind) const {
  // The model's per-stage predictions for the executed plan, priced against
  // the same live statistics the planner used.
  DatabaseParams db = LiveDbParams();
  SignatureParams sig{options_.sig.f, options_.sig.m};
  NixParams nix;
  nix.fanout = options_.nix_fanout;
  int64_t dt = static_cast<int64_t>(std::llround(mean_cardinality()));
  if (dt < 1) dt = 1;
  CostBreakdown bd =
      BreakdownForChoice(db, sig, nix, dt, trace->dq, kind, chosen);
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

StatusOr<SetIndexResult> SetIndex::Query(QueryKind kind,
                                         const ElementSet& query,
                                         PlanMode mode) {
  return QueryInternal(kind, query, mode, nullptr, nullptr);
}

StatusOr<SetIndexExplainResult> SetIndex::Explain(QueryKind kind,
                                                  const ElementSet& query,
                                                  PlanMode mode) {
  SetIndexExplainResult out;
  AccessPathChoice plan;
  SIGSET_ASSIGN_OR_RETURN(
      out.result, QueryInternal(kind, query, mode, &out.trace, &plan));
  // Per-stage model predictions are attached inside QueryInternal (shared
  // with the telemetry-internal traces feeding the drift watchdog).
  out.text = RenderExplain(out.trace);
  out.json = out.trace.ToJson();
  return out;
}

// --- set-containment joins (R ⋈⊆ S) ---------------------------------------

StatusOr<SetIndexJoinResult> SetIndex::JoinInternal(SetIndex* s_side,
                                                    const JoinSpec& spec,
                                                    QueryTrace* trace) {
  if (s_side == nullptr) {
    return Status::InvalidArgument("join S side must not be null");
  }
  // Either side poisoned means partially applied facility state somewhere
  // in the join's reach; refuse to answer (reopen to recover).
  if (!poison_.ok()) return poison_;
  if (!s_side->poison_.ok()) return s_side->poison_;

  // With telemetry on, joins run with an internal trace (same rationale as
  // QueryInternal: stage pages for the drift artifacts, no page-count
  // difference).
  QueryTrace telemetry_trace;
  if (recorder_ != nullptr && trace == nullptr) trace = &telemetry_trace;

  // Model parameters, each side priced from its own live statistics.
  const DatabaseParams db_r = LiveDbParams();
  const DatabaseParams db_s = s_side->LiveDbParams();
  int64_t dt_r = static_cast<int64_t>(std::llround(mean_cardinality()));
  if (dt_r < 1) dt_r = 1;
  int64_t dt_s =
      static_cast<int64_t>(std::llround(s_side->mean_cardinality()));
  if (dt_s < 1) dt_s = 1;
  const SignatureParams sig_params{options_.sig.f, options_.sig.m};
  NixParams nix_params;
  nix_params.fanout = s_side->options_.nix_fanout;

  JoinSpec resolved = spec;
  if (resolved.strategy == JoinStrategy::kAuto) {
    SIGSET_ASSIGN_OR_RETURN(
        JoinStrategyChoice best,
        BestJoinStrategy(db_r, dt_r, db_s, dt_s, sig_params, nix_params));
    resolved.strategy = best.strategy;
  }

  // One nested-loop probe is the best superset selection with Dq = dt_r
  // against the S side; its modeled pages feed the adaptive direction
  // choice.
  double probe_cost_pages = 0.0;
  {
    StatusOr<AccessPathChoice> probe =
        BestAccessPath(db_s, sig_params, nix_params, dt_s, dt_r,
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
    return s_side->RunPlan(plan, QueryKind::kSuperset, query, nullptr);
  };

  StorageManager* r_storage = storage_;
  StorageManager* s_storage = s_side->storage_;
  const std::function<IoStats()> total_stats = [r_storage, s_storage]() {
    IoStats total = r_storage->TotalStats();
    if (s_storage != r_storage) total += s_storage->TotalStats();
    return total;
  };

  if (trace != nullptr) {
    trace->plan = JoinStrategyName(resolved.strategy);
    trace->kind = "join-subset";
    trace->dq = dt_r;
  }

  TraceTimer timer;  // feeds the latency histogram
  IoStats before = total_stats();
  StatusOr<JoinResult> ran =
      sigsetdb::ExecuteSetJoin(r_acc, s_acc, options_.sig, resolved,
                               execution_context(), trace, total_stats);
  if (!ran.ok()) {
    if (recorder_ != nullptr) {
      RecordOpTelemetry(FlightOp::kJoin, "join.latency_us", timer, before,
                        ran.status());
    }
    return ran.status();
  }
  JoinResult result = std::move(ran).value();
  IoStats delta = total_stats() - before;

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

  SetIndexJoinResult out;
  out.plan = JoinStrategyName(resolved.strategy);
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
  // The drift watchdog is keyed on selection stage names; join stages feed
  // EXPLAIN and the telemetry trace only.
  if (trace != nullptr) {
    AttachJoinPredictions(trace, s_side, resolved.strategy);
  }
  return out;
}

void SetIndex::AttachJoinPredictions(QueryTrace* trace, SetIndex* s_side,
                                     JoinStrategy strategy) const {
  const DatabaseParams db_r = LiveDbParams();
  const DatabaseParams db_s = s_side->LiveDbParams();
  int64_t dt_r = static_cast<int64_t>(std::llround(mean_cardinality()));
  if (dt_r < 1) dt_r = 1;
  int64_t dt_s =
      static_cast<int64_t>(std::llround(s_side->mean_cardinality()));
  if (dt_s < 1) dt_s = 1;
  const SignatureParams sig{options_.sig.f, options_.sig.m};
  NixParams nix;
  nix.fanout = s_side->options_.nix_fanout;
  StatusOr<JoinCostBreakdown> bd =
      BreakdownForJoinStrategy(db_r, dt_r, db_s, dt_s, sig, nix, strategy);
  if (!bd.ok() || bd->total() <= 0) return;
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

StatusOr<SetIndexJoinResult> SetIndex::ExecuteSetJoin(SetIndex* s_side,
                                                      const JoinSpec& spec) {
  return JoinInternal(s_side, spec, nullptr);
}

StatusOr<SetIndexJoinExplainResult> SetIndex::ExplainSetJoin(
    SetIndex* s_side, const JoinSpec& spec) {
  SetIndexJoinExplainResult out;
  SIGSET_ASSIGN_OR_RETURN(out.result, JoinInternal(s_side, spec, &out.trace));
  out.text = RenderExplain(out.trace);
  out.json = out.trace.ToJson();
  return out;
}

}  // namespace sigsetdb
