// `churn`: writes beside snapshot reads on an in-memory SetIndex with the
// write-ahead log and snapshots on.
//
// 10,000 live objects at V = 13,000, Dt = 10, F = 250, m = 2.  One round
// is 1,024 operations in a seeded order: 512 reads (superset Dq 1-3 and
// subset Dq 20-100, half each, a quarter built to hit a live object), each
// through a fresh GetSnapshot(); 352 singleton Inserts, 96 singleton
// Deletes and 64 ApplyBatch calls of 30 inserts + 34 deletes.  A
// Checkpoint() follows every 256 operations and a Compact() ends the round,
// so the live count stays at 10,000 and every round does the same work.
// (The singleton split keeps the median write call inside the insert
// latencies instead of on the edge between inserts and deletes.)
// The in-memory backend keeps fsync noise out of the numbers.
//
// Every snapshot read is checked against a scan of the benchmark's own
// model of the live objects; every batch checks that a snapshot pinned
// before it still returns the pre-batch answer.  After the timed phase an
// untimed tail of writes goes to the log with no checkpoint after it; the
// index is then dropped and reopened, and must replay exactly those records.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "db/snapshot.h"
#include "db/write_batch.h"
#include "harness/workloads.h"
#include "obj/object_store.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sigsetdb::perfbench {
namespace {

constexpr int64_t kN = 10000;
constexpr int64_t kV = 13000;
constexpr int64_t kDt = 10;
constexpr int kBuilds = 3;
constexpr size_t kReads = 512;
constexpr size_t kSingleInserts = 352;
constexpr size_t kSingleDeletes = 96;
constexpr size_t kBatches = 64;
constexpr size_t kBatchInserts = 30;
constexpr size_t kBatchDeletes = 34;
static_assert(kSingleInserts + kBatches * kBatchInserts ==
                  kSingleDeletes + kBatches * kBatchDeletes,
              "a round must leave the live count unchanged");
constexpr size_t kCheckpointEvery = 256;
// The durability tail: writes acknowledged after the last checkpoint, one
// log record per call.
constexpr size_t kTailInserts = 48;
constexpr size_t kTailDeletes = 16;
constexpr size_t kTailBatches = 2;
// The timed phase runs one round per kRoundSeconds of --seconds: the
// index's state (tombstones, compaction generations, log) depends on how
// many writes ran, so every run does the same number of them.
constexpr double kRoundSeconds = 1.25;
constexpr char kName[] = "churn";

SetIndex::Options ChurnOptions() {
  SetIndex::Options options;
  options.capacity = 32768;  // one page per bit slice
  options.enable_wal = true;
  options.enable_snapshots = true;
  return options;
}

// The benchmark's own copy of the live objects.
class Model {
 public:
  void Add(Oid oid, const ElementSet& set) {
    pos_[oid.value()] = live_.size();
    live_.push_back({oid, set});
  }
  void Remove(Oid oid) {
    const size_t at = pos_.at(oid.value());
    pos_.erase(oid.value());
    if (at + 1 != live_.size()) {
      live_[at] = std::move(live_.back());
      pos_[live_[at].oid.value()] = at;
    }
    live_.pop_back();
  }
  bool Contains(Oid oid) const { return pos_.count(oid.value()) > 0; }
  size_t size() const { return live_.size(); }
  const StoredObject& at(size_t i) const { return live_[i]; }

  // Brute-force scan: sorted OID values satisfying (kind, query).
  std::vector<uint64_t> Scan(QueryKind kind, const ElementSet& query) const {
    std::vector<uint64_t> out;
    for (const StoredObject& obj : live_) {
      if (Satisfies(kind, obj.set_value, query)) out.push_back(obj.oid.value());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<StoredObject> live_;
  std::unordered_map<uint64_t, size_t> pos_;
};

std::vector<uint64_t> SortedValues(const std::vector<Oid>& oids) {
  std::vector<uint64_t> out;
  for (Oid oid : oids) out.push_back(oid.value());
  std::sort(out.begin(), out.end());
  return out;
}

enum class Op { kRead, kInsert, kDelete, kBatch };

// One round's operation order: fixed counts, seeded order.
std::vector<Op> RoundOps(Rng& rng) {
  std::vector<Op> ops;
  ops.insert(ops.end(), kReads, Op::kRead);
  ops.insert(ops.end(), kSingleInserts, Op::kInsert);
  ops.insert(ops.end(), kSingleDeletes, Op::kDelete);
  ops.insert(ops.end(), kBatches, Op::kBatch);
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.NextBelow(i)]);
  }
  return ops;
}

struct Churn {
  Churn(const RunOptions& o, Report* r, Tracer* t, LayerCounts* c,
        EndToEnd* e)
      : options(o), report(r), tracer(t), counts(c), e2e(e),
        gen(WorkloadConfig{kN, kV, CardinalitySpec::Fixed(kDt),
                           SkewKind::kUniform, 0.99, o.seed * 4 + 3}),
        rng(o.seed * 0x2545F4914F6CDD1Dull + 5) {}

  const RunOptions& options;
  Report* report;
  Tracer* tracer;
  LayerCounts* counts;
  EndToEnd* e2e;
  SetGenerator gen;
  Rng rng;
  std::unique_ptr<StorageManager> storage;
  std::unique_ptr<SetIndex> index;
  Model model;
  std::vector<Oid> deleted;
  Samples load_batch_ms;  // set-up loads; not part of the write metrics
  // Per-round accumulators.
  double read_busy_ms = 0;
  double write_busy_ms = 0;
  uint64_t round_writes = 0;
  // Reads kept for the traced run's layer decomposition.
  std::vector<std::pair<QueryKind, ElementSet>> read_log;

  double Build() {
    model = Model{};
    deleted.clear();
    index.reset();
    const double start = NowUs();
    storage = std::make_unique<StorageManager>();
    index = Must(SetIndex::Create(storage.get(), kName, ChurnOptions()),
                 "create");
    const std::vector<ElementSet> sets =
        GenerateSets(kN, kV, kDt, options.seed * 4 + 1);
    const std::vector<Oid> oids =
        LoadInBatches(index.get(), sets, &load_batch_ms);
    Must(index->Checkpoint(), "checkpoint");
    const double seconds = (NowUs() - start) / 1e6;
    for (size_t i = 0; i < sets.size(); ++i) model.Add(oids[i], sets[i]);
    return seconds;
  }

  ElementSet ReadQuery(QueryKind* kind) {
    const bool superset = rng.NextBelow(2) == 0;
    const bool hit = rng.NextBelow(4) == 0;
    *kind = superset ? QueryKind::kSuperset : QueryKind::kSubset;
    const int64_t dq = superset ? 1 + static_cast<int64_t>(rng.NextBelow(3))
                                : 20 + static_cast<int64_t>(rng.NextBelow(81));
    if (hit) {
      const ElementSet& target = model.at(rng.NextBelow(model.size())).set_value;
      return superset ? MakeHittingSupersetQuery(target, dq, rng)
                      : MakeHittingSubsetQuery(target, kV, dq, rng);
    }
    ElementSet q;
    for (uint64_t e : rng.SampleWithoutReplacement(kV, dq)) q.push_back(e);
    NormalizeSet(&q);
    return q;
  }

  Oid PickVictim() { return model.at(rng.NextBelow(model.size())).oid; }

  // Times one write call; the counter reads around it stay outside the
  // timed interval.
  template <typename Fn>
  bool TimedWrite(const char* span_name, uint64_t acknowledged, Fn&& fn) {
    report->Attempt();
    const IoStats io_before = storage->TotalStats();
    const uint64_t wal_before = WalWrites();
    const int64_t op = tracer->Begin("op.write");
    const int64_t call = tracer->Begin(span_name, op);
    const double c0 = ProcessCpuMs();
    const double t0 = NowUs();
    const Status status = fn();
    const double t1 = NowUs();
    const double c1 = ProcessCpuMs();
    tracer->End(call);
    tracer->End(op);
    if (!status.ok()) {
      report->Failed(status, span_name);
      return false;
    }
    const double ms = (t1 - t0) / 1e3;
    e2e->write_ms.Add(ms);
    write_busy_ms += ms;
    e2e->cpu_ms += c1 - c0;
    ++e2e->ops;
    round_writes += acknowledged;
    e2e->writes += acknowledged;
    const IoStats io = storage->TotalStats() - io_before;
    e2e->write_pages += io.total();
    counts->writes += acknowledged;
    counts->page_writes += io.writes();
    counts->cow_copies += io.cows();
    counts->wal_page_writes += WalWrites() - wal_before;
    return true;
  }

  uint64_t WalWrites() const {
    return Must(storage->Open(std::string(kName) + ".wal"), "wal")
        ->stats()
        .writes();
  }

  void Read() {
    QueryKind kind;
    const ElementSet q = ReadQuery(&kind);
    report->Attempt();
    tracer->BeginOp();
    const int64_t op = tracer->Begin("op.read");
    const double c0 = ProcessCpuMs();
    const double t0 = NowUs();
    const int64_t open = tracer->Begin("db.snapshot_open", op);
    StatusOr<std::unique_ptr<Snapshot>> snap = index->GetSnapshot();
    tracer->End(open);
    StatusOr<SetIndexResult> got = Status::Internal("no snapshot");
    if (snap.ok()) {
      const int64_t call = tracer->Begin("db.snapshot_query", op);
      got = (*snap)->Query(kind, q);
      tracer->End(call);
    }
    snap = Status::Internal("released");  // unpin inside the timed interval
    const double t1 = NowUs();
    const double c1 = ProcessCpuMs();
    tracer->End(op);
    if (!got.ok()) return report->Failed(got.status(), "snapshot read");
    const double ms = (t1 - t0) / 1e3;
    e2e->read_ms.Add(ms);
    read_busy_ms += ms;
    e2e->cpu_ms += c1 - c0;
    ++e2e->ops;
    ++e2e->reads;
    e2e->read_pages += got->page_accesses;
    if (SortedValues(got->result.oids) != model.Scan(kind, q)) {
      report->Wrong(std::string("snapshot ") + QueryKindName(kind) +
                    " read differs from the model scan");
    }
    if (tracer->enabled() && read_log.size() < 2048) {
      read_log.push_back({kind, q});
    }
  }

  void Insert() {
    tracer->BeginOp();
    const ElementSet set = gen.NextSet();
    Oid oid;
    if (TimedWrite("db.insert", 1, [&] {
          StatusOr<Oid> got = index->Insert(set);
          if (got.ok()) oid = *got;
          return got.status();
        })) {
      model.Add(oid, set);
    }
  }

  void Delete() {
    tracer->BeginOp();
    const Oid victim = PickVictim();
    if (TimedWrite("db.delete", 1, [&] { return index->Delete(victim); })) {
      model.Remove(victim);
      deleted.push_back(victim);
    }
  }

  // One 64-op batch: kBatchInserts new sets and kBatchDeletes distinct
  // live victims, applied to the model only once the index acknowledges it.
  struct PlannedBatch {
    WriteBatch batch;
    std::vector<ElementSet> inserts;
    std::vector<Oid> victims;
  };

  PlannedBatch PlanBatch() {
    PlannedBatch p;
    for (size_t i = 0; i < kBatchInserts; ++i) {
      p.inserts.push_back(gen.NextSet());
      p.batch.Insert(p.inserts.back());
    }
    std::unordered_set<uint64_t> chosen;
    while (p.victims.size() < kBatchDeletes) {
      const Oid victim = PickVictim();
      if (chosen.insert(victim.value()).second) {
        p.victims.push_back(victim);
        p.batch.Delete(victim);
      }
    }
    return p;
  }

  void Acknowledge(const PlannedBatch& p, const std::vector<Oid>& oids) {
    for (size_t i = 0; i < p.inserts.size(); ++i) {
      model.Add(oids[i], p.inserts[i]);
    }
    for (Oid victim : p.victims) {
      model.Remove(victim);
      deleted.push_back(victim);
    }
  }

  // Every batch runs with one snapshot pinned: the isolation check below.
  void Batch() {
    tracer->BeginOp();
    const PlannedBatch planned = PlanBatch();
    // Snapshot isolation: pin before the batch, probe with an element the
    // batch inserts, and expect the pre-batch answer after it commits.
    StatusOr<std::unique_ptr<Snapshot>> pinned = index->GetSnapshot();
    if (!pinned.ok()) return report->Failed(pinned.status(), "pin snapshot");
    const ElementSet probe{planned.inserts.front().front()};
    const std::vector<uint64_t> before = model.Scan(QueryKind::kSuperset, probe);

    std::vector<Oid> oids;
    if (!TimedWrite("db.batch", planned.batch.size(), [&] {
          StatusOr<std::vector<Oid>> got = index->ApplyBatch(planned.batch);
          if (got.ok()) oids = *got;
          return got.status();
        })) {
      return;
    }
    Acknowledge(planned, oids);
    StatusOr<SetIndexResult> old = (*pinned)->Query(QueryKind::kSuperset, probe);
    if (!old.ok() || SortedValues(old->result.oids) != before) {
      report->Wrong("snapshot pinned before a batch saw the batch");
    }
  }

  void Maintain(const char* span_name, Status (SetIndex::*fn)()) {
    report->Attempt();
    tracer->BeginOp();
    const int64_t op = tracer->Begin(span_name);
    const double c0 = ProcessCpuMs();
    const double ms = TimeMs([&] {
      const Status status = (index.get()->*fn)();
      if (!status.ok()) report->Failed(status, span_name);
    });
    const double c1 = ProcessCpuMs();
    tracer->End(op);
    write_busy_ms += ms;
    e2e->cpu_ms += c1 - c0;
    ++e2e->ops;
  }

  void Round() {
    read_busy_ms = write_busy_ms = 0;
    round_writes = 0;
    const std::vector<Op> ops = RoundOps(rng);
    for (size_t i = 0; i < ops.size(); ++i) {
      switch (ops[i]) {
        case Op::kRead: Read(); break;
        case Op::kInsert: Insert(); break;
        case Op::kDelete: Delete(); break;
        case Op::kBatch: Batch(); break;
      }
      if ((i + 1) % kCheckpointEvery == 0) {
        Maintain("db.checkpoint", &SetIndex::Checkpoint);
      }
    }
    Maintain("db.compact", &SetIndex::Compact);
    e2e->read_rates.push_back(kReads / (read_busy_ms / 1e3));
    e2e->write_rates.push_back(round_writes / (write_busy_ms / 1e3));
  }

  // Writes a seeded, untimed tail after the last checkpoint, so the log
  // holds one record per call when the index is dropped.  Returns the
  // number of records written.
  uint64_t WriteTail() {
    for (size_t i = 0; i < kTailInserts; ++i) {
      const ElementSet set = gen.NextSet();
      model.Add(Must(index->Insert(set), "tail insert"), set);
    }
    for (size_t i = 0; i < kTailDeletes; ++i) {
      const Oid victim = PickVictim();
      Must(index->Delete(victim), "tail delete");
      model.Remove(victim);
      deleted.push_back(victim);
    }
    for (size_t b = 0; b < kTailBatches; ++b) {
      const PlannedBatch planned = PlanBatch();
      Acknowledge(planned, Must(index->ApplyBatch(planned.batch), "tail batch"));
    }
    return kTailInserts + kTailDeletes + kTailBatches;
  }

  // Writes the tail, drops the index without a checkpoint, reopens it from
  // the log and checks every acknowledged write against the model.
  void CheckDurability() {
    const uint64_t tail_records = WriteTail();
    index.reset();
    StatusOr<std::unique_ptr<SetIndex>> reopened =
        SetIndex::Open(storage.get(), kName, ChurnOptions());
    if (!reopened.ok()) {
      return report->Wrong("reopen after drop: " +
                           reopened.status().ToString());
    }
    index = std::move(reopened).value();
    const uint64_t replayed =
        index->metrics()->counter("wal.replayed_records")->value();
    if (replayed != tail_records) {
      report->Wrong("reopen replayed " + std::to_string(replayed) +
                    " log records, expected the " +
                    std::to_string(tail_records) + " written after the last "
                    "checkpoint");
    }
    if (index->num_objects() != model.size()) {
      report->Wrong("live count after WAL replay differs from the model");
    }
    for (size_t i = 0; i < model.size(); ++i) {
      StatusOr<StoredObject> got = index->Get(model.at(i).oid);
      if (!got.ok() || got->set_value != model.at(i).set_value) {
        return report->Wrong("acknowledged insert lost after WAL replay");
      }
    }
    for (Oid oid : deleted) {
      if (!model.Contains(oid) && index->Get(oid).ok()) {
        return report->Wrong("acknowledged delete undone by WAL replay");
      }
    }
  }
};

}  // namespace

void RunChurn(const RunOptions& options, Report* report) {
  Tracer trace(options.trace);
  EndToEnd e;
  LayerCounts counts;
  Churn churn(options, report, &trace, &counts, &e);
  for (int b = 0; b < kBuilds; ++b) e.setup_s.push_back(churn.Build());

  // Warm-up: one round, checked like the timed ones, then the
  // accumulators start over.
  churn.Round();
  EndToEnd fresh;
  fresh.setup_s = e.setup_s;
  e = fresh;
  counts = LayerCounts{};
  trace.Clear();

  const long rounds = std::max(1L, std::lround(options.seconds / kRoundSeconds));
  for (long r = 0; r < rounds; ++r) churn.Round();

  e.allocated_pages = churn.storage->TotalPages();
  e.live_objects = churn.index->num_objects();
  if (options.trace) {
    // Re-issue the logged reads through their layer calls on the live
    // index, after a checkpoint has written the current pages through to
    // the base files the object-store view reads.
    Must(churn.index->Checkpoint(), "checkpoint");
    const ObjectStore store_view(
        Must(churn.storage->Open(std::string(kName) + ".objects"), "objects"));
    for (const auto& [kind, q] : churn.read_log) {
      trace.BeginOp();
      const int64_t call = trace.Begin("db.query");
      StatusOr<SetIndexResult> got = churn.index->Query(kind, q);
      trace.End(call);
      if (!got.ok()) Fatal("re-issued read: " + got.status().ToString());
      DecomposeSelection(churn.index.get(), store_view, kind, q, *got, call,
                         &trace, &counts, report);
    }
    counts.read_us_per_page = ReadSweepUsPerPage(churn.storage.get());
    std::vector<ElementSet> sets, shifted;
    for (size_t i = 0; i < churn.model.size(); ++i) {
      sets.push_back(churn.model.at(i).set_value);
      shifted.push_back(churn.model.at((i + 1) % churn.model.size()).set_value);
    }
    counts.set_signature_us = SetSignatureUs(sets, churn.index->options().sig);
    counts.and_accumulate_gbps =
        AndAccumulateGbps(churn.index->bssf()->capacity());
    counts.intersect_u64_ns = IntersectU64Ns(sets, shifted);
  }
  churn.CheckDurability();
  if (options.trace) {
    EmitLayerMetrics(trace, counts, report);
    trace.WriteJsonLines(options.work_dir + "/trace.jsonl");
    return;
  }
  // p99 also has more than ten reads beyond it, but swings by a fifth of
  // its value from run to run; p95 holds a bound.
  e.read_tail_q = 0.95;
  e.write_tail_q = 0.99;
  EmitEndToEnd(e, report);
}

}  // namespace sigsetdb::perfbench
