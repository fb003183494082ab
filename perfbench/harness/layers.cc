#include "harness/layers.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "query/advisor.h"
#include "query/executor.h"
#include "sig/kernels.h"
#include "sig/signature.h"
#include "util/rng.h"

namespace sigsetdb::perfbench {
namespace {

// Receives the timed loops' results so the compiler cannot drop the loops.
volatile uint64_t g_sink = 0;

uint64_t FacilityReads(const SetAccessFacility& facility) {
  // The first stage file is the facility's own scan target: BSSF slices,
  // the NIX B-tree.
  return facility.StageStats().front().second.reads();
}

// The plan SetIndex::Plan picks: the cheapest advised path over the
// facilities the index maintains, priced with the index's live V, N and Dt.
StatusOr<AccessPathChoice> PlanLikeIndex(SetIndex* index, int64_t v,
                                         QueryKind kind, int64_t dq) {
  DatabaseParams db;
  db.n = std::max<int64_t>(1, static_cast<int64_t>(index->num_objects()));
  const int64_t dt = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(index->mean_cardinality())));
  db.v = std::max(v, dt + 1);
  const SignatureParams sig{index->options().sig.f, index->options().sig.m};
  NixParams nix;
  nix.fanout = index->options().nix_fanout;
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<AccessPathChoice> choices,
      AdviseAccessPaths(db, sig, nix, dt, dq, CandidateKind(kind),
                        /*allow_smart=*/true));
  for (const AccessPathChoice& choice : choices) {
    if (choice.facility == "ssf" && index->ssf() == nullptr) continue;
    if (choice.facility == "bssf" && index->bssf() == nullptr) continue;
    if (choice.facility == "nix" && index->nix() == nullptr) continue;
    return choice;
  }
  return Status::Internal("no maintained facility");
}

StatusOr<CandidateResult> RunCandidates(SetIndex* index,
                                        const AccessPathChoice& plan,
                                        QueryKind kind,
                                        const ElementSet& query) {
  const QueryKind ck = CandidateKind(kind);
  if (plan.facility == "ssf") return index->ssf()->Candidates(ck, query);
  if (plan.facility == "nix") {
    if (plan.param > 0 && ck == QueryKind::kSuperset) {
      return index->nix()->CandidatesSmartSuperset(
          query, static_cast<size_t>(plan.param));
    }
    return index->nix()->Candidates(ck, query);
  }
  BitSlicedSignatureFile* bssf = index->bssf();
  if (plan.param > 0) {
    std::vector<uint64_t> slots;
    if (ck == QueryKind::kSuperset) {
      SIGSET_ASSIGN_OR_RETURN(
          slots, bssf->SupersetCandidateSlots(MakePartialQuerySignature(
              query, static_cast<size_t>(plan.param), bssf->config())));
    } else {
      SIGSET_ASSIGN_OR_RETURN(
          slots,
          bssf->SubsetCandidateSlots(MakeSetSignature(query, bssf->config()),
                                     static_cast<size_t>(plan.param)));
    }
    CandidateResult out;
    SIGSET_ASSIGN_OR_RETURN(out.oids, bssf->ResolveSlots(slots));
    return out;
  }
  return bssf->Candidates(ck, query);
}

std::vector<uint64_t> SortedValues(const std::vector<Oid>& oids) {
  std::vector<uint64_t> out;
  out.reserve(oids.size());
  for (Oid oid : oids) out.push_back(oid.value());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void DecomposeSelection(SetIndex* index, const ObjectStore& store,
                        QueryKind kind, const ElementSet& query,
                        const SetIndexResult& answered, int64_t parent,
                        Tracer* tracer, LayerCounts* counts,
                        Report* report) {
  int64_t v = 0;
  {
    ScopedSpan span(tracer, "db.domain_estimate", parent);
    v = index->DomainEstimate();
  }
  ElementSet normalized = query;
  NormalizeSet(&normalized);
  StatusOr<AccessPathChoice> plan = Status::Internal("unplanned");
  {
    ScopedSpan span(tracer, "query.plan", parent);
    plan = PlanLikeIndex(index, v, kind,
                         static_cast<int64_t>(normalized.size()));
  }
  if (!plan.ok()) return report->Wrong("re-plan: " + plan.status().ToString());
  if (plan->facility + " " + plan->strategy != answered.plan) {
    return report->Wrong("re-planned " + plan->facility + " " +
                         plan->strategy + ", Query ran " + answered.plan);
  }

  const bool on_bssf = plan->facility == "bssf";
  SetAccessFacility* facility =
      on_bssf ? static_cast<SetAccessFacility*>(index->bssf())
              : plan->facility == "nix"
                    ? static_cast<SetAccessFacility*>(index->nix())
                    : static_cast<SetAccessFacility*>(index->ssf());
  StatusOr<CandidateResult> candidates = Status::Internal("unrun");
  {
    const uint64_t reads_before = FacilityReads(*facility);
    ScopedSpan span(tracer,
                    on_bssf ? "sig.bssf_candidates"
                    : plan->facility == "nix" ? "nix.candidates"
                                              : "sig.ssf_candidates",
                    parent);
    candidates = RunCandidates(index, *plan, kind, normalized);
    span.set_count(FacilityReads(*facility) - reads_before);
  }
  if (!candidates.ok()) {
    return report->Wrong("candidates: " + candidates.status().ToString());
  }
  StatusOr<QueryResult> resolved = Status::Internal("unrun");
  {
    ScopedSpan span(tracer, "obj.resolve", parent);
    resolved = ResolveCandidates(*candidates, store, kind, normalized);
    span.set_count(candidates->oids.size());
  }
  if (!resolved.ok()) {
    return report->Wrong("resolve: " + resolved.status().ToString());
  }

  const std::vector<uint64_t> answer = SortedValues(answered.result.oids);
  if (SortedValues(resolved->oids) != answer) {
    report->Wrong("re-issued layer calls disagree with Query for plan " +
                  answered.plan);
  }
  const std::vector<uint64_t> drops = SortedValues(candidates->oids);
  for (uint64_t oid : answer) {
    if (!std::binary_search(drops.begin(), drops.end(), oid)) {
      report->Wrong("false dismissal: answer missing from " +
                    plan->facility + " candidates");
      break;
    }
  }
  counts->candidates += drops.size();
  counts->answers += answer.size();

  if (plan->facility == "nix") {
    const size_t used =
        plan->param > 0 ? std::min<size_t>(plan->param, normalized.size())
                        : normalized.size();
    for (size_t i = 0; i < used; ++i) {
      const uint64_t reads_before = FacilityReads(*index->nix());
      ScopedSpan span(tracer, "nix.lookup", -1);
      StatusOr<std::vector<Oid>> postings =
          index->nix()->tree().Lookup(normalized[i]);
      span.set_count(FacilityReads(*index->nix()) - reads_before);
      if (!postings.ok()) report->Wrong("nix lookup failed");
    }
  }
  const size_t fetches = std::min<size_t>(drops.size(), 16);
  for (size_t i = 0; i < fetches; ++i) {
    ScopedSpan span(tracer, "obj.get", -1);
    if (!index->Get(Oid(drops[i])).ok()) report->Wrong("get of a candidate");
  }
}

double ReadSweepUsPerPage(StorageManager* storage) {
  std::vector<std::string> names;
  storage->ForEachFile(
      [&](const PageFile& file) { names.push_back(file.name()); });
  std::vector<double> sweeps;
  Page page;
  for (int sweep = 0; sweep < 3; ++sweep) {
    uint64_t pages = 0;
    const double start = NowUs();
    for (const std::string& name : names) {
      PageFile* file = Must(storage->Open(name), "open for sweep");
      for (PageId id = 0; id < file->num_pages(); ++id) {
        Must(file->Read(id, &page), "sweep read");
        ++pages;
      }
    }
    if (pages > 0) sweeps.push_back((NowUs() - start) / pages);
  }
  return Median(sweeps);
}

double SetSignatureUs(const std::vector<ElementSet>& sets,
                      const SignatureConfig& config) {
  uint64_t sink = 0;
  const double start = NowUs();
  for (const ElementSet& set : sets) {
    sink += MakeSetSignature(set, config).words()[0];
  }
  const double us = (NowUs() - start) / std::max<size_t>(1, sets.size());
  g_sink = sink;
  return us;
}

double AndAccumulateGbps(size_t bits) {
  BitVector acc(bits), other(bits);
  Rng rng(7);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.NextBelow(4) != 0) acc.Set(i);
    if (rng.NextBelow(4) != 0) other.Set(i);
  }
  const size_t calls = std::max<size_t>(1, (size_t{256} << 20) / (bits / 8));
  const double start = NowUs();
  for (size_t i = 0; i < calls; ++i) KernelAndWith(&acc, other);
  const double seconds = (NowUs() - start) / 1e6;
  g_sink = KernelCountAnd(acc, other);
  const double bytes = 2.0 * static_cast<double>(calls) *
                       static_cast<double>(acc.num_words() * 8);
  return seconds > 0 ? bytes / seconds / 1e9 : 0.0;
}

double IntersectU64Ns(const std::vector<ElementSet>& a,
                      const std::vector<ElementSet>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  std::vector<uint64_t> out(1024);
  size_t sink = 0;
  const int reps = 20;
  const double start = NowUs();
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < n; ++i) {
      if (out.size() < std::min(a[i].size(), b[i].size())) {
        out.resize(std::min(a[i].size(), b[i].size()));
      }
      sink += KernelIntersectU64(a[i].data(), a[i].size(), b[i].data(),
                                 b[i].size(), out.data());
    }
  }
  const double ns = (NowUs() - start) * 1e3 / static_cast<double>(n * reps);
  g_sink = sink;
  return ns;
}

void EmitLayerMetrics(const Tracer& t, const LayerCounts& c, Report* r) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  r->Metric("storage.read_us_per_page", c.read_us_per_page, "us");
  r->Metric("storage.page_writes_per_write", ratio(c.page_writes, c.writes),
            "count");
  r->Metric("storage.cow_copies_per_write", ratio(c.cow_copies, c.writes),
            "count");
  r->Metric("sig.set_signature_us", c.set_signature_us, "us");
  r->Metric("sig.bssf_candidates_ms", t.MeanUs("sig.bssf_candidates") / 1e3,
            "ms");
  r->Metric("sig.slice_pages_per_query",
            ratio(t.SumCount("sig.bssf_candidates"),
                  t.Count("sig.bssf_candidates")),
            "count");
  r->Metric("sig.candidates_per_answer", ratio(c.candidates, c.answers),
            "ratio");
  r->Metric("sig.and_accumulate_gbps", c.and_accumulate_gbps, "GB/s");
  r->Metric("sig.intersect_u64_ns", c.intersect_u64_ns, "ns");
  r->Metric("nix.lookup_us", t.MeanUs("nix.lookup"), "us");
  r->Metric("nix.pages_per_lookup",
            ratio(t.SumCount("nix.lookup"), t.Count("nix.lookup")), "count");
  r->Metric("obj.get_us", t.MeanUs("obj.get"), "us");
  r->Metric("obj.resolve_us_per_candidate",
            ratio(t.TotalUs("obj.resolve"), c.candidates), "us");
  r->Metric("query.plan_us", t.MeanUs("query.plan"), "us");
  r->Metric("query.join_scan_ms", ratio(c.join_scan_ms, c.joins), "ms");
  r->Metric("query.join_partition_ms", ratio(c.join_partition_ms, c.joins),
            "ms");
  r->Metric("query.join_probe_verify_ms",
            ratio(c.join_probe_verify_ms, c.joins), "ms");
  r->Metric("query.join_candidates_per_pair",
            ratio(c.join_candidate_pairs, c.join_pairs), "ratio");
  r->Metric("db.domain_estimate_us", t.MeanUs("db.domain_estimate"), "us");
  r->Metric("db.query_self_us", t.MeanSelfUs("db.query"), "us");
  r->Metric("db.snapshot_open_us", t.MeanUs("db.snapshot_open"), "us");
  r->Metric("db.wal_page_writes_per_write",
            ratio(c.wal_page_writes, c.writes), "count");
  r->Metric("db.checkpoint_ms", t.MeanUs("db.checkpoint") / 1e3, "ms");
  r->Metric("db.compact_ms", t.MeanUs("db.compact") / 1e3, "ms");
  r->Metric("trace.read_p50_ms", t.MedianUs("op.read") / 1e3, "ms");
}

}  // namespace sigsetdb::perfbench
