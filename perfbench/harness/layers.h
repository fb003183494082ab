// Per-layer measurements of a traced run.
//
// Each layer is timed from outside, around calls into its public
// functions: a selection is re-issued through the same layer calls
// SetIndex::Query makes for the plan it chose (planning, candidate
// selection, resolution), and sweeps time page reads, signature building
// and the kernels on the workload's own data.

#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

#include <cstdint>
#include <vector>

#include "db/set_index.h"
#include "harness/harness.h"
#include "obj/object_store.h"
#include "storage/storage_manager.h"

namespace sigsetdb::perfbench {

// Counters gathered at the layer boundaries of one traced run.  Times live
// in the Tracer's spans; these are the counts the ratios are built from.
struct LayerCounts {
  // Write side: acknowledged writes and the page traffic they caused.
  uint64_t writes = 0;
  uint64_t page_writes = 0;
  uint64_t cow_copies = 0;
  uint64_t wal_page_writes = 0;
  // Read side, over the re-issued selections.
  uint64_t candidates = 0;
  uint64_t answers = 0;
  // Joins, from ExplainSetJoin's stage spans and JoinResult counters.
  uint64_t joins = 0;
  double join_scan_ms = 0;
  double join_partition_ms = 0;
  double join_probe_verify_ms = 0;
  uint64_t join_candidate_pairs = 0;
  uint64_t join_pairs = 0;
  // Sweeps.
  double read_us_per_page = 0;
  double set_signature_us = 0;
  double and_accumulate_gbps = 0;
  double intersect_u64_ns = 0;
};

// Re-issues the selection `answered` came from through the layer calls of
// its plan, as child spans of `parent`: "db.domain_estimate",
// "query.plan", "sig.bssf_candidates" or "nix.candidates", "obj.resolve";
// plus "nix.lookup" per looked-up element of NIX plans and "obj.get" per
// fetched object.  `store` reads the index's object file.  Checks that the
// re-planned path is the one Query ran, that it returns the same answer,
// and that the facility's candidates contain every answer.
void DecomposeSelection(SetIndex* index, const ObjectStore& store,
                        QueryKind kind, const ElementSet& query,
                        const SetIndexResult& answered, int64_t parent,
                        Tracer* tracer, LayerCounts* counts, Report* report);

// Mean time of one PageFile::Read over every page of every file in
// `storage` (median of three sweeps), in microseconds.
double ReadSweepUsPerPage(StorageManager* storage);

// Mean time of one MakeSetSignature over `sets`, in microseconds.
double SetSignatureUs(const std::vector<ElementSet>& sets,
                      const SignatureConfig& config);

// KernelAndWith throughput on two `bits`-bit vectors (a slice), counting
// both operands read, in GB/s.
double AndAccumulateGbps(size_t bits);

// Mean time of one KernelIntersectU64 of a[i] with b[i], in nanoseconds.
double IntersectU64Ns(const std::vector<ElementSet>& a,
                      const std::vector<ElementSet>& b);

// Emits every per-layer metric.  A metric of a layer call the workload
// never makes reads 0.
void EmitLayerMetrics(const Tracer& tracer, const LayerCounts& counts,
                      Report* report);

}  // namespace sigsetdb::perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
