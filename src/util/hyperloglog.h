// HyperLogLog cardinality sketch.
//
// The cost model needs V, the number of distinct elements in the indexed
// domain (it drives every actual-drop estimate).  Rather than asking the
// user for it, SetIndex/Database feed every inserted element through this
// sketch and hand the advisor a live estimate.  Standard HLL (Flajolet et
// al. 2007) with the usual small-range linear-counting correction;
// 2^precision byte registers give ~1.04/√(2^precision) relative error
// (~1.6 % at the default precision 12 = 4 KiB of state).
//
// Estimate() runs on every plan and every snapshot publish, so the sketch
// keeps a histogram of register values beside the registers (maintained by
// every mutator) and sums its 65 buckets instead of 2^precision registers.

#ifndef SIGSET_UTIL_HYPERLOGLOG_H_
#define SIGSET_UTIL_HYPERLOGLOG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sigsetdb {

// Streaming distinct-count estimator over 64-bit values.
class HyperLogLog {
 public:
  // `precision` in [4, 16]: 2^precision single-byte registers.
  explicit HyperLogLog(int precision = 12);

  // Observes one value (idempotent per distinct value).
  void Add(uint64_t value);

  // Current cardinality estimate.  O(65), const, no mutable state (readers
  // call it under a shared lock).
  double Estimate() const;

  // Merges another sketch of the same precision (union of streams).
  void Merge(const HyperLogLog& other);

  // Resets to the empty state.
  void Clear();

  int precision() const { return precision_; }
  size_t num_registers() const { return registers_.size(); }

  // Raw register access for checkpoint serialization.
  const std::vector<uint8_t>& registers() const { return registers_; }
  // Restores registers saved earlier; `data` must match num_registers()
  // and hold only ranks Add() can produce (<= 65 - precision).
  bool LoadRegisters(const uint8_t* data, size_t len);

 private:
  // Register values span 0 .. 64 - precision + 1 <= 61.
  static constexpr size_t kRankBuckets = 65;

  // Raises register `idx` to rank `to` (above its current value), moving
  // it between histogram buckets.
  void Raise(size_t idx, uint8_t to) {
    --rank_counts_[registers_[idx]];
    ++rank_counts_[to];
    registers_[idx] = to;
  }

  int precision_;
  std::vector<uint8_t> registers_;
  // rank_counts_[r] = number of registers holding r.
  std::array<uint32_t, kRankBuckets> rank_counts_{};
};

}  // namespace sigsetdb

#endif  // SIGSET_UTIL_HYPERLOGLOG_H_
