#include "util/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "util/hashing.h"

namespace sigsetdb {

namespace {

// Bias-correction constant alpha_m for m registers.
double Alpha(size_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  assert(precision >= 4 && precision <= 16);
  registers_.assign(size_t{1} << precision_, 0);
  rank_counts_[0] = static_cast<uint32_t>(registers_.size());
}

void HyperLogLog::Add(uint64_t value) {
  uint64_t h = Mix64(value ^ 0x9e3779b97f4a7c15ULL);
  size_t idx = static_cast<size_t>(h >> (64 - precision_));
  uint64_t rest = h << precision_;
  // Rank: position of the leftmost 1 bit in the remaining stream (1-based);
  // an all-zero remainder ranks as its full width + 1.
  int rank = rest == 0 ? (64 - precision_ + 1)
                       : std::countl_zero(rest) + 1;
  if (rank > registers_[idx]) Raise(idx, static_cast<uint8_t>(rank));
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  // Σ 2^-register, bucketed by rank.  Every term and partial sum is a
  // multiple of 2^-rmax below 2^precision, so the sum is exact — and equal
  // to the register-order loop bit for bit — whenever precision + rmax <=
  // 53 (rank 42+ at the default precision: odds ~2^-41 per added value).
  // Smallest terms first keeps it as accurate as possible beyond that.
  double inverse_sum = 0.0;
  for (size_t r = kRankBuckets; r-- > 0;) {
    if (rank_counts_[r] != 0) {
      inverse_sum += static_cast<double>(rank_counts_[r]) *
                     std::ldexp(1.0, -static_cast<int>(r));
    }
  }
  const size_t zeros = rank_counts_[0];
  double raw = Alpha(registers_.size()) * m * m / inverse_sum;
  // Small-range correction: linear counting while registers remain empty.
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void HyperLogLog::Merge(const HyperLogLog& other) {
  assert(precision_ == other.precision_);
  for (size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) Raise(i, other.registers_[i]);
  }
}

void HyperLogLog::Clear() {
  std::fill(registers_.begin(), registers_.end(), 0);
  rank_counts_.fill(0);
  rank_counts_[0] = static_cast<uint32_t>(registers_.size());
}

bool HyperLogLog::LoadRegisters(const uint8_t* data, size_t len) {
  if (len != registers_.size()) return false;
  const size_t max_rank = 64 - static_cast<size_t>(precision_) + 1;
  if (std::any_of(data, data + len,
                  [max_rank](uint8_t r) { return r > max_rank; })) {
    return false;
  }
  registers_.assign(data, data + len);
  rank_counts_.fill(0);
  for (uint8_t r : registers_) ++rank_counts_[r];
  return true;
}

}  // namespace sigsetdb
