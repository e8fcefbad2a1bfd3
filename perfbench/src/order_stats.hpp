// Exact order statistics and the benchmark's percentile rule.
//
// A percentile is the nearest-rank order statistic of the pooled samples,
// never an estimate and never a mean of per-run values. The highest
// percentile worth reporting is the highest one on a fixed ladder that
// still has at least ten samples beyond it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Percentiles in thousandths of a percent (99.9 -> 99900), so rank
/// arithmetic stays exact integer math.
using MilliPct = std::uint64_t;

inline constexpr std::array<MilliPct, 6> kPercentileLadder = {
    50000, 90000, 99000, 99900, 99990, 99999};

/// Samples a reported percentile must have above its rank.
inline constexpr std::size_t kMinBeyond = 10;

/// 0-based nearest-rank index of percentile `p` among `n` sorted samples:
/// ceil(p * n / 100%) - 1, clamped to [0, n - 1]. Requires n > 0.
[[nodiscard]] inline std::size_t rank_index(MilliPct p, std::size_t n) {
  const std::uint64_t rank = (p * n + 99999) / 100000;
  return rank == 0 ? 0 : static_cast<std::size_t>(rank - 1);
}

/// Samples strictly above percentile `p`'s rank.
[[nodiscard]] inline std::size_t beyond(MilliPct p, std::size_t n) {
  return n - 1 - rank_index(p, n);
}

/// The highest ladder percentile with at least kMinBeyond samples beyond
/// it, or nothing when even the median lacks them.
[[nodiscard]] inline std::optional<MilliPct> top_percentile(std::size_t n) {
  std::optional<MilliPct> top;
  if (n == 0) return top;
  for (const MilliPct p : kPercentileLadder) {
    if (beyond(p, n) >= kMinBeyond) top = p;
  }
  return top;
}

/// Percentile `p` of `sorted` (ascending, non-empty).
template <typename T>
[[nodiscard]] T order_stat(const std::vector<T>& sorted, MilliPct p) {
  return sorted[rank_index(p, sorted.size())];
}

}  // namespace perfbench
